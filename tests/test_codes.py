"""Facet-vertex incidence codes and their verified parameters."""

from itertools import combinations

import pytest
from conftest import from_vecs

from z2torus import corpus
from z2torus.codes import BinaryCode, facet_code, is_self_dual, min_distance
from z2torus.errors import PreconditionError
from z2torus.gf2 import Matrix, Vec


def brute_min_weight(rows, length):
    best = None
    for k in range(1, len(rows) + 1):
        for sub in combinations(rows, k):
            acc = 0
            for r in sub:
                acc ^= r
            if acc and (best is None or acc.bit_count() < best):
                best = acc.bit_count()
    return best


class TestCube:
    def test_parameters(self):
        inst = corpus.cube()
        code = facet_code(inst.poset)
        assert code.length == 8 and code.dim == 4
        assert min_distance(code) == 4
        assert is_self_dual(code)

    def test_rows_are_incidence_vectors(self):
        inst = corpus.cube()
        code = facet_code(inst.poset)
        assert code.facets == ("X0", "X1", "Y0", "Y1", "Z0", "Z1")
        assert code.coordinates == tuple(inst.poset.vertices())
        assert code.rows() == [
            "11110000",
            "00001111",
            "11001100",
            "00110011",
            "10101010",
            "01010101",
        ]

    def test_generators_have_even_weight(self):
        # self-orthogonal codes have even-weight generators
        inst = corpus.cube()
        code = facet_code(inst.poset)
        assert all(r.bit_count() % 2 == 0 for r in code.gen.rows)

    def test_all_ones_is_a_codeword(self):
        # opposite facets partition the vertices, so each color class
        # sums to the all-ones vector
        inst = corpus.cube()
        code = facet_code(inst.poset)
        assert code.gen.rows[0] ^ code.gen.rows[1] == (1 << 8) - 1


class TestSmallCodes:
    def test_triangle(self):
        inst = corpus.triangle()
        code = facet_code(inst.poset)
        assert code.length == 3 and code.dim == 2
        assert min_distance(code) == 2
        assert not is_self_dual(code)

    def test_square(self):
        inst = corpus.square_torus()
        code = facet_code(inst.poset)
        assert code.length == 4 and code.dim == 3
        assert min_distance(code) == 2
        assert not is_self_dual(code)

    def test_segment(self):
        inst = corpus.segment()
        code = facet_code(inst.poset)
        assert code.length == 2 and code.dim == 2
        assert code.rows() == ["10", "01"]
        assert min_distance(code) == 1
        assert not is_self_dual(code)

    def test_cut_cube_is_not_self_dual(self):
        # ten vertices, odd ambient structure: verified, not assumed
        inst = corpus.cut_cube_vertex()
        code = facet_code(inst.poset)
        assert code.length == 10
        assert not is_self_dual(code)


class TestGuards:
    def test_no_vertices(self):
        inst = corpus.annulus()
        with pytest.raises(PreconditionError, match="no vertices"):
            facet_code(inst.poset)

    def test_zero_code(self):
        code = BinaryCode(4, Matrix.from_rows([0], 4), ("F",), ("a", "b", "c", "d"))
        assert code.dim == 0
        with pytest.raises(PreconditionError):
            min_distance(code)

    def test_dimension_cap(self):
        rows = [1 << i for i in range(25)]
        code = BinaryCode(25, Matrix.from_rows(rows, 25), (), ())
        with pytest.raises(PreconditionError, match="> 24"):
            min_distance(code)


class TestMinDistance:
    def test_gray_walk_agrees_with_brute_force(self):
        cases = [
            [0b1111, 0b0110, 0b1010],
            [0b1, 0b10, 0b100],
            [0b11011, 0b00111],
            [0b111111],
        ]
        for rows in cases:
            length = max(r.bit_length() for r in rows)
            code = BinaryCode(length, Matrix.from_rows(rows, length), (), ())
            assert min_distance(code) == brute_min_weight(rows, length), rows

    def test_corpus_codes_agree_with_brute_force(self):
        for name in ("triangle", "square_torus", "cube", "segment", "bigon"):
            inst = corpus.BUILDERS[name]()
            code = facet_code(inst.poset)
            assert min_distance(code) == brute_min_weight(
                list(code.gen.rows), code.length
            ), name


class TestSelfDuality:
    def test_definition(self):
        # C = C^perp demands dim = length/2 and pairwise orthogonality
        inst = corpus.cube()
        code = facet_code(inst.poset)
        rows = code.gen.rows
        for a in rows:
            for b in rows:
                assert (a & b).bit_count() % 2 == 0
        assert code.dim * 2 == code.length

    def test_self_orthogonal_but_not_self_dual(self):
        gen = from_vecs([Vec.from_string("1111")])
        code = BinaryCode(4, gen, ("F",), ("a", "b", "c", "d"))
        assert not is_self_dual(code)
