"""Facet-vertex incidence codes and their verified parameters."""

from itertools import combinations

import pytest
from conftest import span
from hypothesis import given, settings
from hypothesis import strategies as st

from z2torus import cli, codes, corpus
from z2torus.codes import BinaryCode, facet_code, is_self_dual, min_distance
from z2torus.errors import PreconditionError
from z2torus.gf2 import Matrix, Vec
from z2torus.instance import save_instance


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


def brute_self_dual(rows, length):
    """C == C^perp, both enumerated: the span of rows, and every word of
    the given length meeting each row evenly."""
    dual = {x for x in range(1 << length) if all((x & r).bit_count() % 2 == 0 for r in rows)}
    return span(rows) == dual


@st.composite
def generator_rows(draw):
    """A length of at most 8 and rows of it, zero and repeated rows among
    them.  Half the time the rows span a self-dual code, k copies of
    {00, 11} on shuffled coordinates, so that both verdicts occur."""
    if draw(st.booleans()):
        length = draw(st.integers(1, 8))
        return length, draw(st.lists(st.integers(0, (1 << length) - 1), max_size=6))
    k = draw(st.integers(1, 4))
    order = draw(st.permutations(range(2 * k)))
    pairs = [1 << order[2 * i] | 1 << order[2 * i + 1] for i in range(k)]
    sums = draw(st.lists(st.integers(0, (1 << k) - 1), max_size=3))  # 0 and one pair too
    rows = pairs + [sum(p for j, p in enumerate(pairs) if m >> j & 1) for m in sums]
    return 2 * k, draw(st.permutations(rows))


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
        assert all(r.bit_count() % 2 == 0 for r in code.gen)

    def test_all_ones_is_a_codeword(self):
        # opposite facets partition the vertices, so each color class
        # sums to the all-ones vector
        inst = corpus.cube()
        code = facet_code(inst.poset)
        assert code.gen[0] ^ code.gen[1] == (1 << 8) - 1


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
        code = BinaryCode(4, (0,), ("F",), ("a", "b", "c", "d"))
        assert code.dim == 0
        with pytest.raises(PreconditionError):
            min_distance(code)

    def test_dimension_cap(self):
        rows = [1 << i for i in range(25)]
        code = BinaryCode(25, tuple(rows), (), ())
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
            code = BinaryCode(length, tuple(rows), (), ())
            assert min_distance(code) == brute_min_weight(rows, length), rows

    def test_corpus_codes_agree_with_brute_force(self):
        for name in ("triangle", "square_torus", "cube", "segment", "bigon"):
            inst = corpus.BUILDERS[name]()
            code = facet_code(inst.poset)
            assert min_distance(code) == brute_min_weight(
                list(code.gen), code.length
            ), name


class TestSelfDuality:
    def test_definition(self):
        # C = C^perp demands dim = length/2 and pairwise orthogonality
        inst = corpus.cube()
        code = facet_code(inst.poset)
        rows = code.gen
        for a in rows:
            for b in rows:
                assert (a & b).bit_count() % 2 == 0
        assert code.dim * 2 == code.length

    def test_self_orthogonal_but_not_self_dual(self):
        code = BinaryCode(4, (Vec.from_string("1111").bits,), ("F",), ("a", "b", "c", "d"))
        assert not is_self_dual(code)

    @settings(deadline=None, max_examples=300)
    @given(generator_rows())
    def test_matches_the_enumerated_dual(self, case):
        length, rows = case
        code = BinaryCode(length, tuple(rows), (), ())
        assert is_self_dual(code) == brute_self_dual(rows, length)

    def test_cube_codes_match_the_enumerated_dual(self):
        # the n-cube's facet code is the Reed-Muller code RM(1, n), self-dual
        # only at n = 3; at n = 1 it is all of GF(2)^2
        for n in range(1, 5):
            code = facet_code(corpus.ncube(n).poset)
            want = brute_self_dual(list(code.gen), code.length)
            assert is_self_dual(code) == want == (n == 3), n


def test_one_code_command_reduces_the_generator_rows_once(tmp_path, capsys, monkeypatch):
    # dim, self-duality's dimension test and min_distance read one basis
    path = tmp_path / "cube8.json"
    save_instance(corpus.ncube(8), path)
    gen = list(facet_code(corpus.ncube(8).poset).gen)
    reductions = []
    rank, top_basis = Matrix.rank, codes._top_basis

    def counted_rank(m):
        reductions.append(list(m.rows) == gen)
        return rank(m)

    def counted_top_basis(cells, skip=()):
        cells = list(cells)
        reductions.append([row for _, row in cells] == gen)
        return top_basis(cells, skip)

    monkeypatch.setattr(Matrix, "rank", counted_rank)
    monkeypatch.setattr(codes, "_top_basis", counted_top_basis)
    assert cli.main(["code", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "[256,9,128] self_dual=false"
    assert reductions.count(True) == 1
