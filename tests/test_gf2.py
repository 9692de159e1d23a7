"""Bit-packed GF(2) linear algebra against brute-force enumeration."""

from itertools import combinations

import pytest
from conftest import lowest_bit_basis, nullspace, span
from hypothesis import given, settings
from hypothesis import strategies as st
from restrictions import reduce_by

from z2torus.gf2 import (
    Matrix,
    Vec,
    _rref_rows,
    _top_basis,
    chain_ranks,
    in_span,
)


class TestVec:
    def test_string_round_trip(self):
        v = Vec.from_string("110")
        assert v.n == 3
        assert v.bits == 0b011  # column 0 is the lowest bit
        assert str(v) == "110"
        assert v.to_bits() == [1, 1, 0]
        assert Vec.from_bits([1, 1, 0]) == v

    def test_xor_dot_weight(self):
        a = Vec.from_string("1100")
        b = Vec.from_string("0110")
        assert str(a ^ b) == "1010"
        assert (a.bits & b.bits).bit_count() % 2 == 1
        assert (a.bits & a.bits).bit_count() % 2 == 0
        assert a.bits.bit_count() == 2
        assert a.support() == [0, 1]
        assert a.to_bits()[0] == 1 and a.to_bits()[2] == 0
        assert not a.is_zero() and Vec(0, 4).is_zero()

    def test_unit(self):
        assert str(Vec.unit(3, 1)) == "010"

    def test_width_guard(self):
        with pytest.raises(ValueError):
            Vec(0b100, 2)
        with pytest.raises(ValueError):
            Vec.from_string("1") ^ Vec.from_string("11")

    def test_bad_characters(self):
        with pytest.raises(ValueError):
            Vec.from_string("1a0")
        with pytest.raises(ValueError, match="0 and 1"):
            Vec.from_string("1\u0660\u0661")  # Arabic-Indic digits zero, one


class TestRref:
    def test_two_rows(self):
        rows, pivots = _rref_rows(v.bits for v in [Vec.from_string("11"), Vec.from_string("01")])
        assert [str(Vec(x, 2)) for x in rows] == ["10", "01"]
        assert pivots == [0, 1]

    def test_three_columns(self):
        rows, pivots = _rref_rows(v.bits for v in [Vec.from_string("111"), Vec.from_string("110")])
        assert [str(Vec(x, 3)) for x in rows] == ["110", "001"]
        assert pivots == [1, 2]

    def test_rank_and_duplicates(self):
        m = Matrix.from_rows([0b11, 0b11, 0], 2)
        assert m.rank() == 1
        assert _rref_rows(m.rows)[0] == [0b11]

    def test_zero_matrix(self):
        assert Matrix.from_rows([0, 0, 0], 4).rank() == 0
        assert _rref_rows([0, 0, 0]) == _rref_rows([]) == ([], [])


class TestNullspaceAndDual:
    def test_single_row(self):
        null = nullspace([Vec.from_string("11").bits], 2)
        assert [str(Vec(x, 2)) for x in null] == ["11"]

    def test_repetition_code_dual(self):
        d = nullspace([Vec.from_string("1111").bits], 4)
        assert len(d) == 3
        assert all((r & Vec.from_string("1111").bits).bit_count() % 2 == 0 for r in d)

    def test_full_rank_square(self):
        assert nullspace([0b01, 0b10], 2) == []


class TestOps:
    def test_reduce_by_membership(self):
        rows, pivots = _rref_rows([0b011, 0b110])
        assert reduce_by(rows, pivots, 0b011 ^ 0b110) == 0
        assert reduce_by(rows, pivots, 0b111) != 0


rows_strategy = st.lists(st.integers(min_value=0, max_value=255), min_size=0, max_size=6)


@settings(deadline=None, max_examples=200)
@given(rows_strategy)
def test_rank_is_log_of_span(rows):
    assert 1 << Matrix.from_rows(rows, 8).rank() == len(span(rows))


@settings(deadline=None, max_examples=200)
@given(rows_strategy)
def test_rref_preserves_span_and_is_canonical(rows):
    r, pivots = _rref_rows(rows)
    assert span(r) == span(rows)
    assert len(pivots) == Matrix.from_rows(rows, 8).rank()
    assert pivots == sorted(pivots)
    # each pivot is its row's highest set bit, 0 in every other row
    for i, p in enumerate(pivots):
        assert r[i].bit_length() - 1 == p
        for j, row in enumerate(r):
            assert (row >> p) & 1 == (1 if i == j else 0)
    assert _rref_rows(r) == (r, pivots)


@settings(deadline=None, max_examples=200)
@given(rows_strategy)
def test_nullspace_is_the_whole_kernel(rows):
    null = nullspace(rows, 8)
    assert len(null) == 8 - Matrix.from_rows(rows, 8).rank()
    kernel = {x for x in range(256) if all((x & r).bit_count() % 2 == 0 for r in rows)}
    assert span(null) == kernel


@settings(deadline=None, max_examples=100)
@given(rows_strategy)
def test_dual_of_dual_is_the_row_space(rows):
    assert _rref_rows(nullspace(nullspace(rows, 8), 8)) == _rref_rows(rows)


@settings(deadline=None, max_examples=100)
@given(rows_strategy, st.integers(min_value=0, max_value=255))
def test_reduce_by_lands_in_the_coset(rows, v):
    r, pivots = _rref_rows(rows)
    red = reduce_by(r, pivots, v)
    assert red ^ v in span(rows)
    assert all((red >> p) & 1 == 0 for p in pivots)


@st.composite
def rows_and_vector(draw):
    """Rows with dependent ones (sums of others), repeats and zeros among
    them, in a drawn order, and a vector that is often a sum of rows."""
    n = draw(st.integers(min_value=1, max_value=8))
    word = st.integers(min_value=0, max_value=(1 << n) - 1)
    rows = draw(st.lists(word, max_size=5))
    if rows:
        picks = st.lists(st.integers(min_value=0, max_value=len(rows) - 1), max_size=3)
        for pick in draw(st.lists(picks, max_size=3)):
            rows.append(selected_sum(rows, sum(1 << j for j in pick)))
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    rows += [0] * draw(st.integers(min_value=0, max_value=2))
    rows = draw(st.permutations(rows))
    v = draw(word)
    if rows and draw(st.booleans()):
        v = selected_sum(rows, draw(st.integers(min_value=0, max_value=(1 << len(rows)) - 1)))
    return rows, v


@settings(deadline=None, max_examples=300)
@given(rows_and_vector())
def test_in_span_matches_the_reduced_basis(rows_v):
    """`in_span` on the unreduced basis says what `reduce_by` says on the
    canonical one, and what enumerating the span says."""
    rows, v = rows_v
    expect = reduce_by(*_rref_rows(rows), v) == 0
    assert in_span(_top_basis(enumerate(rows)), v) == expect == (v in span(rows))


def test_min_weight_agrees_with_combinations():
    rows = [0b1111, 0b0110, 0b1010]
    words = span(rows) - {0}
    by_comb = set()
    for k in range(1, 4):
        for sub in combinations(rows, k):
            acc = 0
            for r in sub:
                acc ^= r
            if acc:
                by_comb.add(acc)
    assert words == by_comb


def transpose(rows: list[int], ncols: int) -> list[int]:
    return [sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(ncols)]


def selected_sum(rows, mask: int) -> int:
    """XOR of the rows whose indices are the set bits of mask."""
    acc = 0
    for j, row in enumerate(rows):
        if (mask >> j) & 1:
            acc ^= row
    return acc


def lowest_bit_ranks(levels: list[list[int]]) -> list[int]:
    """The oracle: each degree's rank from the lowest-bit basis, no clearing."""
    return [len(lowest_bit_basis(rows)) for rows in levels]


@st.composite
def chain_complexes(draw, max_degree=4, max_cells=7):
    """levels[d] = boundary rows of the d-cells, as bits over the (d-1)-cells.

    Each row of degree d is a random sum of a basis of the chains whose
    boundary vanishes, so boundary^2 = 0 by construction.
    """
    dims = draw(st.lists(st.integers(0, max_cells), min_size=1, max_size=max_degree + 1))
    levels = [[0] * dims[0]]
    for d in range(1, len(dims)):
        below_t = transpose(levels[d - 1], dims[d - 2] if d >= 2 else 0)
        basis = nullspace(below_t, dims[d - 1])  # the (d-1)-cycles
        masks = draw(st.lists(st.integers(0, (1 << len(basis)) - 1), min_size=dims[d],
                              max_size=dims[d]))
        levels.append([selected_sum(basis, m) for m in masks])
    return levels


class TestChainRanks:
    def test_filled_triangle(self):
        levels = [[0, 0, 0], [0b011, 0b110, 0b101], [0b111]]
        assert chain_ranks([list(enumerate(rows)) for rows in levels]) == [0, 2, 1]

    def test_cleared_cells_are_indices_not_positions(self):
        # a triangle of edges 0, 1, 2 with a pendant edge 3, and one 2-cell
        # bounded by the triangle; its highest edge, index 2, is cleared,
        # while position 2 of the list holds the pendant edge
        edges = [(0, 0b0011), (1, 0b0110), (3, 0b1100), (2, 0b0101)]
        assert chain_ranks([[], edges, [(0, 0b0111)]]) == [0, 3, 1]

    def test_empty_and_zero_levels(self):
        assert chain_ranks([]) == []
        assert chain_ranks([[(0, 0), (1, 0)]]) == [0]


@settings(deadline=None, max_examples=200)
@given(chain_complexes())
def test_chain_ranks_match_the_lowest_bit_rank(levels):
    for d in range(2, len(levels)):
        assert all(selected_sum(levels[d - 1], row) == 0 for row in levels[d])
    assert chain_ranks([list(enumerate(rows)) for rows in levels]) == lowest_bit_ranks(levels)
    widths = [0] + [len(rows) for rows in levels[:-1]]
    assert [Matrix(tuple(rows), w).rank() for rows, w in zip(levels, widths)] == (
        lowest_bit_ranks(levels)
    )


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_subcomplex_ranks_keep_the_whole_complexs_indices(data):
    """A subcomplex passes its cells, in any order, under their indices in
    the whole complex; clearing by position in the list would skip the
    wrong rows."""
    levels = data.draw(chain_complexes())
    keep = [set() for _ in levels]
    for d in range(len(levels) - 1, -1, -1):
        chosen = data.draw(st.sets(st.sampled_from(range(len(levels[d]))))) if levels[d] else set()
        keep[d] |= chosen
        if d:
            for i in keep[d]:
                keep[d - 1] |= {j for j in range(len(levels[d - 1])) if (levels[d][i] >> j) & 1}
    sub = [data.draw(st.permutations([(i, levels[d][i]) for i in sorted(keep[d])]))
           for d in range(len(levels))]
    want = lowest_bit_ranks([[row for _, row in level] for level in sub])
    assert chain_ranks(sub) == want
