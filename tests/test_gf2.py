"""Bit-packed GF(2) linear algebra against brute-force enumeration."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2torus.gf2 import Matrix, Vec, dual_code, lowest_bit, reduce_by


def span(rows: list[int]) -> set[int]:
    out = {0}
    for r in rows:
        out |= {x ^ r for x in out}
    return out


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
        assert a.dot(b) == 1
        assert a.dot(a) == 0
        assert a.weight() == 2
        assert a.support() == [0, 1]
        assert a[0] == 1 and a[2] == 0
        assert not a.is_zero() and Vec.zero(4).is_zero()

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


class TestRref:
    def test_two_rows(self):
        m = Matrix.from_vecs([Vec.from_string("11"), Vec.from_string("01")])
        r, pivots = m.rref()
        assert [str(v) for v in r.vecs()] == ["10", "01"]
        assert pivots == (0, 1)

    def test_three_columns(self):
        m = Matrix.from_vecs([Vec.from_string("111"), Vec.from_string("110")])
        r, pivots = m.rref()
        assert [str(v) for v in r.vecs()] == ["110", "001"]
        assert pivots == (0, 2)

    def test_rank_and_duplicates(self):
        m = Matrix.from_rows([0b11, 0b11, 0], 2)
        assert m.rank() == 1
        assert m.rref()[0].rows == (0b11,)

    def test_zero_matrix(self):
        assert Matrix.zero(3, 4).rank() == 0
        assert Matrix.zero(0, 0).rref() == (Matrix.from_rows([], 0), ())


class TestNullspaceAndDual:
    def test_single_row(self):
        m = Matrix.from_vecs([Vec.from_string("11")])
        null = m.nullspace()
        assert [str(v) for v in null.vecs()] == ["11"]

    def test_repetition_code_dual(self):
        gen = Matrix.from_vecs([Vec.from_string("1111")])
        d = dual_code(gen)
        assert d.nrows == 3
        assert all(Vec(r, 4).dot(Vec.from_string("1111")) == 0 for r in d.rows)

    def test_full_rank_square(self):
        m = Matrix.from_rows([0b01, 0b10], 2)
        assert m.nullspace().nrows == 0


class TestOps:
    def test_apply_selects_rows(self):
        m = Matrix.from_rows([0b01, 0b10, 0b11], 2)
        assert m.apply(0b101) == 0b01 ^ 0b11

    def test_reduce_by_membership(self):
        rows, pivots = Matrix.from_rows([0b011, 0b110], 3).rref()
        assert reduce_by(list(rows.rows), list(pivots), 0b011 ^ 0b110) == 0
        assert reduce_by(list(rows.rows), list(pivots), 0b111) != 0

    def test_lowest_bit(self):
        assert lowest_bit(0b1010100) == 2


rows_strategy = st.lists(st.integers(min_value=0, max_value=255), min_size=0, max_size=6)


@settings(deadline=None, max_examples=200)
@given(rows_strategy)
def test_rank_is_log_of_span(rows):
    assert 1 << Matrix.from_rows(rows, 8).rank() == len(span(rows))


@settings(deadline=None, max_examples=200)
@given(rows_strategy)
def test_rref_preserves_span_and_is_canonical(rows):
    m = Matrix.from_rows(rows, 8)
    r, pivots = m.rref()
    assert span(list(r.rows)) == span(rows)
    assert len(pivots) == m.rank()
    # pivot columns are 1 in their own row and 0 in every other row
    for i, p in enumerate(pivots):
        for j, row in enumerate(r.rows):
            assert (row >> p) & 1 == (1 if i == j else 0)
    assert r.rref()[0] == r


@settings(deadline=None, max_examples=200)
@given(rows_strategy)
def test_nullspace_is_the_whole_kernel(rows):
    m = Matrix.from_rows(rows, 8)
    null = m.nullspace()
    assert null.nrows == 8 - m.rank()
    kernel = {x for x in range(256) if all((x & r).bit_count() % 2 == 0 for r in rows)}
    assert span(list(null.rows)) == kernel


@settings(deadline=None, max_examples=100)
@given(rows_strategy)
def test_dual_of_dual_is_the_row_space(rows):
    m = Matrix.from_rows(rows, 8)
    assert dual_code(dual_code(m)).rref()[0] == m.rref()[0]


@settings(deadline=None, max_examples=100)
@given(rows_strategy, st.integers(min_value=0, max_value=255))
def test_reduce_by_lands_in_the_coset(rows, v):
    r, pivots = Matrix.from_rows(rows, 8).rref()
    red = reduce_by(list(r.rows), list(pivots), v)
    assert red ^ v in span(rows)
    assert all((red >> p) & 1 == 0 for p in pivots)


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
