"""GF(2) linear algebra on bit-packed rows.

A vector in GF(2)^n is an int whose bit i is coordinate i, so row
operations are single big-int XORs (word-parallel under the hood).
No column permutations, ever.

One pivot rule: a row's pivot is its highest set bit, read in O(1) as
`row.bit_length() - 1`, and every basis is the one `_top_basis` builds,
keyed by pivot.  Ranks (`Matrix.rank`, `chain_ranks`) count its rows.
`chain_ranks` also clears: it works from the top degree down and skips
every cell that is the pivot of a reduced boundary one degree up (Chen
and Kerber, "Persistent homology computation with a twist", 2011;
Bauer, Kerber, Reininghaus and Wagner, "PHAT", 2017).  `in_span` tests
membership against the unreduced basis.  Echelon forms (`_rref_rows`,
so the isotropy quotients of `complexes._quotient` and the dual bases of
`charfunc.axial_function`) reduce it: each pivot column is cleared from
every other row, which makes the form canonical, with rows ordered by
pivot column.
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Iterator, Sequence
from dataclasses import dataclass


def bit_indices(x: int) -> Iterator[int]:
    while x:
        lsb = x & -x
        yield lsb.bit_length() - 1
        x ^= lsb


@dataclass(frozen=True)
class Vec:
    """Immutable vector in GF(2)^n."""

    bits: int
    n: int

    @staticmethod
    def unit(n: int, i: int) -> "Vec":
        return Vec(1 << i, n)

    @staticmethod
    def from_bits(coords: Iterable[int]) -> "Vec":
        coords = list(coords)
        bits = 0
        for i, c in enumerate(coords):
            if c not in (0, 1):
                raise ValueError(f"coordinate {i} is {c}, not 0/1")
            bits |= c << i
        return Vec(bits, len(coords))

    @staticmethod
    def from_string(s: str) -> "Vec":
        if not s.isascii():  # int() reads the digits of every script
            raise ValueError("only the characters 0 and 1 are allowed")
        return Vec.from_bits(int(ch) for ch in s)

    def __post_init__(self) -> None:
        if self.n < 0 or self.bits >> self.n:
            raise ValueError(f"bits 0b{self.bits:b} do not fit in width {self.n}")

    def __xor__(self, other: "Vec") -> "Vec":
        if other.n != self.n:
            raise ValueError("width mismatch")
        return Vec(self.bits ^ other.bits, self.n)

    __add__ = __xor__

    def is_zero(self) -> bool:
        return self.bits == 0

    def support(self) -> list[int]:
        return list(bit_indices(self.bits))

    def to_bits(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(self.n)]

    def __str__(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.n))

    def __repr__(self) -> str:
        return f"Vec({str(self)!r})"


def _top_basis(cells: Iterable[tuple[int, int]], skip: Container[int] = ()) -> dict[int, int]:
    """XOR basis keyed by pivot column (highest set bit of each basis row)
    of the rows of (index, row) pairs, leaving out the indices in skip."""
    by_pivot: dict[int, int] = {}
    for i, row in cells:
        if i in skip:
            continue
        while row:
            top = row.bit_length() - 1
            r = by_pivot.get(top)
            if r is None:
                by_pivot[top] = row
                break
            row ^= r
    return by_pivot


def in_span(by_pivot: dict[int, int], v: int) -> bool:
    """Is v in the span of the `_top_basis` rows by_pivot?  Each step
    clears v's highest set bit with the row of that pivot, which changes
    only lower bits, or finds no such row.  The pivots are distinct, so
    a sum of rows has its highest set bit at the greatest of their
    pivots: with no row there, v is outside the span."""
    while v:
        r = by_pivot.get(v.bit_length() - 1)
        if r is None:
            return False
        v ^= r
    return True


def chain_ranks(levels: Sequence[Iterable[tuple[int, int]]]) -> list[int]:
    """Ranks of the boundary maps of a mod-2 chain complex, with clearing.

    levels[d] yields (i, row) for d-cells of the complex: i is the cell's
    index among all d-cells, and row its boundary as bits over the
    indices of the (d-1)-cells.  A subcomplex passes a subset of the
    cells under their indices in the whole complex.  The boundaries must
    square to zero.  Returns ranks[d], the rank of the boundary out of
    degree d.

    Degrees are reduced from the top down.  A reduced d-boundary is a
    (d-1)-cycle whose highest cell t has every other cell below t, so the
    boundary of t is a sum of boundaries of lower-indexed (d-1)-cells:
    t's row cannot raise the rank of degree d-1 and is skipped.  That
    holds only when the cleared set and the rows of degree d-1 use the
    same indices, those of the complex, not positions in a list.
    """
    ranks = [0] * len(levels)
    cleared: dict[int, int] = {}
    for d in range(len(levels) - 1, -1, -1):
        cleared = _top_basis(levels[d], cleared)
        ranks[d] = len(cleared)
    return ranks


def _rref_rows(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """Canonical RREF of int rows: the `_top_basis` rows with each pivot
    column cleared from every other row.  Returns (nonzero rows by pivot,
    pivots), pivots increasing."""
    by_pivot = _top_basis(enumerate(rows))
    pivots = sorted(by_pivot)
    # a row holds bits only below its pivot: back-substitute lowest pivot
    # first, so each row clears its lower pivots with rows already reduced
    for i, p in enumerate(pivots):
        row = by_pivot[p]
        for q in pivots[:i]:
            if (row >> q) & 1:
                row ^= by_pivot[q]
        by_pivot[p] = row
    return [by_pivot[p] for p in pivots], pivots


@dataclass(frozen=True)
class Matrix:
    """Matrix over GF(2); each row is an int, bit j = column j."""

    rows: tuple[int, ...]
    ncols: int

    @staticmethod
    def from_rows(rows: Iterable[int], ncols: int) -> "Matrix":
        rows = tuple(rows)
        for r in rows:
            if r >> ncols:
                raise ValueError("row wider than ncols")
        return Matrix(rows, ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def rank(self) -> int:
        return len(_top_basis(enumerate(self.rows)))

    def __str__(self) -> str:
        return "\n".join(str(Vec(r, self.ncols)) for r in self.rows)

