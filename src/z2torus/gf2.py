"""GF(2) linear algebra on bit-packed rows.

A vector in GF(2)^n is an int whose bit i is coordinate i, so row
operations are single big-int XORs (word-parallel under the hood).
No column permutations, ever.

Two pivot rules, each where it pays:
- Ranks (`Matrix.rank`, `chain_ranks`) pivot on the highest set bit,
  read in O(1) as `row.bit_length() - 1`.  `chain_ranks` also clears:
  it works from the top degree down and skips every cell that is the
  pivot of a reduced boundary one degree up (Chen and Kerber,
  "Persistent homology computation with a twist", 2011; Bauer, Kerber,
  Reininghaus and Wagner, "PHAT", 2017).
- Echelon forms (`_rref_rows`, `Matrix.rref`, `nullspace`, `reduce_by`)
  pivot on the lowest-index nonzero column, so reduced row echelon form
  is the canonical one, with rows ordered by pivot column.  Canonical is
  what they need: `codes.is_self_dual` compares two spans by their
  forms, and a coset representative is one fixed element of its coset.
  Any fixed rule would do; no command prints these rows.  A membership
  test needs less: `in_span` reduces through the unsorted, unreduced
  basis `_span_basis` keys by lowest set bit.
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Iterator, Sequence
from dataclasses import dataclass


def lowest_bit(x: int) -> int:
    """Index of the lowest set bit of a nonzero int."""
    return (x & -x).bit_length() - 1


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


def _span_basis(rows: Iterable[int]) -> dict[int, int]:
    """XOR basis keyed by pivot column (lowest set bit of each basis row)."""
    by_pivot: dict[int, int] = {}
    for row in rows:
        while row:
            r = by_pivot.get(lowest_bit(row))
            if r is None:
                by_pivot[lowest_bit(row)] = row
                break
            row ^= r
    return by_pivot


def in_span(by_pivot: dict[int, int], v: int) -> bool:
    """Is v in the span of the `_span_basis` rows by_pivot?  Each step
    clears v's lowest set bit with the row of that pivot, which changes
    only higher bits, or finds no such row.  The pivots are distinct, so
    a sum of rows has its lowest set bit at the least of their pivots:
    with no row there, v is outside the span."""
    while v:
        r = by_pivot.get(lowest_bit(v))
        if r is None:
            return False
        v ^= r
    return True


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
    """Canonical RREF of int rows.  Returns (nonzero rows by pivot, pivots)."""
    by_pivot = _span_basis(rows)
    pivots = sorted(by_pivot)
    # back-substitute, highest pivot first, so pivot columns are cleared
    for i in range(len(pivots) - 1, -1, -1):
        row = by_pivot[pivots[i]]
        for q in pivots[i + 1 :]:
            if (row >> q) & 1:
                row ^= by_pivot[q]
        by_pivot[pivots[i]] = row
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

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        rows, pivots = _rref_rows(self.rows)
        return Matrix(tuple(rows), self.ncols), tuple(pivots)

    def nullspace(self) -> "Matrix":
        """Basis of {v : every row r has r.v = 0}, one row per free column."""
        rows, pivots = _rref_rows(self.rows)
        pivot_set = set(pivots)
        basis = []
        for j in range(self.ncols):
            if j in pivot_set:
                continue
            v = 1 << j
            for p, r in zip(pivots, rows):
                if (r >> j) & 1:
                    v |= 1 << p
            basis.append(v)
        return Matrix(tuple(basis), self.ncols)

    def __str__(self) -> str:
        return "\n".join(str(Vec(r, self.ncols)) for r in self.rows)


def reduce_by(rref_rows: list[int], pivots: list[int], v: int) -> int:
    """Clear the pivot coordinates of v against an RREF basis.

    The result is the canonical representative of v modulo the row span:
    it is zero exactly when v lies in the span.
    """
    for p, r in zip(pivots, rref_rows):
        if (v >> p) & 1:
            v ^= r
    return v
