"""GF(2) linear algebra on bit-packed rows.

A vector in GF(2)^n is an int whose bit i is coordinate i, so row
operations are single big-int XORs (word-parallel under the hood).
Pivots are always the lowest-index nonzero column; reduced row echelon
form is the canonical one, with rows ordered by pivot column.  No
column permutations, ever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


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
    def zero(n: int) -> "Vec":
        return Vec(0, n)

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

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def dot(self, other: "Vec") -> int:
        if other.n != self.n:
            raise ValueError("width mismatch")
        return (self.bits & other.bits).bit_count() & 1

    def weight(self) -> int:
        return self.bits.bit_count()

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

    @staticmethod
    def from_vecs(vecs: Iterable[Vec]) -> "Matrix":
        vecs = list(vecs)
        if not vecs:
            raise ValueError("cannot infer width from zero vectors")
        n = vecs[0].n
        if any(v.n != n for v in vecs):
            raise ValueError("width mismatch")
        return Matrix(tuple(v.bits for v in vecs), n)

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Matrix":
        return Matrix((0,) * nrows, ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def vecs(self) -> list[Vec]:
        return [Vec(r, self.ncols) for r in self.rows]

    def rank(self) -> int:
        return len(_span_basis(self.rows))

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

    def apply(self, v: int) -> int:
        """Row-vector times matrix: XOR of the rows selected by bits of v."""
        acc = 0
        for i in bit_indices(v):
            acc ^= self.rows[i]
        return acc

    def __str__(self) -> str:
        return "\n".join(str(Vec(r, self.ncols)) for r in self.rows)


def dual_code(gen: Matrix) -> Matrix:
    """Generator matrix of the dual code (nullspace of gen)."""
    return gen.nullspace()


def reduce_by(rref_rows: list[int], pivots: list[int], v: int) -> int:
    """Clear the pivot coordinates of v against an RREF basis.

    The result is the canonical representative of v modulo the row span:
    it is zero exactly when v lies in the span.
    """
    for p, r in zip(pivots, rref_rows):
        if (v >> p) & 1:
            v ^= r
    return v


def compose_is_zero(outer: Matrix, inner: Matrix) -> bool:
    """True iff the composite map row->outer->inner is identically zero.

    Rows of `outer` are chains written in the basis indexing the rows of
    `inner`, so the composite of one row is the XOR of its selected rows.
    """
    if outer.ncols != inner.nrows:
        raise ValueError("shape mismatch")
    return all(inner.apply(r) == 0 for r in outer.rows)
