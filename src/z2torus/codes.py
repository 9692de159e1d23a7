"""Binary codes from facet-vertex incidence.

When the instance admits an m-involution (label image a basis, Q
face-acyclic; see `charfunc.m_involution_check`) the facet-vertex
incidence matrix generates a binary code on the fixed points;
self-duality is checked per instance, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import PreconditionError
from .gf2 import Vec, _top_basis
from .poset import FacePoset


@dataclass(frozen=True)
class BinaryCode:
    length: int
    gen: tuple[int, ...]  # one row per facet, as given (not reduced)
    facets: tuple[str, ...]
    coordinates: tuple[str, ...]  # vertices, canonical order

    @cached_property
    def basis(self) -> tuple[int, ...]:
        """The generator rows reduced once, by `_top_basis`: one row per
        pivot, so the code's dimension is their count."""
        return tuple(_top_basis(enumerate(self.gen)).values())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def rows(self) -> list[str]:
        return [str(Vec(r, self.length)) for r in self.gen]


def facet_code(p: FacePoset) -> BinaryCode:
    """Code generated by facet-vertex incidence vectors.

    Caller is responsible for the m-involution existing (that is what
    makes the fixed set of the involution the support of this code).
    """
    vertices = p.vertices()
    if not vertices:
        raise PreconditionError("poset has no vertices, code is empty")
    facets = p.facets()
    rows = dict.fromkeys(facets, 0)  # each facet's row, bit i for vertex i
    for i, v in enumerate(vertices):
        for F in p.facets_containing(v):
            rows[F] |= 1 << i
    return BinaryCode(len(vertices), tuple(rows.values()), tuple(facets), tuple(vertices))


def is_self_dual(code: BinaryCode) -> bool:
    """True iff the code equals its dual, by the definition: C lies in
    C^perp when every two generator rows (each row with itself too) meet
    evenly, and C^perp has dimension length - dim C, so the two are equal
    exactly when also 2 dim C = length."""
    rows = code.gen
    return 2 * code.dim == code.length and all(
        (a & b).bit_count() % 2 == 0 for i, a in enumerate(rows) for b in rows[i:]
    )


def min_distance(code: BinaryCode) -> int:
    """Minimum weight over all nonzero codewords, by exhaustive
    enumeration of the row space (Gray-code order)."""
    basis = code.basis
    dim = len(basis)
    if dim == 0:
        raise PreconditionError("zero code has no minimum distance")
    if dim > 24:
        raise PreconditionError(f"dimension {dim} > 24, enumeration refused")
    best = None
    word = 0
    prev = 0
    for i in range(1, 1 << dim):
        gray = i ^ (i >> 1)
        word ^= basis[(gray ^ prev).bit_length() - 1]
        prev = gray
        w = word.bit_count()
        if best is None or w < best:
            best = w
    return best
