"""The canonical quotient model and the formality verdicts.

Given a cell complex over Q and a characteristic function, the model
is Q x GF(2)^n with (q, g) ~ (q, g') whenever g - g' lies in the
isotropy subgroup of the carrier of q (complexes.QuotientComplex).  In
mode B the cells are the simplices of the given triangulation.  In
mode A they are the faces of Q themselves, one cell per (face, coset of
its isotropy group): the small-cover cell structure of Davis and
Januszkiewicz ("Convex polytopes, Coxeter orbifolds and torus actions",
1991), valid once the face poset passes the CW gate.  Its mod-2
homology is the ground truth the closed-form criteria are compared
against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charfunc import CharFunction, isotropy
from .complexes import CarrierComplex, FaceComplex, QuotientComplex, face_acyclicity
from .errors import InputError
from .gf2 import Vec, bit_indices
from .poset import FacePoset, count_components, fh_vectors


def build_quotient(c: CarrierComplex | FaceComplex, lam: CharFunction) -> QuotientComplex:
    return QuotientComplex(c, lam)


def fixed_points(p: FacePoset) -> tuple[list[str], int]:
    """Vertices of Q: each is a single cell of the model, fixed by everything."""
    vs = p.vertices()
    return vs, len(vs)


@dataclass(frozen=True)
class FixedLocus:
    faces: tuple[str, ...]
    discrete: bool
    size: int | None


def fixed_locus(p: FacePoset, lam: CharFunction, g: Vec) -> FixedLocus:
    """Maximal faces whose isotropy contains g; the preimage of their
    union is the fixed set of the subgroup element g."""
    if g.is_zero():
        raise InputError("g = 0 fixes everything; ask about a nonzero element")
    hits = {f for f in p.faces() if isotropy(p, lam, f).contains(g)}
    maximal = sorted(
        (f for f in hits if p.above(f) & hits == {f}), key=p.face_key
    )
    discrete = bool(maximal) and all(p.codim(f) == p.n for f in maximal)
    return FixedLocus(tuple(maximal), discrete, len(maximal) if discrete else None)


def facial_components(q: QuotientComplex, f: str) -> int:
    """Connected components of the preimage of the face f in the model."""
    p = q.base.poset
    inside = [[p.leq(q.base.carrier(cell), f) for cell, _ in cells] for cells in q.cells]
    cells = [(d, i) for d, flags in enumerate(inside) for i, ok in enumerate(flags) if ok]
    # the boundary cells of a cell inside f are inside f too
    pairs = (
        ((d, i), (d - 1, j))
        for d in range(1, len(q.cells))
        for i, row in enumerate(q.chain.boundaries[d].rows)
        if inside[d][i]
        for j in bit_indices(row)
    )
    return count_components(cells, pairs)


@dataclass(frozen=True)
class FormalityVerdict:
    mode: str  # "B" (triangulation) or "A" (face-coset model of a CW poset)
    betti: tuple[int, ...]
    sum_betti: int
    n_vertices: int
    hsiang: bool
    criterion: bool
    h: tuple[int, ...]
    h_identity: bool
    agree: bool
    acyclicity_witnesses: tuple[str, ...]


def formality_verdict(
    p: FacePoset, lam: CharFunction, triangulation: CarrierComplex | None = None
) -> FormalityVerdict:
    """The three formality tests and their mutual consistency.

    hsiang: total mod-2 Betti number of the model equals the number of
    fixed points (the lower bound is attained).
    criterion: every face subcomplex is mod-2 acyclic (`face_acyclicity`).
    In mode A the same check on the face complex is the CW gate, which
    raises PreconditionError when it fails, so there it holds once the
    model exists.  The mode label travels with the verdict.
    h_identity: Betti vector equals the h-vector.
    """
    mode, base = ("A", FaceComplex(p)) if triangulation is None else ("B", triangulation)
    acyc = face_acyclicity(p, triangulation)
    q = build_quotient(base, lam)
    criterion, witnesses = acyc.verdict, tuple(acyc.witnesses())
    betti = q.betti()
    nverts = len(p.vertices())
    hsiang = sum(betti) == nverts
    h = fh_vectors(p).h
    h_identity = tuple(betti) == tuple(h)
    agree = (hsiang == criterion) and ((not hsiang) or h_identity)
    return FormalityVerdict(
        mode,
        betti,
        sum(betti),
        nverts,
        hsiang,
        criterion,
        h,
        h_identity,
        agree,
        witnesses,
    )
