"""The canonical quotient model and the formality verdicts.

Given a cell complex over Q and a characteristic function, the model
is Q x GF(2)^n with (q, g) ~ (q, g') whenever g - g' lies in the
isotropy subgroup of the carrier of q (complexes.QuotientComplex).  In
mode B the cell complex is the given triangulation, and the cells are
the simplices left critical by its reduction within carriers, which
keeps the homology (complexes.reduced_chain).  In mode A it is the face poset itself, one cell per
(face, coset of its isotropy group): the small-cover cell structure of
Davis and Januszkiewicz ("Convex polytopes, Coxeter orbifolds and torus
actions", 1991), valid once the face poset passes the CW gate.  Its mod-2
homology is the ground truth the closed-form criteria are compared
against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charfunc import CharFunction, facet_labels, require_valid
from .complexes import CarrierComplex, QuotientComplex, face_acyclicity
from .errors import InputError
from .gf2 import Vec, _top_basis, bit_indices, in_span
from .poset import FacePoset, fh_vectors, kept


def build_quotient(c: CarrierComplex | FacePoset, lam: CharFunction) -> QuotientComplex:
    return QuotientComplex(c, lam)


@dataclass(frozen=True)
class FixedLocus:
    faces: tuple[str, ...]
    discrete: bool
    size: int | None


def fixed_locus(p: FacePoset, lam: CharFunction, g: Vec) -> FixedLocus:
    """Maximal faces whose isotropy contains g; the preimage of their
    union is the fixed set of the subgroup element g.  A face's isotropy
    group is the span of its facets' labels, the `facet_labels` ints its
    facet mask selects.  g is parsed with its width, which must be lam's;
    it is read as an int.  Raises InputError unless p and lam pass
    validation (`require_valid`) and g has lam's width."""
    require_valid(p, lam, "fixed-locus")
    if g.n != lam.n:
        raise InputError(f"g has {g.n} bits, lambda has width {lam.n}")
    if not g.bits:
        raise InputError("g = 0 fixes everything; ask about a nonzero element")
    label = facet_labels(p, lam)
    hits = [
        (1 << i, f)
        for i, f in enumerate(p.faces())
        if in_span(_top_basis(enumerate(label[j] for j in bit_indices(p._facet_mask[f]))), g.bits)
    ]
    held = sum(bit for bit, _ in hits)
    maximal = [f for bit, f in hits if p._up[f] & held == bit]
    discrete = bool(maximal) and all(p.codim(f) == p.n for f in maximal)
    return FixedLocus(tuple(maximal), discrete, len(maximal) if discrete else None)


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


@kept
def formality_verdict(base: CarrierComplex | FacePoset, lam: CharFunction) -> FormalityVerdict:
    """The three formality tests on the model over base and their mutual
    consistency: mode B on a triangulation, mode A on the poset itself.

    hsiang: total mod-2 Betti number of the model equals the number of
    fixed points (the lower bound is attained).
    criterion: every face subcomplex is mod-2 acyclic (`face_acyclicity`).
    In mode A the same check on the poset is the CW gate, which raises
    PreconditionError when it fails, so there it holds once the model
    exists.  The mode label travels with the verdict.
    h_identity: Betti vector equals the h-vector.
    Raises InputError unless the poset and lam pass validation
    (`require_valid`).  The verdict is kept with lam on base until a call
    for another lam takes its place; its model is not kept.
    """
    p = base.poset
    require_valid(p, lam, "model")
    mode = "A" if base is p else "B"
    acyc = face_acyclicity(base)
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
