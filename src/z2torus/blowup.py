"""Cutting a face: the combinatorial blow-up.

Cutting off a face f of codimension k (2 <= k <= n) removes f and
everything inside it and glues in a new facet shaped like
f x (simplex on the k facets through f).  On the dual complex this is
the stellar subdivision at the cell dual to f.  The new facet's label
is the sum of the labels of the k facets through f.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .charfunc import CharFunction, face_restriction, validate_lambda
from .complexes import CarrierComplex, is_face_acyclic
from .errors import InputError, PreconditionError
from .gf2 import Vec
from .model import formality_verdict
from .poset import FacePoset, validate


def _new_id(g: str, S: tuple[str, ...]) -> str:
    return f"{g}|{','.join(S)}"


@dataclass
class CutResult:
    poset: FacePoset
    lam: CharFunction
    new_facet: str
    provenance: dict[str, list[str]]


def cut_face(p: FacePoset, lam: CharFunction, f: str) -> CutResult:
    """Blow up along the face f.  Faces inside f are replaced by their
    products with the truncated boolean lattice on the facets through f;
    every face not inside f keeps its identity."""
    if f not in p.codims:
        raise InputError(f"unknown face {f!r}")
    k = p.codim(f)
    if not 2 <= k <= p.n:
        raise PreconditionError(
            f"cut face must have codimension in 2..{p.n}, {f} has {k}"
        )
    T = tuple(p.facets_containing(f))
    below_f = p.below(f)
    old = [g for g in p.faces() if g not in below_f]

    subsets: list[tuple[str, ...]] = []
    for size in range(1, k + 1):
        subsets.extend(combinations(T, size))

    codims: dict[str, int] = {g: p.codim(g) for g in old}
    new_faces: list[tuple[str, str, tuple[str, ...]]] = []  # (id, g, S)
    for g in sorted(below_f, key=p.face_key):
        for S in subsets:
            nid = _new_id(g, S)
            if nid in codims:
                raise InputError(f"generated face id {nid!r} collides with an existing id")
            codims[nid] = p.codim(g) - len(S) + 1
            new_faces.append((nid, g, S))

    facet_sets = {h: frozenset(p.facets_containing(h)) for h in old}

    def leq(a, b) -> bool:
        """Containment in the cut poset; entries are old ids or (g, S)."""
        if isinstance(a, str) and isinstance(b, str):
            return p.leq(a, b)
        if isinstance(a, tuple) and isinstance(b, tuple):
            return p.leq(a[0], b[0]) and set(a[1]) <= set(b[1])
        if isinstance(a, tuple) and isinstance(b, str):
            return p.leq(a[0], b) and not (facet_sets[b] & set(a[1]))
        return False  # old face never sits inside a new one

    entries: list[tuple[str, object]] = [(g, g) for g in old]
    entries += [(nid, (g, S)) for nid, g, S in new_faces]
    covers: set[tuple[str, str]] = set()
    for ida, a in entries:
        for idb, b in entries:
            if ida != idb and codims[ida] == codims[idb] + 1 and leq(a, b):
                covers.add((ida, idb))
    poset2 = FacePoset(p.n, codims, covers)

    # the cover relations must generate the full containment order
    for ida, a in entries:
        direct = {idb for idb, b in entries if leq(a, b)} | {ida}
        if direct != set(poset2.above(ida)):
            raise InputError(f"cut poset containment not generated by covers at {ida}")

    rep = validate(poset2)
    if not rep.sound:
        raise InputError(["cut poset fails validation"] + rep.structural + rep.simplicial + rep.nice)

    new_facet = _new_id(f, T)
    label = Vec(0, lam.n)
    for F in T:
        label = label ^ lam.vec(F)
    values = {F: lam.vec(F) for F in p.facets()}
    values[new_facet] = label
    lam2 = CharFunction(lam.n, values)
    lrep = validate_lambda(poset2, lam2)
    if not lrep.ok:
        raise InputError(["cut lambda fails validation"] + lrep.witnesses())

    provenance: dict[str, list[str]] = {g: [g] for g in old}
    for g in sorted(below_f, key=p.face_key):
        provenance[g] = sorted(_new_id(g, S) for S in subsets)
    return CutResult(poset2, lam2, new_facet, provenance)


@dataclass(frozen=True)
class CountsCheck:
    k: int
    vertices_before: int
    vertices_after: int
    vertices_face: int
    vertices_ok: bool
    betti_sum_before: int
    betti_sum_after: int
    betti_sum_face: int
    betti_ok: bool
    hsiang_before: bool
    hsiang_after: bool

    @property
    def formality_preserved(self) -> bool:
        return (not self.hsiang_before) or self.hsiang_after


def blowup_counts_check(
    p: FacePoset, lam: CharFunction, f: str, cut: CutResult | None = None
) -> CountsCheck:
    """Verify the two counting identities for the cut at f, with total
    Betti numbers computed from the mode-A models of Q, the cut result,
    and the face itself."""
    if cut is None:
        cut = cut_face(p, lam, f)
    k = p.codim(f)
    nv_before = len(p.vertices())
    nv_after = len(cut.poset.vertices())
    nv_face = len([v for v in p.vertices() if p.leq(v, f)])

    before = formality_verdict(p, lam)
    after = formality_verdict(cut.poset, cut.lam)
    sub_p, sub_lam = face_restriction(p, lam, f)
    face_sum = formality_verdict(sub_p, sub_lam).sum_betti
    return CountsCheck(
        k,
        nv_before,
        nv_after,
        nv_face,
        nv_after == nv_before + (k - 1) * nv_face,
        before.sum_betti,
        after.sum_betti,
        face_sum,
        after.sum_betti == before.sum_betti + (k - 1) * face_sum,
        before.hsiang,
        after.hsiang,
    )


@dataclass(frozen=True)
class AcyclicityComparison:
    before: bool
    after: bool

    @property
    def agree(self) -> bool:
        return self.before == self.after


def acyclicity_preservation(
    before: CarrierComplex, after: CarrierComplex
) -> AcyclicityComparison:
    """Compare the face-acyclicity verdicts of mode-B models of Q and of
    the cut result; a blow-up preserves face-acyclicity."""
    return AcyclicityComparison(
        is_face_acyclic(before).verdict, is_face_acyclic(after).verdict
    )
