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

from .charfunc import CharFunction, validate_lambda
from .errors import InputError, PreconditionError
from .gf2 import Vec
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
    old: list[str] = []
    below_f: list[str] = []
    for g in p.faces():
        (below_f if p.leq(g, f) else old).append(g)

    subsets: list[tuple[str, ...]] = []
    for size in range(1, k + 1):
        subsets.extend(combinations(T, size))

    codims: dict[str, int] = {g: p.codim(g) for g in old}
    for g in below_f:
        for S in subsets:
            nid = _new_id(g, S)
            if nid in codims:
                raise InputError(f"generated face id {nid!r} collides with an existing id")
            codims[nid] = p.codim(g) - len(S) + 1

    # the covers of the cut poset, from three rules: old covers away from f
    # stay; (g, S) sits under (g', S) for g' covering g and under (g, S + t);
    # and under the one old face whose facets are facets(g) minus S.  Each
    # is listed once, the old ones first: FacePoset sorts one long run.
    inside = set(below_f)
    covers = [(c, b) for c, b in p.covers if c not in inside]
    by_facets: dict[int, list[str]] = {}
    for h in old:
        by_facets.setdefault(p._facet_mask[h], []).append(h)
    for g in below_f:
        for S in subsets:
            nid = _new_id(g, S)
            covers.extend((_new_id(c, S), nid) for c in p.children(g))
            covers.extend(
                (nid, _new_id(g, tuple(u for u in T if u in S or u == t)))
                for t in T if t not in S
            )
            rest = p._facet_mask[g] & ~sum(p._facet_mask[u] for u in S)
            hits = [h for h in by_facets.get(rest, []) if p.leq(g, h)]
            if len(hits) != 1:
                raise InputError(
                    f"face {g} has {len(hits)} faces above it on the facets "
                    f"{p._facet_names(rest)}, wanted one"
                )
            covers.append((nid, hits[0]))
    poset2 = FacePoset(p.n, codims, covers)

    rep = validate(poset2)
    if not rep.sound:
        raise InputError(["cut poset fails validation"] + rep.witnesses())

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
    for g in below_f:
        provenance[g] = sorted(_new_id(g, S) for S in subsets)
    return CutResult(poset2, lam2, new_facet, provenance)
