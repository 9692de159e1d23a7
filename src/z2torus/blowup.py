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

from .charfunc import CharFunction, facet_labels, require_valid
from .errors import InputError, PreconditionError
from .gf2 import Vec, bit_indices
from .poset import FacePoset


@dataclass
class CutResult:
    poset: FacePoset
    lam: CharFunction
    new_facet: str


def cut_face(p: FacePoset, lam: CharFunction, f: str) -> CutResult:
    """Blow up along the face f.  Faces inside f are replaced by their
    products with the truncated boolean lattice on the facets T through f;
    every face not inside f keeps its identity.  The new face (g, S), for
    g inside f and S a nonempty subset of T, has the id "g|S".

    Precondition: p is sound and lam independent at every face
    (`require_valid`, before any work), else InputError.  The upper
    interval of each g inside f is then boolean on g's facets, so for
    each S exactly one face above g lies on the facets of g minus S; it
    misses part of T, so it is old.  The cut is sound and its labels
    independent, so it is not validated again:
    - an old face keeps its facet set, its codim and the faces above it;
    - (g, S) lies on the facets of g minus S, plus the new facet;
    - the new facet's label is the sum over T, a subset of g's facets, so
      it lies in the span of g's labels but not in that of g's facets
      minus S: the labels on (g, S) are independent as g's are;
    - the faces above (g, S) are the (g', S') with g <= g' <= f and S'
      containing S, and the old faces above g that miss S: a boolean
      lattice on its facets, as for the truncation of a simple polytope
      at a face (Davis and Januszkiewicz, 1991).
    """
    if f not in p.codims:
        raise InputError(f"unknown face {f!r}")
    k = p.codim(f)
    if p.n < 2:
        raise PreconditionError(
            f"cut face must have codimension 2 or more; dimension {p.n} has no such face"
        )
    if not 2 <= k <= p.n:
        raise PreconditionError(
            f"cut face must have codimension in 2..{p.n}, {f} has {k}"
        )
    require_valid(p, lam, "cut")
    T = tuple(p.facets_containing(f))
    old: list[str] = []
    below_f: list[str] = []
    for g in p.faces():
        (below_f if p.leq(g, f) else old).append(g)

    subsets: list[tuple[str, ...]] = []
    for size in range(1, len(T) + 1):
        subsets.extend(combinations(T, size))
    # per subset S (by position): the facet mask of S, and the positions of
    # the subsets S + t for t in T outside S
    where = {S: i for i, S in enumerate(subsets)}
    s_mask = [sum(p._facet_mask[u] for u in S) for S in subsets]
    grow = [
        [where[tuple(u for u in T if u in S or u == t)] for t in T if t not in S]
        for S in subsets
    ]

    # every new face id, made once: ids[g][i] is (g, subsets[i])
    suffixes = ["|" + ",".join(S) for S in subsets]
    codims: dict[str, int] = {g: p.codim(g) for g in old}
    ids: dict[str, list[str]] = {}
    for g in below_f:
        ids[g] = mine = [g + s for s in suffixes]
        k_g = p.codim(g)
        for nid, S in zip(mine, subsets):
            if nid in codims:
                raise InputError(f"generated face id {nid!r} collides with an existing id")
            codims[nid] = k_g - len(S) + 1

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
        mine = ids[g]
        kids = [ids[c] for c in p.children(g)]
        facets_g = p._facet_mask[g]
        for i, nid in enumerate(mine):
            covers.extend((kid[i], nid) for kid in kids)
            covers.extend((nid, mine[j]) for j in grow[i])
            rest = facets_g & ~s_mask[i]
            covers.append((nid, next(h for h in by_facets[rest] if p.leq(g, h))))

    poset2 = FacePoset(p.n, codims, covers)

    new_facet = ids[f][-1]  # (f, T): T is the last subset
    labels = facet_labels(p, lam)
    label = 0  # the sum over T, the facets of f's facet mask
    for j in bit_indices(p._facet_mask[f]):
        label ^= labels[j]
    values = {F: lam.vec(F) for F in p.facets()}
    values[new_facet] = Vec(label, lam.n)
    lam2 = CharFunction(lam.n, values)

    return CutResult(poset2, lam2, new_facet)
