"""Face posets of nice manifolds with corners, given as combinatorial data.

A poset is a set of faces, each with a codimension in 0..n, plus cover
relations (child, parent) meaning child is a proper subface of parent
with codimension exactly one higher.  Everything else (containment,
facet sets, skeleta, the order complex) is derived from that.

Faces are canonically ordered by (codim, id) throughout, so every
derived object is reproducible bit for bit.  A check (`validate`,
`vertex_findings`) returns the witness lines it finds, [] when it
passes, kept on the poset it checked.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Hashable, Iterable, Mapping
from dataclasses import dataclass
from functools import wraps
from math import comb
from operator import is_
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, TypeVar, get_type_hints

if TYPE_CHECKING:  # pragma: no cover
    from .complexes import CarrierComplex


T = TypeVar("T")


def kept(fn: Callable[..., T]) -> Callable[..., T]:
    """Keep fn's last result on its first argument, the object it describes
    (a poset, or a triangulation), with the call's other arguments, held
    strongly and compared by identity; a call with any other objects
    computes afresh and takes over fn's one slot.  Those arguments and the
    result never refer to their owner (a poset does not refer to its
    triangulations), so a dropped owner is freed at once.  A call that
    raises keeps nothing.  Callers share the result and must not change
    it.  Arguments are passed by position only, and fn has no defaults: a
    default would give one result two slots.  The owner's type is fn's
    annotation of its first parameter, its first annotation, read on the
    first call: any other owner raises TypeError naming what fn takes."""
    owners: Any = None

    @wraps(fn)
    def keep(owner: Any, *rest: Any) -> T:
        nonlocal owners
        if owners is None:
            owners = next(iter(get_type_hints(fn).values()))
        if not isinstance(owner, owners):
            wanted = (
                "a poset is a FacePoset" if owners is FacePoset
                else "a base is a FacePoset or a CarrierComplex"
            )
            raise TypeError(f"{wanted}, not {type(owner).__name__}")
        slot = owner._kept.get(fn)
        if slot is None or len(slot[0]) != len(rest) or not all(map(is_, slot[0], rest)):
            slot = owner._kept[fn] = (rest, fn(owner, *rest))
        return slot[1]

    return keep


class FacePoset:
    """Graded face poset with the canonical face and cover orders and, for
    each face, the faces above it and its facets as bitmasks over the face
    order (a face's own bit is the top bit of its up-set); every containment
    query reads those masks.  The `kept` functions keep their results on it.

    It is also its own face complex, the cell complex over Q of mode A, as
    a `complexes.CarrierComplex` is that of mode B: each face is a cell of
    its own dimension, carried by itself, with the faces it covers as its
    boundary.  The boolean upper intervals that `validate` checks give
    every length-two interval exactly two middle elements, so these
    incidence-1 boundaries square to zero.  The homology is that of Q's
    cell structure once every face's boundary is a mod-2 homology sphere
    (see `complexes.face_acyclicity`).
    """

    def __init__(self, n: int, codims: dict[str, int], covers: Iterable[tuple[str, str]]):
        if n < 0:
            raise ValueError("negative dimension")
        self.n = n
        self.codims = dict(codims)
        for f, k in self.codims.items():
            if not 0 <= k <= n:
                raise ValueError(f"face {f!r} has codim {k} outside 0..{n}")
        # stable sorts: by id, then by codim
        self._order = tuple(sorted(sorted(self.codims), key=self.codims.__getitem__))
        self.covers = tuple(sorted(covers))
        parents: dict[str, list[str]] = {f: [] for f in self._order}
        self._children: dict[str, list[str]] = {f: [] for f in self._order}
        for c, p in self.covers:
            if c not in self.codims or p not in self.codims:
                raise ValueError(f"cover ({c!r}, {p!r}) names an unknown face")
            if self.codims[c] <= self.codims[p]:
                raise ValueError(f"cover ({c!r}, {p!r}) does not go up in codim")
            parents[c].append(p)
            self._children[p].append(c)
        # bit i stands for self._order[i]; a face's parents come before it
        up: dict[str, int] = {}
        for i, f in enumerate(self._order):
            mask = 1 << i
            for q in parents[f]:
                mask |= up[q]
            up[f] = mask
        self._up = up
        # facet masks have bit j for the j-th facet in id order
        counts = Counter(self.codims.values())
        first = counts[0]
        self._facet_ids = self._order[first:first + counts[1]]
        block = (1 << counts[1]) - 1
        self._facet_mask = {f: m >> first & block for f, m in up.items()}
        self._kept: dict[Callable[..., object], tuple[tuple[object, ...], object]] = {}

    # -- basic queries -------------------------------------------------

    def _facet_names(self, mask: int) -> list[str]:
        """The facets whose bits are set in a facet mask, sorted."""
        names = []
        while mask:
            low = mask & -mask
            names.append(self._facet_ids[low.bit_length() - 1])
            mask ^= low
        return names

    def faces(self) -> list[str]:
        """Every face in the canonical (codim, id) order; a fresh list each call."""
        return list(self._order)

    def codim(self, f: str) -> int:
        return self.codims[f]

    def dim_face(self, f: str) -> int:
        return self.n - self.codims[f]

    def faces_of_codim(self, k: int) -> list[str]:
        return [f for f in self._order if self.codims[f] == k]

    def facets(self) -> list[str]:
        return self.faces_of_codim(1)

    def vertices(self) -> list[str]:
        return self.faces_of_codim(self.n)

    def children(self, f: str) -> list[str]:
        """The faces f covers: its faces of one dimension less."""
        return self._children[f]

    boundary = children

    @property
    def poset(self) -> FacePoset:
        return self

    def carrier(self, f: str) -> str:
        return f

    def by_dim(self) -> list[list[str]]:
        """The faces by dimension, each level in id order."""
        return [self.faces_of_codim(self.n - d) for d in range(self.n + 1)]

    def leq(self, f: str, g: str) -> bool:
        """True iff face f is contained in face g: g's up-set is inside f's."""
        above = self._up.get(g)
        return above is not None and self._up[f] & above == above

    def facets_containing(self, f: str) -> list[str]:
        """The facets through f, sorted; a fresh list each call."""
        return self._facet_names(self._facet_mask[f])

    def top(self) -> str:
        tops = self.faces_of_codim(0)
        if len(tops) != 1:
            raise ValueError(f"poset has {len(tops)} codim-0 faces, wanted one")
        return tops[0]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FacePoset)
            and self.n == other.n
            and self.codims == other.codims
            and self.covers == other.covers
        )

    def __repr__(self) -> str:
        return f"FacePoset(n={self.n}, faces={len(self.codims)})"


@dataclass(frozen=True)
class FHVector:
    f: tuple[int, ...]
    h: tuple[int, ...]


@dataclass(frozen=True)
class Skeleton:
    """1-skeleton: vertices, edges keyed by face id, and health flags.
    The edge mappings are read-only."""

    vertices: tuple[str, ...]
    edges: Mapping[str, tuple[str, str]]
    degenerate_edges: Mapping[str, tuple[str, ...]]
    n_valent: bool
    connected: bool


@dataclass(frozen=True)
class GorensteinChecks:
    pseudo_manifold: bool
    euler_ok: bool


def count_components(
    nodes: Iterable[Hashable], pairs: Iterable[tuple[Hashable, Hashable]]
) -> int:
    """Number of connected components of the graph on nodes joined by pairs."""
    parent = {x: x for x in nodes}

    def find(x: Hashable) -> Hashable:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return len({find(x) for x in parent})


@kept
def validate(p: FacePoset) -> list[str]:
    """Check top element, grading, boolean upper intervals and niceness:
    the structural findings, or else the simplicial findings followed by
    the nice ones, in the order loading and cutting report them; [] when
    p is sound, good enough for every downstream computation.  Kept on p
    (`kept`); callers share the list.  Vertices and the faces' 1-skeleta
    are checked by `vertex_findings`."""
    structural: list[str] = []
    tops = p.faces_of_codim(0)
    if len(tops) != 1:
        structural.append(f"expected exactly one codim-0 face, found {tops}")
    for c, par in p.covers:
        if p.codims[c] != p.codims[par] + 1:
            structural.append(
                f"cover ({c}, {par}) jumps codim {p.codims[par]} -> {p.codims[c]}"
            )
    up, facet_mask = p._up, p._facet_mask
    if len(tops) == 1:  # the top face is bit 0
        for f in p.faces():
            if not up[f] & 1:
                structural.append(f"face {f} is not below the top face {tops[0]}")
    if structural:
        return structural

    # niceness: a codim-k face lies in exactly k facets
    nice: list[str] = []
    for f in p.faces():
        k = p.codims[f]
        if facet_mask[f].bit_count() != k:
            S = p.facets_containing(f)
            nice.append(f"face {f} has codim {k} but lies in {len(S)} facets {S}")

    # simpliciality: the interval above each face is boolean of rank codim.
    # A face above f lies in a subset of the m facets through f, so 2^m of
    # them with distinct facet sets make g -> facets(g) a bijection onto
    # those subsets.  As that holds above f too, facets(g2) <= facets(g1)
    # forces g1 <= g2: the interval is the boolean lattice on facets(f).
    # Covers step one codim, so then m = k: niceness follows, and 2^m = 2^k.
    # A face whose facet set no other face has counts once; facet sets are
    # compared only among the faces above f in `shared`.  Each facet mask
    # is hashed once, to group the faces' indices by it.
    groups: dict[int, list[int]] = {}
    for i, f in enumerate(p._order):
        groups.setdefault(facet_mask[f], []).append(i)
    shared = sum(1 << i for group in groups.values() if len(group) > 1 for i in group)
    simplicial: list[str] = []
    for f in p.faces():
        size, m = up[f].bit_count(), facet_mask[f].bit_count()
        dup, sets = up[f] & shared, set()
        distinct = size - dup.bit_count()
        while dup:
            i = dup.bit_length() - 1
            sets.add(facet_mask[p._order[i]])
            dup ^= 1 << i
        distinct += len(sets)
        if not size == distinct == 2**m:
            simplicial.append(
                f"face {f}: {size} faces above it with {distinct} distinct "
                f"facet sets, wanted 2^{m}={2**m}"
            )
    return simplicial + nice


@kept
def vertex_findings(p: FacePoset) -> tuple[list[str], list[str]]:
    """The has_vertex and skeleton_connected findings of a sound poset:
    the faces below which no vertex lies, and those whose vertices form
    more than one component of their 1-skeleton, each in face order;
    ([], []) when p is not sound (`validate`).  Kept on p (`kept`).

    Covers step one codim, so every vertex and edge below a face of
    dimension >= 2 lies below one of its children: the face's 1-skeleton
    is the union of theirs, and its components, each a mask over the
    vertices (bit j for the j-th vertex), are theirs, merged where they
    share a vertex.  An edge joins its two ends; a degenerate one, which
    is not in `edges`, keeps the vertices it covers apart."""
    if validate(p):
        return [], []
    vbit = {v: 1 << j for j, v in enumerate(p.vertices())}
    edges = one_skeleton(p).edges
    comps: dict[str, list[int]] = {}
    for f in reversed(p._order):  # children first
        if f in vbit:
            comps[f] = [vbit[f]]
        elif f in edges:
            a, b = edges[f]
            comps[f] = [vbit[a] | vbit[b]]
        else:
            merged: list[int] = []
            seen = 0  # the vertices of merged
            for c in p.children(f):
                for comp in comps[c]:
                    if comp & seen:
                        for m in [m for m in merged if m & comp]:
                            merged.remove(m)
                            comp |= m
                    merged.append(comp)
                    seen |= comp
            comps[f] = merged
    return (
        [f"face {f} contains no vertex" for f in p._order if not comps[f]],
        [f"1-skeleton of face {f} is disconnected" for f in p._order if len(comps[f]) > 1],
    )


@kept
def fh_vectors(p: FacePoset) -> FHVector:
    """f- and h-vectors; h is read off the defining polynomial identity."""
    n = p.n
    fvec = tuple(len(p.faces_of_codim(i + 1)) for i in range(n))
    # sum_{i} h_i t^{n-i} = (t-1)^n + sum_{i>=1} f_{i-1} (t-1)^{n-i}
    coeffs = [0] * (n + 1)

    def add_tminus1_pow(k: int, scale: int) -> None:
        for j in range(k + 1):
            coeffs[j] += scale * comb(k, j) * (-1) ** (k - j)

    add_tminus1_pow(n, 1)
    for i in range(1, n + 1):
        add_tminus1_pow(n - i, fvec[i - 1])
    hvec = tuple(coeffs[n - i] for i in range(n + 1))
    return FHVector(fvec, hvec)


@kept
def one_skeleton(p: FacePoset) -> Skeleton:
    """Graph of vertices (codim-n faces) and edges (codim-(n-1) faces).

    Covers go up in codim, so the faces an edge covers are exactly the
    vertices under it.  Kept on p, so its mappings are read-only."""
    verts = tuple(p.vertices())
    edges: dict[str, tuple[str, str]] = {}
    degenerate: dict[str, tuple[str, ...]] = {}
    if p.n >= 1:
        for e in p.faces_of_codim(p.n - 1):
            evs = tuple(sorted(set(p.children(e))))
            if len(evs) == 2:
                edges[e] = (evs[0], evs[1])
            else:
                degenerate[e] = evs
    degree = {v: 0 for v in verts}
    for a, b in edges.values():
        degree[a] += 1
        degree[b] += 1
    n_valent = (
        bool(verts)
        and not degenerate
        and all(d == p.n for d in degree.values())
    )
    connected = count_components(verts, edges.values()) == 1
    return Skeleton(
        verts, MappingProxyType(edges), MappingProxyType(degenerate), n_valent, connected
    )


def gorenstein_quick_checks(p: FacePoset) -> GorensteinChecks:
    """Cheap necessary conditions for the dual complex to be a homology
    sphere: pseudo-manifold property and the Euler-characteristic identity
    (equivalent to h_n = 1)."""
    pseudo = p.n < 2 or not one_skeleton(p).degenerate_edges
    euler_ok = fh_vectors(p).h[p.n] == 1
    return GorensteinChecks(pseudo, euler_ok)


def order_complex(p: FacePoset) -> "CarrierComplex":
    """Cone over the order complex of the proper part, with carrier labels.

    Vertices are the proper faces of Q (canonical order) plus an apex.
    A chain f_k < ... < f_0 spans a simplex carried by f_0; adjoining the
    apex yields a simplex carried by Q.  For posets whose dual complex is
    a sphere this is a genuine triangulation of Q.  The tests build the
    quotient model on it as an oracle for the face-coset model of mode A.
    The simplices are listed in the same order on every run: by the top
    face of the chain, then depth first in face order.
    """
    from .complexes import CarrierComplex

    top = p.top()  # bit 0; proper face i has bit i + 1
    proper = p.faces()[1:]
    apex = len(proper)
    # the faces strictly below each proper face, in face order: a face's
    # codim exceeds that of every face above it, so a chain descending in
    # the poset ascends in index and is its own sorted vertex tuple
    below: list[list[int]] = [[] for _ in proper]
    for j, g in enumerate(proper):
        above = (p._up[g] >> 1) ^ (1 << j)
        while above:
            i = above.bit_length() - 1
            below[i].append(j)
            above ^= 1 << i
    simplices: dict[tuple[int, ...], str] = {(apex,): top}
    for i, f in enumerate(proper):
        stack = [(i,)]
        while stack:
            chain = stack.pop()
            simplices[chain] = f
            simplices[chain + (apex,)] = top
            stack.extend(chain + (j,) for j in reversed(below[chain[-1]]))
    return CarrierComplex(p, apex + 1, simplices)
