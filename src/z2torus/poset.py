"""Face posets of nice manifolds with corners, given as combinatorial data.

A poset is a set of faces, each with a codimension in 0..n, plus cover
relations (child, parent) meaning child is a proper subface of parent
with codimension exactly one higher.  Everything else (containment,
facet sets, skeleta, the order complex) is derived from that.

Faces are canonically ordered by (codim, id) throughout, so every
derived object is reproducible bit for bit.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field
from math import comb
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .complexes import CarrierComplex


class FacePoset:
    """Graded face poset with containment closure precomputed."""

    def __init__(self, n: int, codims: dict[str, int], covers: set[tuple[str, str]]):
        if n < 0:
            raise ValueError("negative dimension")
        self.n = n
        self.codims = dict(codims)
        for f, k in self.codims.items():
            if not 0 <= k <= n:
                raise ValueError(f"face {f!r} has codim {k} outside 0..{n}")
        for c, p in covers:
            if c not in self.codims or p not in self.codims:
                raise ValueError(f"cover ({c!r}, {p!r}) names an unknown face")
            if self.codims[c] <= self.codims[p]:
                raise ValueError(f"cover ({c!r}, {p!r}) does not go up in codim")
        self.covers = frozenset(covers)
        self._parents: dict[str, list[str]] = {f: [] for f in self.codims}
        self._children: dict[str, list[str]] = {f: [] for f in self.codims}
        for c, p in sorted(self.covers):
            self._parents[c].append(p)
            self._children[p].append(c)
        self._above = self._closure(self._parents)
        self._below = self._closure(self._children)

    def _closure(self, adj: dict[str, list[str]]) -> dict[str, frozenset[str]]:
        memo: dict[str, frozenset[str]] = {}

        def reach(f: str) -> frozenset[str]:
            if f not in memo:
                acc = {f}
                for g in adj[f]:
                    acc |= reach(g)
                memo[f] = frozenset(acc)
            return memo[f]

        # codim order keeps the recursion shallow
        for f in sorted(self.codims, key=lambda x: self.codims[x]):
            reach(f)
        return memo

    # -- basic queries -------------------------------------------------

    def faces(self) -> list[str]:
        return sorted(self.codims, key=self.face_key)

    def face_key(self, f: str) -> tuple[int, str]:
        return (self.codims[f], f)

    def codim(self, f: str) -> int:
        return self.codims[f]

    def dim_face(self, f: str) -> int:
        return self.n - self.codims[f]

    def faces_of_codim(self, k: int) -> list[str]:
        return sorted((f for f, c in self.codims.items() if c == k))

    def facets(self) -> list[str]:
        return self.faces_of_codim(1)

    def vertices(self) -> list[str]:
        return self.faces_of_codim(self.n)

    def above(self, f: str) -> frozenset[str]:
        """All faces containing f, including f itself."""
        return self._above[f]

    def below(self, f: str) -> frozenset[str]:
        """All faces contained in f, including f itself."""
        return self._below[f]

    def children(self, f: str) -> list[str]:
        """The faces f covers: its faces of one dimension less."""
        return self._children[f]

    def leq(self, f: str, g: str) -> bool:
        """True iff face f is contained in face g."""
        return g in self._above[f]

    def facets_containing(self, f: str) -> list[str]:
        return sorted(F for F in self._above[f] if self.codims[F] == 1)

    def top(self) -> str:
        tops = self.faces_of_codim(0)
        if len(tops) != 1:
            raise ValueError(f"poset has {len(tops)} codim-0 faces, wanted one")
        return tops[0]

    def restrict(self, f: str) -> "FacePoset":
        """Face poset of the face f itself, regraded so f has codim 0."""
        k = self.codims[f]
        keep = self._below[f]
        codims = {g: self.codims[g] - k for g in keep}
        covers = {(c, p) for (c, p) in self.covers if c in keep and p in keep}
        return FacePoset(self.n - k, codims, covers)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FacePoset)
            and self.n == other.n
            and self.codims == other.codims
            and self.covers == other.covers
        )

    def __repr__(self) -> str:
        return f"FacePoset(n={self.n}, faces={len(self.codims)})"


@dataclass
class PosetReport:
    """Validation findings; empty lists mean the check passed."""

    structural: list[str] = field(default_factory=list)
    simplicial: list[str] = field(default_factory=list)
    nice: list[str] = field(default_factory=list)
    has_vertex: list[str] = field(default_factory=list)
    skeleton_connected: list[str] = field(default_factory=list)

    @property
    def sound(self) -> bool:
        """Structure good enough for every downstream computation."""
        return not (self.structural or self.simplicial or self.nice)

    @property
    def ok(self) -> bool:
        return self.sound and not (self.has_vertex or self.skeleton_connected)


@dataclass(frozen=True)
class FHVector:
    f: tuple[int, ...]
    h: tuple[int, ...]


@dataclass(frozen=True)
class Skeleton:
    """1-skeleton: vertices, edges keyed by face id, and health flags."""

    vertices: tuple[str, ...]
    edges: dict[str, tuple[str, str]]
    degenerate_edges: dict[str, tuple[str, ...]]
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


def validate(p: FacePoset) -> PosetReport:
    """Check top element, grading, boolean upper intervals, niceness,
    presence of vertices, and connectivity of every face's 1-skeleton."""
    rep = PosetReport()
    tops = p.faces_of_codim(0)
    if len(tops) != 1:
        rep.structural.append(f"expected exactly one codim-0 face, found {tops}")
    for c, par in sorted(p.covers):
        if p.codims[c] != p.codims[par] + 1:
            rep.structural.append(
                f"cover ({c}, {par}) jumps codim {p.codims[par]} -> {p.codims[c]}"
            )
    if len(tops) == 1:
        top = tops[0]
        for f in p.faces():
            if top not in p.above(f):
                rep.structural.append(f"face {f} is not below the top face {top}")
    if rep.structural:
        return rep

    facet_sets = {f: frozenset(g for g in p.above(f) if p.codims[g] == 1) for f in p.codims}

    # niceness: a codim-k face lies in exactly k facets
    for f in p.faces():
        k = p.codims[f]
        if len(facet_sets[f]) != k:
            S = sorted(facet_sets[f])
            rep.nice.append(f"face {f} has codim {k} but lies in {len(S)} facets {S}")

    # simpliciality: the interval above each face is boolean of rank codim.
    # A face above f lies in a subset of the m facets through f, so 2^m of
    # them with distinct facet sets make g -> facets(g) a bijection onto
    # those subsets.  As that holds above f too, facets(g2) <= facets(g1)
    # forces g1 <= g2: the interval is the boolean lattice on facets(f).
    # Covers step one codim, so then m = k: niceness follows, and 2^m = 2^k.
    for f in p.faces():
        up = p.above(f)
        m = len(facet_sets[f])
        distinct = len({facet_sets[g] for g in up})
        if not len(up) == distinct == 2**m:
            rep.simplicial.append(
                f"face {f}: {len(up)} faces above it with {distinct} distinct "
                f"facet sets, wanted 2^{m}={2**m}"
            )

    verts = set(p.vertices())
    for f in p.faces():
        if not (p.below(f) & verts):
            rep.has_vertex.append(f"face {f} contains no vertex")

    edges = one_skeleton(p).edges
    for f in p.faces():
        below = p.below(f)
        fverts = below & verts
        if fverts and count_components(fverts, (edges[e] for e in below if e in edges)) != 1:
            rep.skeleton_connected.append(f"1-skeleton of face {f} is disconnected")
    return rep


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


def one_skeleton(p: FacePoset) -> Skeleton:
    """Graph of vertices (codim-n faces) and edges (codim-(n-1) faces)."""
    verts = tuple(p.vertices())
    vset = set(verts)
    edges: dict[str, tuple[str, str]] = {}
    degenerate: dict[str, tuple[str, ...]] = {}
    if p.n >= 1:
        for e in p.faces_of_codim(p.n - 1):
            evs = tuple(sorted(p.below(e) & vset))
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
    return Skeleton(verts, edges, degenerate, n_valent, connected)


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
    """
    from .complexes import CarrierComplex

    top = p.top()
    proper = [f for f in p.faces() if p.codims[f] > 0]
    index = {f: i for i, f in enumerate(proper)}
    apex = len(proper)

    chains: list[list[str]] = []
    by_largest: dict[str, list[list[str]]] = {f: [[f]] for f in proper}
    # extend chains downward; process largest faces first
    for f in proper:
        below = sorted((g for g in p.below(f) if g != f), key=p.face_key)
        grown: list[list[str]] = [[f]]
        frontier = [[f]]
        while frontier:
            nxt = []
            for ch in frontier:
                last = ch[-1]
                for g in below:
                    if p.leq(g, last) and g != last:
                        nxt.append(ch + [g])
            grown.extend(nxt)
            frontier = nxt
        by_largest[f] = grown
    simplices: dict[tuple[int, ...], str] = {(apex,): top}
    for f in proper:
        for ch in by_largest[f]:
            sx = tuple(sorted(index[g] for g in ch))
            simplices[sx] = f
            simplices[tuple(sorted(sx + (apex,)))] = top
    return CarrierComplex(p, apex + 1, simplices, vertex_labels=proper + ["*"])
