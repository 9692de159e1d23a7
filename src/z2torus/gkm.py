"""Equivariant cohomology via the GKM description, over GF(2).

Classes are tuples of polynomials in GF(2)[r_1..r_n], one per vertex,
with the difference across each edge divisible by the edge's axial
linear form alpha.  A polynomial is divisible by alpha iff it vanishes
when the pivot of alpha (its lowest variable) is replaced by the sum s
of alpha's other variables.  Over GF(2), Frobenius gives
s^e = prod over the bits 2^b of e of (sum of x_j^(2^b) over x_j in s),
so a monomial's image is a closed-form set of distinct monomials.

The graded dimensions of this module come from a flow-up basis when
one is found.  `flow_up_degrees` orders the vertices greedily from the
graph alone: a vertex v is placed once the up-face C_v (the component
through v of the edges whose form lies in the span of v's up-edge
forms) holds no placed vertex.  It is accepted only when its down-edge
forms are pairwise distinct and the class tau_v (the product of the
forms leaving C_v at each vertex of C_v, zero elsewhere) passes every
edge condition.  Then the module is free on the tau_v, and
dims[k] = sum over v of C(k - d_v + n - 1, n - 1), d_v being the number
of v's down-edges: no matrix is built.  When no vertex can be placed,
`eliminated_hilbert` ranks one GF(2) matrix per degree instead; it is
also the test oracle for the closed form.

The edge conditions of tau_v are checked on its factors, with no
polynomial built.  Mod a nonzero form alpha, GF(2)[r_1..r_n] is a
polynomial ring in n - 1 variables, a UFD whose only unit is 1, so two
products of forms other than 0 and alpha are congruent iff their
factors reduced mod alpha (one bit test each, `gf2.mod_line`) agree as
multisets.  Only the edges of C_v need that test, and an edge whose
ends' full form multisets agree mod its form passes it for every v
(`flow_up_degrees` says why).  So edges are tested once per graph
(`GkmGraph.congruent_edges`; on a graph from `axial_function` every
edge passes), and only the edges failing that test are tested again,
on tau_v.  On the 8-cube, `axial_function` and
`equivariant_hilbert(g, 16)` take 17-18 ms together on a 2-vCPU x86-64
VM (one fresh process each, 8 per side), against 41-45 ms in the same
run when every edge of each C_v was tested on tau_v; earlier runs
measured 66-84 ms when each edge solved its own nullspace and each
vertex tried built a subgroup of `Vec`s, and 0.24 s when each tau_v
was expanded into polynomials.  Polynomials remain for the public
membership test `satisfies_gkm`, the tests' oracle.

A polynomial is a frozenset of exponent tuples (coefficients are 0/1).
Monomials are ordered graded-lexicographically, largest first, fixed
once and for all.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from itertools import combinations_with_replacement
from math import comb

from .charfunc import GkmGraph
from .gf2 import Matrix, Vec, _rref_rows, lowest_bit, mod_line, reduce_by

Poly = frozenset  # of exponent tuples
# vertex -> (edge, other end, form bits) for each edge at it, edges sorted
Ends = dict[str, list[tuple[str, str, int]]]
# up-edge forms -> RREF rows and pivots of their span, and form -> in span?
Spans = dict[frozenset[int], tuple[list[int], list[int], dict[int, bool]]]


def poly_zero() -> Poly:
    return frozenset()


def monomials(n: int, k: int) -> list[tuple[int, ...]]:
    """Degree-k monomials in n variables, graded-lex, largest first."""
    if n == 0:
        return [()] if k == 0 else []
    mons = set()
    for picks in combinations_with_replacement(range(n), k):
        m = [0] * n
        for i in picks:
            m[i] += 1
        mons.add(tuple(m))
    return sorted(mons, reverse=True)


def _pivot_rest(alpha: Vec) -> tuple[int, list[int]]:
    """alpha's pivot (its lowest variable) and its other variables."""
    pivot = lowest_bit(alpha.bits)
    return pivot, [j for j in alpha.support() if j != pivot]


def _image(m: tuple[int, ...], pivot: int, rest: list[int]) -> list[tuple[int, ...]]:
    image = [m[:pivot] + (0,) + m[pivot + 1:]]
    e = m[pivot]
    while e:
        bit = e & -e
        e ^= bit
        image = [t[:j] + (t[j] + bit,) + t[j + 1:] for t in image for j in rest]
    return image


def substitute(m: tuple[int, ...], alpha: Vec) -> list[tuple[int, ...]]:
    """Image of the monomial m when alpha's pivot goes to the sum of its
    other variables: one monomial per way of handing each set bit of the
    pivot's exponent to one of those variables.  The images are distinct,
    so nothing cancels; none exist when alpha is a single variable."""
    return _image(m, *_pivot_rest(alpha))


def divisible_by(p: Poly, alpha: Vec) -> bool:
    pivot, rest = _pivot_rest(alpha)
    image: set[tuple[int, ...]] = set()
    for m in p:
        image.symmetric_difference_update(_image(m, pivot, rest))
    return not image


def satisfies_gkm(g: GkmGraph, cls: dict[str, Poly], edges: Iterable[str]) -> bool:
    """Does the vertex tuple satisfy the divisibility constraint of each
    of the given edges?  A vertex missing from cls carries 0."""
    zero = poly_zero()
    for e in edges:
        v, w = g.edges[e]
        if not divisible_by(cls.get(v, zero) ^ cls.get(w, zero), g.axial[e]):
            return False
    return True


def _certified_down_degree(
    g: GkmGraph, v: str, placed: dict[str, int], ends: Ends, spans: Spans,
    congruent: frozenset[str],
) -> int | None:
    """The number d_v of v's down-edges (those to placed vertices) if v may
    come next, else None.  Checked: v's up-face C_v holds no placed
    vertex; the down-edge forms are nonzero and pairwise distinct; tau_v
    meets the edge condition on each edge of C_v outside `congruent`
    (on the others it holds, `flow_up_degrees` says why)."""
    down: list[int] = []
    up: set[int] = set()
    for _, u, b in ends.get(v, ()):
        if u in placed:
            down.append(b)
        else:
            up.add(b)
    if len(set(down)) < len(down) or 0 in down:
        return None
    key = frozenset(up)
    if key not in spans:
        spans[key] = (*_rref_rows(up), {})
    rows, pivots, in_span = spans[key]
    face = {v: None}  # the vertices of C_v, v first
    unsure: set[str] = set()  # edges of C_v outside `congruent`
    stack = [v]
    while stack:
        w = stack.pop()
        for e, u, b in ends.get(w, ()):
            inside = in_span.get(b)
            if inside is None:
                inside = in_span[b] = reduce_by(rows, pivots, b) == 0
            if not inside:
                continue
            if u in placed:
                return None
            if e not in congruent:
                unsure.add(e)
            if u not in face:
                face[u] = None
                stack.append(u)
    if unsure:
        # at each vertex of C_v, the bits of tau_v's factors
        tau = {w: [b for _, _, b in ends.get(w, ()) if not in_span[b]] for w in face}
        if not _congruent_on(g, tau, unsure):
            return None
    return len(down)


def _congruent_on(g: GkmGraph, tau: dict[str, list[int]], edges: Iterable[str]) -> bool:
    """Does the class with the product of the forms tau[w] at each vertex w
    meet the edge condition on each of the edges?  The ends of each edge
    must be keys of tau, and no factor there may be 0 or the edge's form."""
    for e in edges:
        v, w = g.edges[e]
        a = g.axial[e].bits
        if mod_line(tau[v], a) != mod_line(tau[w], a):
            return False
    return True


def flow_up_degrees(g: GkmGraph) -> dict[str, int] | None:
    """Down-degree d_v of every vertex, in a certified flow-up order, or
    None when at some step no remaining vertex can be placed.  The graph
    is read once into `ends`, each vertex's edges as (edge, other end,
    form bits), and the span of a vertex's up-edge forms is reduced once
    per distinct set of them (`spans`), with a memo of the forms found
    in it: vertices with the same up-edge forms share both.

    Why the tau_v then give a basis of the GKM module M over
    R = GF(2)[r_1..r_n].  Each tau_v lies in M (every edge condition
    holds, see below), vanishes at the vertices placed before v (C_v holds none of
    them) and equals Pi_v, the product of v's down-edge forms, at v.  The
    edge conditions are homogeneous, so the degree-d_v part of tau_v lies
    in M too and still equals Pi_v at v; take that part (on a GKM graph
    it is all of tau_v).  Independence: in a vanishing combination, the
    first v with a nonzero coefficient c_v reads c_v * Pi_v = 0 at v, and
    Pi_v != 0.  Spanning: let f in M be homogeneous and vanish at every
    vertex before v.  Each down-edge of v leads to such a vertex, so its
    form divides f(v); the down-edge forms are distinct nonzero linear
    forms, hence pairwise coprime, so Pi_v divides f(v), and
    f - (f(v) / Pi_v) tau_v vanishes up to v included.  So M is free
    with one generator in degree d_v per vertex.

    Why comparing factors on the edges of C_v checks every edge
    condition of tau_v.  An edge with neither end in C_v has 0 at both.
    An edge e at a vertex w of C_v whose form is not in the span is not
    an edge of C_v, so alpha(e) is a factor of tau_v(w); at its other
    end tau_v is 0 or, inside C_v, has the factor alpha(e) too: both
    sides are 0 mod alpha(e).  On an edge of C_v, with form alpha in the
    span, both ends are products of forms outside the span, so none of
    them is alpha or 0.  Mod a nonzero alpha, substituting alpha's pivot
    maps GF(2)[r_1..r_n]/(alpha) onto a polynomial ring in n - 1
    variables, a UFD whose only unit is 1, and such a form b onto a
    nonzero, hence irreducible, linear form read off from b reduced mod
    alpha.  Two products of such forms are then equal iff their reduced
    factors agree as multisets, the test `_congruent_on` makes.  (Mod
    alpha = 0, equality of products, the same test.)

    Why the edges of C_v in `g.congruent_edges()` need no factor test.
    Let e = (x, y) be one, with form a, and S the span of v's up-edge
    forms, so a lies in S.  Reduction mod a sends a form b to b or
    b + a, so it keeps membership in S.  At each vertex of C_v the
    factors of tau_v are exactly the forms there outside S.  The full
    form multisets at x and y agree mod a; reduced, each splits into
    the reductions of its forms in S and of those outside S, so the
    parts outside S agree mod a too: tau_v passes the factor test on e.
    On a graph from `axial_function` every edge is congruent, and no
    edge is tested on any tau_v."""
    ends: Ends = {}
    for e in sorted(g.edges):
        a, b = g.edges[e]
        bits = g.axial[e].bits
        ends.setdefault(a, []).append((e, b, bits))
        if b != a:
            ends.setdefault(b, []).append((e, a, bits))
    spans: Spans = {}
    congruent = g.congruent_edges()
    placed: dict[str, int] = {}
    remaining = list(g.vertices)
    while remaining:
        for v in remaining:
            d = _certified_down_degree(g, v, placed, ends, spans, congruent)
            if d is not None:
                break
        else:
            return None
        remaining.remove(v)
        placed[v] = d
    return placed


def equivariant_hilbert(g: GkmGraph, max_deg: int) -> tuple[int, ...]:
    """dims[k] = dimension of the degree-k part of the GKM sheaf space:
    read off a certified flow-up basis, else found by elimination."""
    degrees = flow_up_degrees(g)
    if degrees is None:
        return eliminated_hilbert(g, max_deg)
    return _free_dims(g.n, Counter(degrees.values()), max_deg)


def eliminated_hilbert(g: GkmGraph, max_deg: int) -> tuple[int, ...]:
    """The same dims by ranking, in each degree, the edge conditions on
    vertex tuples of monomials: the fallback and the oracle."""
    n = g.n
    V = len(g.vertices)
    vindex = {v: i for i, v in enumerate(g.vertices)}
    dims = []
    for k in range(max_deg + 1):
        mons = monomials(n, k)
        M = len(mons)
        images: dict[Vec, list[list[tuple[int, ...]]]] = {}  # per form, per monomial
        rows: list[int] = []
        for e in sorted(g.edges):
            v, w = g.edges[e]
            alpha = g.axial[e]
            if alpha not in images:
                pivot, rest = _pivot_rest(alpha)
                images[alpha] = [_image(m, pivot, rest) for m in mons]
            per_target: dict[tuple[int, ...], int] = {}
            for mi, image in enumerate(images[alpha]):
                for t in image:
                    bits = per_target.get(t, 0)
                    bits ^= 1 << (vindex[v] * M + mi)
                    bits ^= 1 << (vindex[w] * M + mi)
                    per_target[t] = bits
            rows.extend(b for b in per_target.values() if b)
        rank = Matrix.from_rows(rows, V * M).rank() if rows else 0
        dims.append(V * M - rank)
    return tuple(dims)


def _free_dims(n: int, gens: dict[int, int], max_deg: int) -> tuple[int, ...]:
    """Graded dimensions of the free GF(2)[r_1..r_n]-module with gens[i]
    generators in degree i."""
    def count(k: int) -> int:  # degree-k monomials in n variables
        if k < 0:
            return 0
        return comb(k + n - 1, n - 1) if n else int(k == 0)

    return tuple(sum(c * count(k - i) for i, c in gens.items()) for k in range(max_deg + 1))


def face_ring_hilbert(h: tuple[int, ...], max_deg: int) -> tuple[int, ...]:
    """Graded dimensions of a ring with Hilbert series sum(h_i t^i)/(1-t)^n."""
    return _free_dims(len(h) - 1, dict(enumerate(h)), max_deg)
