"""Polynomials, the GKM membership test, Thom classes of faces and the
face-ring relations they satisfy.

Test oracles for the GKM layer: a vertex tuple of polynomials is a
class when the difference across each edge is divisible by the edge's
axial form (`satisfies_gkm`); each face carries the class whose
restriction to a vertex of the face is the product of the axial forms
of the edges leaving it, and these classes multiply as the face ring
says.  Checked vertexwise, as polynomials.  A polynomial is a frozenset
of exponent tuples (coefficients are 0/1).
"""

from collections.abc import Container, Iterable
from dataclasses import dataclass, field

from z2torus.charfunc import CharFunction, GkmGraph, axial_function
from z2torus.errors import InputError
from z2torus.gf2 import Vec
from z2torus.gkm import _image, _pivot_rest
from z2torus.poset import FacePoset

Poly = frozenset  # of exponent tuples


def edges_at(g: GkmGraph, v: str) -> tuple[str, ...]:
    """The edges at v, sorted; none when v is not a vertex."""
    if v not in g.vertices:
        return ()
    return tuple(e for e, _, _ in g.ends[g.vertices.index(v)])


def poly_zero() -> Poly:
    return frozenset()


def substitute(m: tuple[int, ...], alpha: Vec) -> list[tuple[int, ...]]:
    """Image of the monomial m when alpha's pivot goes to the sum of its
    other variables (`gkm._image`); none exist when alpha is a single
    variable and the pivot's exponent is not 0."""
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


def poly_one(n: int) -> Poly:
    return frozenset({(0,) * n})


def poly_var(n: int, i: int) -> Poly:
    return frozenset({tuple(1 if j == i else 0 for j in range(n))})


def poly_linear(v: Vec) -> Poly:
    """The linear form with coefficient vector v."""
    return frozenset(tuple(1 if j == i else 0 for j in range(v.n)) for i in v.support())


def poly_mul(p: Poly, q: Poly) -> Poly:
    acc: set[tuple[int, ...]] = set()
    for m1 in p:
        for m2 in q:
            m = tuple(a + b for a, b in zip(m1, m2))
            acc.symmetric_difference_update({m})
    return frozenset(acc)


def thom_products(g: GkmGraph, face: Iterable[str], inside: Container[str]) -> dict[str, Poly]:
    """A face's Thom-type class at its vertices: at each vertex w of the
    face, the product of the axial forms of the edges at w that leave it,
    those not `inside` the face."""
    out: dict[str, Poly] = {}
    for w in face:
        poly = poly_one(g.n)
        for e in edges_at(g, w):
            if e not in inside:
                poly = poly_mul(poly, poly_linear(g.axial[e]))
        out[w] = poly
    return out


def thom_restriction(
    p: FacePoset, lam: CharFunction, f: str, graph: GkmGraph | None = None
) -> dict[str, Poly]:
    """Vertex restrictions of the equivariant class carried by a face:
    at a vertex of f, the product of the axial forms of the edges
    leaving f; zero at vertices outside f."""
    if graph is None:
        graph = axial_function(p, lam)
    if f not in p.codims:
        raise InputError(f"unknown face {f!r}")
    k = p.codim(f)
    inside = {e for e in graph.edges if p.leq(e, f)}
    face = [v for v in graph.vertices if p.leq(v, f)]
    for v in face:
        transverse = sum(e not in inside for e in edges_at(graph, v))
        if transverse != k:
            raise InputError(f"vertex {v} of {f} has {transverse} transverse edges, wanted {k}")
    return {v: poly_zero() for v in graph.vertices} | thom_products(graph, face, inside)


@dataclass
class RelationsReport:
    product_failures: list[str] = field(default_factory=list)
    linearity_failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.product_failures or self.linearity_failures)


def join(p: FacePoset, f1: str, f2: str) -> str | None:
    """Unique minimal face containing both, if the meet below is nonempty."""
    cands = p._up[f1] & p._up[f2]
    higher = 0  # the faces strictly above some candidate
    for i, g in enumerate(p._order[:cands.bit_length()]):
        bit = 1 << i  # bit i stands for p._order[i]
        if cands & bit:
            higher |= p._up[g] ^ bit
    minimal = cands & ~higher
    if minimal.bit_count() != 1:
        return None
    return p._order[minimal.bit_length() - 1]


def meet_components(p: FacePoset, f1: str, f2: str) -> list[str]:
    """Maximal common subfaces (the components of the intersection)."""
    i1, i2 = p._order.index(f1), p._order.index(f2)
    both = 1 << i1 | 1 << i2  # bit i stands for p._order[i]
    # a face comes after the faces above it in the face order
    last = max(i1, i2)
    common = [(1 << i, g) for i, g in enumerate(p._order[last:], last) if p._up[g] & both == both]
    held = sum(bit for bit, _ in common)
    return [g for bit, g in common if p._up[g] & held == bit]


def check_face_ring_relations(p: FacePoset, lam: CharFunction) -> RelationsReport:
    """Verify, vertexwise in the restriction image, the face-ring product
    relation for every pair of faces and linearity of the degree-one part."""
    graph = axial_function(p, lam)
    rep = RelationsReport()
    faces = p.faces()
    thom = {f: thom_restriction(p, lam, f, graph) for f in faces}
    for i, f1 in enumerate(faces):
        for f2 in faces[i:]:
            meet = meet_components(p, f1, f2)
            top = join(p, f1, f2) if meet else None
            if meet and top is None:
                rep.product_failures.append(
                    f"faces {f1}, {f2} meet but have no unique minimal common face"
                )
                continue
            for v in graph.vertices:
                lhs = poly_mul(thom[f1][v], thom[f2][v])
                if not meet:
                    rhs = poly_zero()
                else:
                    acc = poly_zero()
                    for g in meet:
                        acc ^= thom[g][v]
                    rhs = poly_mul(thom[top][v], acc)
                if lhs != rhs:
                    rep.product_failures.append(
                        f"tau({f1})*tau({f2}) != tau(join)*sum at vertex {v}"
                    )
    for j in range(p.n):
        t = poly_var(p.n, j)
        for v in graph.vertices:
            acc = poly_zero()
            for F in p.facets():
                if lam.vec(F).bits >> j & 1:
                    acc ^= thom[F][v]
            if acc != t:
                rep.linearity_failures.append(
                    f"sum_F <r_{j + 1}, lambda(F)> tau(F) != r_{j + 1} at vertex {v}"
                )
    return rep
