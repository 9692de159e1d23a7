"""Graded dimensions, Thom restrictions, and the interface relations."""

import random
from collections import Counter
from math import comb

import pytest
import sympy
from conftest import above_oracle, below_oracle, change_basis, nullspace
from conftest import cut_chain as seeded_cut_chain
from gkm_graphs import hand_built, incongruent_edges, named_flow_up_degrees
from hypothesis import given, settings
from hypothesis import strategies as st
from restrictions import Subgroup, coset_rep
from thom_classes import (
    check_face_ring_relations,
    divisible_by,
    edges_at,
    join,
    meet_components,
    poly_linear,
    poly_mul,
    poly_one,
    poly_var,
    poly_zero,
    satisfies_gkm,
    substitute,
    thom_products,
    thom_restriction,
)

from z2torus import charfunc, corpus, gkm
from z2torus.blowup import cut_face
from z2torus.charfunc import CharFunction, GkmGraph, axial_function, validate_lambda
from z2torus.errors import InputError, PreconditionError
from z2torus.gf2 import Matrix, Vec, bit_indices
from z2torus.gkm import (
    eliminated_hilbert,
    equivariant_hilbert,
    face_ring_hilbert,
    flow_up_degrees,
    monomials,
)
from z2torus.model import formality_verdict
from z2torus.poset import fh_vectors, one_skeleton


def graph_of(inst):
    return axial_function(inst.poset, inst.lam)


class TestPolynomials:
    def test_mod_2_squares(self):
        t1 = poly_var(2, 0)
        assert t1 ^ t1 == poly_zero()
        assert poly_linear(2, 0b11) == frozenset({(1, 0), (0, 1)})

    def test_monomials_count(self):
        assert len(monomials(3, 4)) == 15
        assert monomials(1, 2) == [(2,)]
        assert monomials(2, 1) == [(1, 0), (0, 1)]

    def test_divisibility(self):
        alpha = 0b11
        line = poly_linear(2, alpha)
        assert divisible_by(line, alpha)
        sq = frozenset({(2, 0), (0, 2)})  # (t1 + t2)^2
        assert divisible_by(sq, alpha)
        assert not divisible_by(poly_var(2, 0), alpha)
        assert divisible_by(poly_zero(), alpha)


@st.composite
def form_and_poly(draw, max_n=4, max_deg=6):
    """The number n of variables, a nonzero linear form alpha in them and a
    polynomial of degree <= max_deg, half the time a multiple alpha*q so
    that both verdicts occur."""
    n = draw(st.integers(1, max_n))
    alpha = draw(st.integers(1, (1 << n) - 1))
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(n)])
    if draw(st.booleans()):
        mons = exps.filter(lambda m: sum(m) < max_deg)
        q = draw(st.frozensets(mons, min_size=1, max_size=6))
        return n, alpha, poly_mul(poly_linear(n, alpha), q)
    mons = exps.filter(lambda m: sum(m) <= max_deg)
    return n, alpha, draw(st.frozensets(mons, min_size=1, max_size=6))


def sympy_divides(p, n, alpha):
    """Remainder of P on division by A; {A} is a Groebner basis of (A).
    (`Poly.div` over GF(2) raises PolynomialDivisionFailed on some inputs,
    e.g. x0^3 by x0 + x1 + x2 in four variables, so it is not used.)"""
    xs = sympy.symbols(f"x0:{n}")
    P = sum((sympy.prod(x**e for x, e in zip(xs, m)) for m in p), sympy.Integer(0))
    A = sum(xs[j] for j in bit_indices(alpha))
    return sympy.reduced(P, [A], *xs, modulus=2)[1] == 0


def substitute_by_expansion(m, alpha):
    """Reference: multiply out (sum of alpha's other variables)^e with
    poly_mul, alpha's highest variable being the one replaced."""
    pivot = alpha.bit_length() - 1
    rest = poly_linear(len(m), alpha) ^ poly_var(len(m), pivot)
    out = frozenset({m[:pivot] + (0,) + m[pivot + 1 :]})
    for _ in range(m[pivot]):
        out = poly_mul(out, rest)
    return out


class TestSubstitution:
    @settings(deadline=None, max_examples=150)
    @given(form_and_poly())
    def test_divisibility_matches_sympy(self, case):
        n, alpha, p = case
        assert divisible_by(p, alpha) == sympy_divides(p, n, alpha)

    @settings(deadline=None, max_examples=300)
    @given(form_and_poly(max_n=5, max_deg=9))
    def test_closed_form_matches_the_expansion(self, case):
        _, alpha, p = case
        for m in p:
            image = substitute(m, alpha)
            assert len(image) == len(set(image))
            assert frozenset(image) == substitute_by_expansion(m, alpha)

    def test_single_variable_kills_its_pivot(self):
        alpha = 1 << 1
        assert substitute((2, 1, 0), alpha) == []
        assert substitute((2, 0, 5), alpha) == [(2, 0, 5)]


def torus_series(n, max_deg):
    """Coefficients of ((1 + t) / (1 - t))^n, by repeated convolution."""
    base = [1] + [2] * max_deg
    out = [1] + [0] * max_deg
    for _ in range(n):
        out = [sum(out[i] * base[k - i] for i in range(k + 1)) for k in range(max_deg + 1)]
    return tuple(out)


class TestEquivariantHilbert:
    def test_triangle_oracle(self):
        assert equivariant_hilbert(graph_of(corpus.triangle()), 3) == (1, 3, 6, 9)

    def test_square_torus_oracle(self):
        assert equivariant_hilbert(graph_of(corpus.square_torus()), 2) == (1, 4, 8)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_real_torus_matches_binomial_face_ring(self, n):
        h = tuple(comb(n, i) for i in range(n + 1))
        g = graph_of(corpus.ncube(n))
        # elimination would need gigabytes from n = 6 on: fail fast instead
        assert flow_up_degrees(g) is not None
        eq = equivariant_hilbert(g, 2 * n)
        assert eq == face_ring_hilbert(h, 2 * n) == torus_series(n, 2 * n)

    def test_degree_zero_is_one_for_connected_graphs(self):
        for name in ("triangle", "square_torus", "cube", "segment", "bigon"):
            assert equivariant_hilbert(graph_of(corpus.BUILDERS[name]()), 0) == (1,)


def has_graph(inst) -> bool:
    """Does the instance pass `axial_function`'s precondition, a connected
    n-valent 1-skeleton?  Read off the skeleton, with no form solved: a
    fault in the forms then fails the tests that build them, not the
    collection of this module."""
    sk = one_skeleton(inst.poset)
    return sk.n_valent and sk.connected


FLOW_SWEEP = {name: b for name, b in corpus.BUILDERS.items() if has_graph(b())}
FLOW_SWEEP.update({f"ncube({n})": lambda n=n: corpus.ncube(n) for n in (1, 2, 3, 4)})


@st.composite
def cut_chain(draw):
    """The poset and labels of a triangle, square torus, cube or 4-cube
    after one to three cuts of drawn faces."""
    build = draw(st.sampled_from(
        [corpus.triangle, corpus.square_torus, corpus.cube, lambda: corpus.ncube(4)]
    ))
    inst = build()
    p, lam = inst.poset, inst.lam
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        cuttable = [f for f in p.faces() if p.codim(f) >= 2]
        cut = cut_face(p, lam, draw(st.sampled_from(cuttable)))
        p, lam = cut.poset, cut.lam
    return p, lam


@st.composite
def labelled_multigraph(draw):
    """Up to 5 vertices, up to 8 edges without loops, nonzero forms, n <= 3."""
    n = draw(st.integers(1, 3))
    V = draw(st.integers(1, 5))
    ends = st.tuples(st.integers(0, V - 1), st.integers(0, V - 1)).filter(
        lambda ab: ab[0] != ab[1]
    )
    pairs = draw(st.lists(ends, max_size=8))
    forms = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=len(pairs),
                          max_size=len(pairs)))
    return multigraph(n, V, pairs, forms)


def multigraph(n, V, pairs, forms):
    """Vertices v0..v{V-1}, edge ei joining pairs[i] with form forms[i]."""
    edges = {f"e{i}": (f"v{a}", f"v{b}") for i, (a, b) in enumerate(pairs)}
    axial = {f"e{i}": form for i, form in enumerate(forms)}
    return hand_built(n, tuple(f"v{i}" for i in range(V)), edges, axial)


def assert_matches_elimination(g, max_deg):
    assert flow_up_degrees(g) is not None
    assert equivariant_hilbert(g, max_deg) == eliminated_hilbert(g, max_deg)


def kalai_h(g):
    """#{v : d_v = i} for i = 0..n, read off the certified order."""
    count = Counter(flow_up_degrees(g).values())
    return tuple(count[i] for i in range(g.n + 1))


class TestFlowUp:
    @pytest.mark.parametrize("name", list(FLOW_SWEEP))
    def test_dims_match_elimination(self, name):
        g = graph_of(FLOW_SWEEP[name]())
        assert_matches_elimination(g, 2 * g.n)

    @pytest.mark.parametrize("name", list(FLOW_SWEEP))
    def test_down_degrees_count_the_h_vector(self, name):
        inst = FLOW_SWEEP[name]()
        assert kalai_h(graph_of(inst)) == fh_vectors(inst.poset).h

    @settings(max_examples=40, deadline=None)
    @given(cut_chain())
    def test_cut_chains(self, cut):
        p, lam = cut
        g = axial_function(p, lam)
        assert_matches_elimination(g, min(2 * p.n, 6))
        assert kalai_h(g) == fh_vectors(p).h

    def test_repeated_form_falls_back_to_elimination(self):
        """Two vertices joined by two edges with one form: b's down-edge
        forms coincide, so no order is certified.  The module is
        {(f, g) : x0 | f - g}, of dimension (k + 1) + k in degree k; a
        certificate that skipped the distinctness check would give 2k."""
        x0 = Vec.from_string("10").bits
        g = hand_built(2, ("a", "b"), {"e1": ("a", "b"), "e2": ("a", "b")}, {"e1": x0, "e2": x0})
        assert flow_up_degrees(g) is None
        want = tuple(2 * k + 1 for k in range(7))
        assert eliminated_hilbert(g, 6) == want
        assert equivariant_hilbert(g, 6) == want

    @settings(max_examples=300, deadline=None)
    @given(labelled_multigraph())
    def test_any_labelled_graph_matches_elimination(self, g):
        """The certificate is sound on any multigraph with nonzero forms,
        GKM or not: whichever path runs, the dims are elimination's."""
        assert equivariant_hilbert(g, 4) == eliminated_hilbert(g, 4)

    def test_failed_edge_condition_falls_back(self):
        """v0 may be placed with tau = 1, and v2 with tau = x1 at v2.  v1
        and v3 span each other's up-face, joined by e3 of form x0 + x1,
        where tau is x0 at v1 and x1 + x2 at v3: not congruent mod
        x0 + x1.  No edge is congruent, so no order is certified; the order
        v0, v1, v2, v3, with no edge checked, would claim dims (1, 5, 13, ...)."""
        forms = {"e0": "100", "e1": "011", "e2": "010", "e3": "110"}
        edges = {"e0": ("v0", "v1"), "e1": ("v0", "v3"), "e2": ("v0", "v2"), "e3": ("v1", "v3")}
        g = hand_built(3, ("v0", "v1", "v2", "v3"), edges,
                       {e: Vec.from_string(f).bits for e, f in forms.items()})
        assert flow_up_degrees(g) is None
        assert equivariant_hilbert(g, 4) == eliminated_hilbert(g, 4) == (1, 4, 12, 24, 40)

    def test_edited_cube_falls_back_to_elimination(self):
        """The cube with EX0Y0 labelled y + z, built anew: its edges at X0Y0
        are incongruent, so no order is certified, and the dims are
        elimination's."""
        g = graph_of(corpus.cube())
        edited = hand_built(g.n, g.vertices, g.edges, g.axial | {"EX0Y0": Vec.from_string("011").bits})
        assert edited.incongruent
        assert flow_up_degrees(edited) is None
        assert equivariant_hilbert(edited, 4) == eliminated_hilbert(edited, 4) == (1, 5, 17, 37, 65)

    def test_edges_at_is_the_sorted_scan(self):
        g = graph_of(corpus.cut_cube_edge())
        for v in g.vertices:
            assert list(edges_at(g, v)) == sorted(e for e, (a, b) in g.edges.items() if v in (a, b))
        assert edges_at(g, "nope") == ()


def up_face(g, v, placed):
    """The vertices and the edges of C_v, v's up-face when the vertices
    `placed` come before it, found with a `Subgroup` per vertex."""
    ups = [g.axial[e] for e in edges_at(g, v) if other_end(g, e, v) not in placed]
    span = Subgroup(g.n, [Vec(form, g.n) for form in ups])
    face, inside, stack = {v}, set(), [v]
    while stack:
        w = stack.pop()
        for e in edges_at(g, w):
            if span.contains(Vec(g.axial[e], g.n)):
                inside.add(e)
                u = other_end(g, e, w)
                if u not in face:
                    face.add(u)
                    stack.append(u)
    return face, inside


def other_end(g, e, v):
    a, b = g.edges[e]
    return b if a == v else a


def polynomial_degrees(g):
    """`flow_up_degrees` with its congruence gate replaced by tau_v's edge
    conditions, tested on polynomials: v is placed when C_v holds no
    placed vertex, its down-edge forms are distinct and nonzero, and
    `thom_products` on C_v passes `satisfies_gkm` on every edge.  The
    oracle for the certificate."""
    placed = {}
    remaining = list(g.vertices)
    while remaining:
        for v in remaining:
            down = [g.axial[e] for e in edges_at(g, v) if other_end(g, e, v) in placed]
            if len(set(down)) < len(down) or 0 in down:
                continue
            face, inside = up_face(g, v, placed)
            if not face & placed.keys() and satisfies_gkm(g, thom_products(g, face, inside), g.edges):
                break
        else:
            return None
        remaining.remove(v)
        placed[v] = len(down)
    return placed


def assert_matches_polynomials(g):
    """`flow_up_degrees(g)` is `polynomial_degrees(g)`: the same dict in
    the same order, or None.  Returns it."""
    got, want = flow_up_degrees(g), polynomial_degrees(g)
    assert got == want and (got is None or list(got) == list(want))
    return got


def products(g, tau):
    """The class with, at each vertex w, the product of the forms tau[w]."""
    out = {}
    for w, factors in tau.items():
        poly = poly_one(g.n)
        for form in factors:
            poly = poly_mul(poly, poly_linear(g.n, form))
        out[w] = poly
    return out


def spoiled(g, tau, face_edges):
    """Copies of tau with the first factor b at one vertex w made b + alpha(e),
    e the first edge of C_v at w: still congruent across e, not always
    across w's other edges of C_v."""
    for w, factors in tau.items():
        at_w = [e for e in edges_at(g, w) if e in face_edges]
        if factors and at_w:
            yield tau | {w: [factors[0] ^ g.axial[at_w[0]], *factors[1:]]}


def incongruent_oracle(g):
    """The edges e across which the forms at the two ends differ as
    multisets of cosets of the line {0, alpha(e)}, each end's forms found
    by a scan of every edge."""
    out = []
    for e in sorted(g.edges):
        line = Subgroup(g.n, [Vec(g.axial[e], g.n)])
        cosets = [
            Counter(coset_rep(line, Vec(g.axial[f], g.n)) for f, ends in g.edges.items() if x in ends)
            for x in g.edges[e]
        ]
        if cosets[0] != cosets[1]:
            out.append(e)
    return tuple(out)


def seeded_multigraphs():
    """100 graphs shaped as `labelled_multigraph`'s, from a seeded generator."""
    rng = random.Random(0)
    for _ in range(100):
        n, V = rng.randint(1, 3), rng.randint(2, 5)
        pairs = [rng.sample(range(V), 2) for _ in range(rng.randint(0, 8))]
        forms = [rng.randint(1, (1 << n) - 1) for _ in pairs]
        yield multigraph(n, V, pairs, forms)


def failed_edge_graph():
    """The graph of `TestFlowUp.test_failed_edge_condition_falls_back`."""
    forms = {"e0": "100", "e1": "011", "e2": "010", "e3": "110"}
    edges = {"e0": ("v0", "v1"), "e1": ("v0", "v3"), "e2": ("v0", "v2"), "e3": ("v1", "v3")}
    return hand_built(3, ("v0", "v1", "v2", "v3"), edges,
                      {e: Vec.from_string(f).bits for e, f in forms.items()})


class TestFactorCertificate:
    """The certificate's claim about tau_v, the product of the forms
    leaving C_v: on a graph with no incongruent edge, tau_v multiplied out
    meets every edge condition.  So `flow_up_degrees` gives the order of
    `polynomial_degrees`, which tests those conditions on polynomials."""

    @pytest.mark.parametrize("name", list(FLOW_SWEEP))
    def test_sweep(self, name):
        assert assert_matches_polynomials(graph_of(FLOW_SWEEP[name]())) is not None

    def test_sweep_sees_both_verdicts_on_spoiled_classes(self):
        """The polynomial test can fail: copies of each certified tau_v with
        one factor changed meet the edge conditions of C_v or not."""
        verdicts = Counter()
        for build in FLOW_SWEEP.values():
            g = graph_of(build())
            placed = set()
            for v in flow_up_degrees(g):
                face, inside = up_face(g, v, placed)
                tau = {
                    w: [g.axial[e] for e in edges_at(g, w) if e not in inside] for w in face
                }
                assert satisfies_gkm(g, products(g, tau), g.edges)
                for other in spoiled(g, tau, inside):
                    verdicts[satisfies_gkm(g, products(g, other), inside)] += 1
                placed.add(v)
        assert verdicts[True] and verdicts[False]

    @settings(max_examples=40, deadline=None)
    @given(cut_chain())
    def test_cut_chains(self, cut):
        assert assert_matches_polynomials(axial_function(*cut)) is not None

    @settings(max_examples=300, deadline=None)
    @given(labelled_multigraph())
    def test_labelled_multigraphs(self, g):
        if not g.incongruent:
            assert_matches_polynomials(g)

    def test_seeded_multigraphs_see_both_verdicts(self):
        """Among the graphs with no incongruent edge, some are certified
        and some are not, each as the polynomials say."""
        verdicts = Counter()
        for g in seeded_multigraphs():
            if not g.incongruent:
                verdicts[assert_matches_polynomials(g) is not None] += 1
        assert verdicts[True] and verdicts[False]

    def test_rejections_of_the_failed_edge_graph(self):
        """No edge is congruent, and the polynomials agree that no order
        exists: after v0 (tau = 1 on the whole graph) and v2, v1 and v3
        span each other's up-face, and tau fails the condition on e3."""
        g = failed_edge_graph()
        assert flow_up_degrees(g) is None and polynomial_degrees(g) is None
        for v in ("v1", "v3"):
            face, inside = up_face(g, v, {"v0", "v2"})
            assert (face, inside) == ({"v1", "v3"}, {"e3"})
            tau = thom_products(g, face, inside)
            assert not satisfies_gkm(g, tau, ["e3"])
            assert satisfies_gkm(g, tau, ["e0", "e1", "e2"])


class TestEdgesTestedOnce:
    """Each graph's incongruent edges are stated once, when it is built
    (`GkmGraph.incongruent`): `axial_function` states none, and a graph
    built by hand gets those `incongruent_edges` finds.  On
    `axial_function`'s graphs both that scan and the oracle find none.
    `flow_up_degrees` certifies no graph with an incongruent edge: those
    go to elimination."""

    @pytest.mark.parametrize("name", list(FLOW_SWEEP))
    def test_sweep(self, name):
        g = graph_of(FLOW_SWEEP[name]())
        assert g.incongruent == incongruent_oracle(g) == ()
        assert incongruent_edges(g.edges, g.axial) == ()
        assert flow_up_degrees(g) is not None

    @settings(max_examples=40, deadline=None)
    @given(cut_chain())
    def test_cut_chains(self, cut):
        g = axial_function(*cut)
        assert g.incongruent == incongruent_oracle(g) == ()
        assert incongruent_edges(g.edges, g.axial) == ()

    @settings(max_examples=300, deadline=None)
    @given(labelled_multigraph())
    def test_labelled_multigraphs(self, g):
        assert g.incongruent == incongruent_oracle(g)
        if g.incongruent:
            assert flow_up_degrees(g) is None

    def test_seeded_multigraphs(self):
        """Every graph with an incongruent edge gets None; some graphs with
        none are certified, with elimination's dims."""
        incongruent = certified = 0
        for g in seeded_multigraphs():
            assert g.incongruent == incongruent_oracle(g)
            degrees = flow_up_degrees(g)
            if g.incongruent:
                incongruent += 1
                assert degrees is None
            elif degrees is not None:
                certified += 1
                assert equivariant_hilbert(g, 4) == eliminated_hilbert(g, 4)
        assert incongruent and certified

    def test_failed_edge_graph_is_still_rejected_on_e3(self):
        """No edge is congruent, e3, where tau fails, among them (v2 has one
        edge, v1 and v3 two, v0 three): the graph goes to elimination."""
        g = failed_edge_graph()
        assert g.incongruent == incongruent_oracle(g) == ("e0", "e1", "e2", "e3")
        assert flow_up_degrees(g) is None
        assert equivariant_hilbert(g, 4) == eliminated_hilbert(g, 4)


class TestFaceRingHilbert:
    def test_matches_series_expansion(self):
        t = sympy.symbols("t")
        for name in ("triangle", "square_torus", "cube", "segment", "bigon"):
            p = corpus.BUILDERS[name]().poset
            h = fh_vectors(p).h
            max_deg = p.n + 3
            series = sympy.series(
                sum(c * t**i for i, c in enumerate(h)) / (1 - t) ** p.n,
                t, 0, max_deg + 1,
            ).removeO()
            want = tuple(int(series.coeff(t, k)) for k in range(max_deg + 1))
            assert face_ring_hilbert(h, max_deg) == want, name

    def test_dimension_zero(self):
        assert face_ring_hilbert((1,), 3) == (1, 0, 0, 0)

    def test_agreement_on_formal_instances(self):
        for name in ("triangle", "square_torus", "square_klein", "cube", "segment", "bigon"):
            inst = corpus.BUILDERS[name]()
            max_deg = inst.poset.n + 2
            eq = equivariant_hilbert(graph_of(inst), max_deg)
            fr = face_ring_hilbert(fh_vectors(inst.poset).h, max_deg)
            assert eq == fr, name


class TestThomRestrictions:
    def test_triangle_oracle(self):
        inst = corpus.triangle()
        r = thom_restriction(inst.poset, inst.lam, "F1")
        assert r["p12"] == poly_var(2, 0)  # alpha(F2) = 10
        assert r["p13"] == poly_linear(2, 0b11)  # alpha(F3)
        assert r["p23"] == poly_zero()

    def test_top_face_restricts_to_one(self):
        inst = corpus.cube()
        r = thom_restriction(inst.poset, inst.lam, "Q")
        assert all(v == poly_one(3) for v in r.values())

    def test_vertex_class_is_the_full_product(self):
        inst = corpus.cube()
        r = thom_restriction(inst.poset, inst.lam, "V000")
        assert r["V000"] != poly_zero()
        assert all(v == poly_zero() for k, v in r.items() if k != "V000")
        # degree equals the codimension
        assert all(sum(m) == 3 for m in r["V000"])

    def test_degrees_match_codimension(self):
        inst = corpus.cube()
        graph = graph_of(inst)
        for f in inst.poset.faces():
            k = inst.poset.codim(f)
            r = thom_restriction(inst.poset, inst.lam, f, graph)
            for v, poly in r.items():
                for mono in poly:
                    assert sum(mono) == k, (f, v)

    def test_classes_satisfy_the_membership_test(self):
        for name in ("triangle", "square_torus", "cube", "cut_cube_vertex", "cut_cube_edge"):
            inst = corpus.BUILDERS[name]()
            graph = graph_of(inst)
            for f in inst.poset.faces():
                cls = thom_restriction(inst.poset, inst.lam, f, graph)
                assert satisfies_gkm(graph, cls, graph.edges), (name, f)

    def test_membership_rejects_a_spike(self):
        inst = corpus.triangle()
        graph = graph_of(inst)
        cls = {v: poly_zero() for v in graph.vertices}
        cls["p12"] = poly_var(2, 0)
        assert not satisfies_gkm(graph, cls, graph.edges)


def join_oracle(above, f1, f2):
    """join as it read the up-sets, here those of the recursive closure."""
    cands = above[f1] & above[f2]
    minimal = [g for g in cands if not any(h != g and g in above[h] for h in cands)]
    return minimal[0] if len(minimal) == 1 else None


def meet_oracle(p, above, below, f1, f2):
    """meet_components as it read the down- and up-sets, here those of
    the recursive closure."""
    common = below[f1] & below[f2]
    return sorted((g for g in common if above[g] & common == {g}), key=lambda f: (p.codims[f], f))


class TestRelations:
    @pytest.mark.parametrize("name", ["bigon", "cube", "cut_cube_edge", "ncube(4)"])
    def test_join_and_meet_match_the_oracle(self, name):
        p = (corpus.ncube(4) if name == "ncube(4)" else corpus.BUILDERS[name]()).poset
        above, below = above_oracle(p), below_oracle(p)
        no_join = 0
        for f1 in p.faces():
            for f2 in p.faces():
                top = join(p, f1, f2)
                assert top == join_oracle(above, f1, f2), (f1, f2)
                assert meet_components(p, f1, f2) == meet_oracle(p, above, below, f1, f2)
                no_join += top is None
        # only the bigon's two vertices lie in two minimal common faces
        assert no_join == (2 if name == "bigon" else 0)

    def test_corpus_relations_hold(self):
        for name in (
            "triangle", "square_torus", "square_klein", "cube", "cut_cube_vertex", "cut_cube_edge"
        ):
            inst = corpus.BUILDERS[name]()
            rep = check_face_ring_relations(inst.poset, inst.lam)
            assert rep.ok, (name, rep.product_failures[:3], rep.linearity_failures[:3])

    def test_transverse_facets_multiply_to_zero(self):
        inst = corpus.cube()
        graph = graph_of(inst)
        a = thom_restriction(inst.poset, inst.lam, "X0", graph)
        b = thom_restriction(inst.poset, inst.lam, "X1", graph)
        for v in graph.vertices:
            assert poly_mul(a[v], b[v]) == poly_zero()


def per_edge_axial(p, lam):
    """axial_function's forms solved one nullspace per edge, with its
    errors: the oracle for one inversion per vertex label set."""
    axial = {}
    for e in sorted(one_skeleton(p).edges):
        S = p.facets_containing(e)
        if S:
            null = nullspace([lam.vec(F).bits for F in S], p.n)
            if len(null) != 1:
                raise InputError(
                    f"edge {e}: functional not unique, nullspace has dimension {len(null)}"
                )
            axial[e] = null[0]
        elif p.n != 1:
            raise InputError(f"edge {e} lies in no facet but n = {p.n}")
        else:
            axial[e] = 1
    return axial


AXIAL_SWEEP = dict(FLOW_SWEEP)
AXIAL_SWEEP.update({f"ncube({n})": lambda n=n: corpus.ncube(n) for n in (5, 6)})


@st.composite
def cube_in_a_random_basis(draw):
    """The 1- to 5-cube with its coordinate labels sent through a drawn
    invertible GF(2) matrix: valid labels with many distinct forms."""
    n = draw(st.integers(1, 5))
    images = draw(
        st.lists(st.integers(1, (1 << n) - 1), min_size=n, max_size=n).filter(
            lambda rows: Matrix(tuple(rows), n).rank() == n
        )
    )
    inst = corpus.ncube(n)
    return inst.poset, change_basis(inst.lam, images)


def assert_gkm_graph(g):
    """What `axial_function` does not check on the graph it returns: the
    forms at each vertex are a basis, and no edge is incongruent."""
    assert g.incongruent == ()
    for v, at_v in zip(g.vertices, g.ends):
        assert Matrix(tuple(b for _, _, b in at_v), g.n).rank() == g.n, v


class TestAxialSharing:
    """One nullspace per facet-label set gives the forms of one nullspace
    per edge, on graphs that are GKM by construction."""

    @pytest.mark.parametrize("name", list(AXIAL_SWEEP))
    def test_sweep(self, name):
        inst = AXIAL_SWEEP[name]()
        g = axial_function(inst.poset, inst.lam)
        assert g.axial == per_edge_axial(inst.poset, inst.lam)
        assert_gkm_graph(g)

    @settings(max_examples=40, deadline=None)
    @given(cut_chain())
    def test_cut_chains(self, cut):
        g = axial_function(*cut)
        assert g.axial == per_edge_axial(*cut)
        assert_gkm_graph(g)

    @settings(max_examples=60, deadline=None)
    @given(cube_in_a_random_basis())
    def test_random_label_bases(self, case):
        g = axial_function(*case)
        assert g.axial == per_edge_axial(*case)
        assert_gkm_graph(g)

    def test_shared_dependent_label_set_names_the_first_edge(self):
        """Y1 labelled like X0 and X1: EX0Y1 and EX1Y1 both lie in two
        facets labelled 100, after EX0Y0 has been solved.  axial_function
        refuses the labels with validate_lambda's findings before it
        solves a form; the per-edge oracle names EX0Y1."""
        inst = corpus.cube()
        values = dict(inst.lam.values) | {"Y1": Vec.from_string("100")}
        lam = CharFunction(3, values)
        with pytest.raises(InputError) as err:
            axial_function(inst.poset, lam)
        found = validate_lambda(inst.poset, lam)
        assert found[0] == "face EX0Y1: facet labels ['100', '100'] of ['X0', 'Y1'] are dependent"
        assert err.value.messages == ["gkm input fails validation"] + found
        want = "^edge EX0Y1: functional not unique, nullspace has dimension 2$"
        with pytest.raises(InputError, match=want):
            per_edge_axial(inst.poset, lam)


def vertex_label_sets(p, lam):
    """The distinct sets of facet labels at the vertices of p."""
    return {frozenset(lam.vec(F).bits for F in p.facets_containing(v)) for v in p.vertices()}


def count_inversions(monkeypatch):
    """The list that gets one entry per `_rref_rows` call charfunc makes."""
    calls = []
    real = charfunc._rref_rows

    def counted(rows):
        calls.append(None)
        return real(rows)

    monkeypatch.setattr(charfunc, "_rref_rows", counted)
    return calls


class TestOneInversionPerLabelSet:
    """`axial_function` inverts one label matrix per distinct vertex label
    set; `TestAxialSharing` checks the forms that come of it."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_coordinate_cube_inverts_once(self, n, monkeypatch):
        inst = corpus.ncube(n)
        calls = count_inversions(monkeypatch)
        axial_function(inst.poset, inst.lam)
        assert len(calls) == 1

    def test_seeded_cut_chains(self, monkeypatch):
        calls = count_inversions(monkeypatch)
        sizes = set()
        for seed, build in enumerate([corpus.cube, lambda: corpus.ncube(4)] * 5):
            inst = build()
            for p, lam in seeded_cut_chain(inst.poset, inst.lam, seed):
                calls.clear()
                axial_function(p, lam)
                assert len(calls) == len(vertex_label_sets(p, lam))
                sizes.add(len(calls))
        assert max(sizes) > 2  # the cuts bring new label sets


def assert_same_order(g):
    """`flow_up_degrees(g)` is `named_flow_up_degrees(g)`: the same dict
    in the same order, or None.  Returns it."""
    got, want = flow_up_degrees(g), named_flow_up_degrees(g)
    assert got == want and (got is None or list(got) == list(want))
    return got


def repeated_form_graphs():
    """The two-edge graph with one form twice, and the edited cube."""
    x0 = Vec.from_string("10").bits
    yield hand_built(2, ("a", "b"), {"e1": ("a", "b"), "e2": ("a", "b")}, {"e1": x0, "e2": x0})
    g = graph_of(corpus.cube())
    yield hand_built(g.n, g.vertices, g.edges, g.axial | {"EX0Y0": Vec.from_string("011").bits})


class TestFlowUpOrder:
    """The search on vertex positions places the vertices of the search
    on names, in its order, and refuses the same graphs."""

    @pytest.mark.parametrize("name", list(FLOW_SWEEP))
    def test_sweep(self, name):
        assert assert_same_order(graph_of(FLOW_SWEEP[name]())) is not None

    @settings(max_examples=40, deadline=None)
    @given(cut_chain())
    def test_cut_chains(self, cut):
        assert assert_same_order(axial_function(*cut)) is not None

    def test_seeded_cut_chains(self):
        for seed in range(10):
            inst = corpus.ncube(4)
            for p, lam in seeded_cut_chain(inst.poset, inst.lam, seed):
                assert assert_same_order(axial_function(p, lam)) is not None

    def test_seeded_multigraphs(self):
        verdicts = Counter(assert_same_order(g) is not None for g in seeded_multigraphs())
        assert verdicts[True] and verdicts[False]

    @settings(max_examples=300, deadline=None)
    @given(labelled_multigraph())
    def test_labelled_multigraphs(self, g):
        assert_same_order(g)

    def test_refused_graphs(self):
        for g in [failed_edge_graph(), *repeated_form_graphs()]:
            assert assert_same_order(g) is None


class TestGraphRefusals:
    """`GkmGraph` refuses a malformed graph and names the first offender."""

    def test_repeated_vertex(self):
        with pytest.raises(ValueError, match="^vertex 'a' is repeated$"):
            GkmGraph(2, ("a", "a"), {}, {}, ())

    def test_edge_end_outside_the_vertices(self):
        with pytest.raises(ValueError, match="^edge 'e' ends at 'b', not a vertex$"):
            GkmGraph(1, ("a",), {"e": ("a", "b")}, {"e": 1}, ())
        with pytest.raises(ValueError, match="^edge 'e' ends at 'c', not a vertex$"):
            GkmGraph(1, ("a", "b"), {"e": ("c", "b")}, {"e": 1}, ())

    def test_form_of_the_wrong_width(self):
        # a form is an int of width n: a bit at or above n is refused
        for n, form in [(1, 0b10), (1, 0b11), (2, 0b100), (3, 1 << 70), (2, -1)]:
            with pytest.raises(ValueError, match=f"^form of 'e' has bits beyond width {n}$"):
                GkmGraph(n, ("a", "b"), {"e": ("a", "b")}, {"e": form}, ())
            widest = GkmGraph(n, ("a", "b"), {"e": ("a", "b")}, {"e": (1 << n) - 1}, ())
            assert widest.ends == ((("e", 1, (1 << n) - 1),), (("e", 0, (1 << n) - 1),))

    def test_axial_keys_are_the_edges(self):
        with pytest.raises(ValueError, match="^'e2' has no form$"):
            GkmGraph(1, ("a", "b"), {"e1": ("a", "b"), "e2": ("a", "b")}, {"e1": 1}, ())
        with pytest.raises(ValueError, match="^'e0' has a form but is not an edge$"):
            GkmGraph(1, ("a", "b"), {"e1": ("a", "b")}, {"e0": 1, "e1": 1}, ())


class TestGkmWarning:
    def test_annulus_has_no_graph(self):
        inst = corpus.annulus()
        with pytest.raises(PreconditionError):
            graph_of(inst)

    def test_nonformal_flag_reaches_the_verdict(self):
        inst = corpus.annulus()
        v = formality_verdict(inst.base, inst.lam)
        assert not v.hsiang
