"""The acceptance gate: one test per shipped criterion.

Each test prints a single PASS line (visible with -s; pytest -v shows
one PASSED/FAILED line per criterion either way) and asserts the
documented runtime bound where one is stated.
"""

import time

import sympy
from paper_checks import blowup_counts_check, facial_components
from restrictions import face_restriction
from thom_classes import check_face_ring_relations

from z2torus import corpus
from z2torus.blowup import cut_face
from z2torus.charfunc import axial_function, m_involution_check
from z2torus.codes import facet_code, is_self_dual, min_distance
from z2torus.complexes import _check_squares, is_face_acyclic
from z2torus.gkm import equivariant_hilbert, face_ring_hilbert
from z2torus.model import (
    build_quotient,
    fixed_locus,
    formality_verdict,
)
from z2torus.poset import fh_vectors, gorenstein_quick_checks, order_complex

FORMAL_CORPUS = (
    "triangle",
    "square_torus",
    "square_klein",
    "cube",
    "segment",
    "bigon",
    "cut_triangle",
    "cut_cube_vertex",
    "cut_cube_edge",
)


class Clock:
    def __init__(self, bound):
        self.bound = bound

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.bound, f"took {self.elapsed:.2f}s"


def model_of(inst):
    c = inst.triangulation if inst.triangulation is not None else order_complex(inst.poset)
    return c, build_quotient(c, inst.lam)


def test_01_projective_plane_over_the_triangle():
    with Clock(1.0) as clk:
        inst = corpus.triangle()
        _, q = model_of(inst)
        assert q.betti() == (1, 1, 1)
        assert len(inst.poset.vertices()) == 3
        v = formality_verdict(inst.poset, inst.lam)
        assert v.hsiang and v.criterion and v.h_identity and v.agree
        inv = m_involution_check(inst.poset, inst.lam, v.criterion)
        assert not inv.exists
    print(f"\nACCEPTANCE 1: PASS (triangle: Betti (1,1,1), 3 fixed, "
          f"formal, no involution; {clk.elapsed:.2f}s)")


def test_02_torus_and_klein_bottle_over_the_square():
    with Clock(1.0) as clk:
        torus = corpus.square_torus()
        klein = corpus.square_klein()
        for inst in (torus, klein):
            _, q = model_of(inst)
            assert sum(q.betti()) == 4
            assert q.betti() == fh_vectors(inst.poset).h == (1, 2, 1)
        ok = m_involution_check(torus.poset, torus.lam, True)
        assert ok.exists and str(ok.g) == "11"
        locus = fixed_locus(torus.poset, torus.lam, ok.g)
        assert locus.discrete and locus.size == 4
        no = m_involution_check(klein.poset, klein.lam, True)
        assert not no.exists
    print(f"\nACCEPTANCE 2: PASS (square: torus and Klein sums 4 = h-sum, "
          f"g=11 locus 4, Klein has none; {clk.elapsed:.2f}s)")


def test_03_three_torus_over_the_cube():
    with Clock(5.0) as clk:
        inst = corpus.cube()
        _, q = model_of(inst)
        assert q.betti() == (1, 3, 3, 1)
        assert q.betti() == fh_vectors(inst.poset).h
        assert len(inst.poset.vertices()) == 8
        code = facet_code(inst.poset)
        assert (code.length, code.dim, min_distance(code)) == (8, 4, 4)
        assert is_self_dual(code)
    print(f"\nACCEPTANCE 3: PASS (cube: Betti (1,3,3,1), 8 fixed, "
          f"[8,4,4] self-dual; {clk.elapsed:.2f}s)")


def test_04_gkm_dimensions_match_the_face_ring():
    with Clock(30.0) as clk:
        names = ("triangle", "square_torus", "square_klein", "cube",
                 "cut_triangle", "cut_cube_vertex")
        for name in names:
            inst = corpus.BUILDERS[name]()
            v = formality_verdict(inst.base, inst.lam)
            assert v.hsiang, name
            max_deg = inst.poset.n + 2
            eq = equivariant_hilbert(axial_function(inst.poset, inst.lam), max_deg)
            fr = face_ring_hilbert(fh_vectors(inst.poset).h, max_deg)
            assert eq == fr, (name, eq, fr)
    print(f"\nACCEPTANCE 4: PASS (equivariant dims = face-ring dims through "
          f"degree n+2 on 6 formal instances; {clk.elapsed:.2f}s)")


def test_05_blow_up_counting_identities():
    with Clock(30.0) as clk:
        cuts = (("triangle", "p12"), ("cube", "V000"), ("cube", "EX0Y0"))
        for name, face in cuts:
            inst = corpus.BUILDERS[name]()
            check = blowup_counts_check(inst.poset, inst.lam, face)
            assert check.vertices_ok, (name, face, check)
            assert check.betti_ok, (name, face, check)
            assert check.hsiang_before and check.hsiang_after, (name, face)
    print(f"\nACCEPTANCE 5: PASS (vertex and Betti counting identities plus "
          f"formality preservation on 3 cuts; {clk.elapsed:.2f}s)")


def test_06_annulus_negative_instance():
    with Clock(1.0) as clk:
        inst = corpus.annulus()
        acyc = is_face_acyclic(inst.triangulation)
        assert not acyc.verdict
        assert len(inst.poset.vertices()) == 0
        c, q = model_of(inst)
        assert sum(q.betti()) == 4
        v = formality_verdict(inst.base, inst.lam)
        assert not v.hsiang and not v.criterion and v.hsiang == v.criterion
        assert facial_components(c, inst.lam, "F1") == 2
    print(f"\nACCEPTANCE 6: PASS (annulus: not face-acyclic, 0 fixed, sum 4, "
          f"verdicts agree, facet preimage has 2 components; {clk.elapsed:.2f}s)")


def test_07_thom_class_relations():
    with Clock(5.0) as clk:
        for name in ("triangle", "cube"):
            inst = corpus.BUILDERS[name]()
            rep = check_face_ring_relations(inst.poset, inst.lam)
            assert rep.ok, (name, rep.product_failures[:2], rep.linearity_failures[:2])
    print(f"\nACCEPTANCE 7: PASS (linearity and pairwise product relations "
          f"hold vertexwise on triangle and cube; {clk.elapsed:.2f}s)")


def test_08_structural_suite():
    t = sympy.symbols("t")
    boundary_checks = 0
    for name, build in corpus.BUILDERS.items():
        inst = build()
        p = inst.poset

        # h-vector polynomial identity, independently of the fast path
        fh = fh_vectors(p)
        lhs = sum(fh.h[i] * t ** (p.n - i) for i in range(p.n + 1))
        rhs = (t - 1) ** p.n + sum(
            fh.f[i - 1] * (t - 1) ** (p.n - i) for i in range(1, p.n + 1)
        )
        assert sympy.expand(lhs - rhs) == 0, name

        # boundary composites vanish on every built chain complex
        _, q = model_of(inst)
        _check_squares(q.rows)
        boundary_checks += max(len(q.rows) - 2, 0)

        # fixed points never exceed the total Betti number
        assert len(p.vertices()) <= sum(q.betti()), name
    assert boundary_checks > 0

    for name in ("triangle", "square_torus", "cube"):
        g = gorenstein_quick_checks(corpus.BUILDERS[name]().poset)
        assert g.pseudo_manifold and g.euler_ok, name
    g = gorenstein_quick_checks(corpus.annulus().poset)
    assert not g.pseudo_manifold and not g.euler_ok
    print("\nACCEPTANCE 8: PASS (boundary squares vanish, h-vector identity, "
          "Gorenstein quick checks, fixed-point bound, corpus-wide)")


def test_09_face_restrictions_of_formal_instances_are_formal():
    with Clock(30.0) as clk:
        checked = 0
        for name in FORMAL_CORPUS:
            inst = corpus.BUILDERS[name]()
            v = formality_verdict(inst.base, inst.lam)
            assert v.hsiang and v.agree, name
            for f in inst.poset.faces():
                sub, lam2 = face_restriction(inst.poset, inst.lam, f)
                w = formality_verdict(sub, lam2)
                assert w.hsiang and w.criterion and w.h_identity and w.agree, (name, f)
                checked += 1
    print(f"\nACCEPTANCE 9: PASS ({checked} face restrictions of "
          f"{len(FORMAL_CORPUS)} formal instances all formal; {clk.elapsed:.2f}s)")
