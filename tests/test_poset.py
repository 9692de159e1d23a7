"""Face poset validation, counting vectors, skeleta, and the coned
order complex."""

from math import comb

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from z2torus import corpus
from z2torus.blowup import cut_face
from z2torus.complexes import betti_mod2, chain_complex, validate_carriers
from z2torus.poset import (
    FacePoset,
    fh_vectors,
    gorenstein_quick_checks,
    one_skeleton,
    order_complex,
    validate,
)

ALL_POSETS = {
    name: corpus.BUILDERS[name]().poset
    for name in ("triangle", "square_torus", "cube", "annulus", "segment", "bigon")
}


class TestConstruction:
    def test_unknown_face_in_cover(self):
        with pytest.raises(ValueError):
            FacePoset(1, {"Q": 0}, {("v", "Q")})

    def test_cover_must_go_up(self):
        with pytest.raises(ValueError):
            FacePoset(1, {"Q": 0, "v": 1}, {("Q", "v")})

    def test_codim_out_of_range(self):
        with pytest.raises(ValueError):
            FacePoset(1, {"Q": 0, "v": 2}, set())

    def test_closure_and_queries(self):
        p = ALL_POSETS["triangle"]
        assert p.top() == "Q"
        assert p.leq("p12", "F1") and p.leq("p12", "Q")
        assert not p.leq("F1", "p12")
        assert p.facets_containing("p12") == ["F1", "F2"]
        assert p.vertices() == ["p12", "p13", "p23"]
        assert p.faces()[0] == "Q"

    def test_restrict_cube_facet_is_a_square(self):
        p = ALL_POSETS["cube"]
        sq = p.restrict("X0")
        assert sq.n == 2
        assert len(sq.codims) == 9
        assert validate(sq).ok

    def test_equality(self):
        assert ALL_POSETS["triangle"] == corpus.triangle().poset
        assert ALL_POSETS["triangle"] != ALL_POSETS["segment"]


class TestValidate:
    def test_corpus_soundness(self):
        for name, p in ALL_POSETS.items():
            rep = validate(p)
            assert rep.sound, (name, rep)

    def test_annulus_semantic_findings(self):
        rep = validate(ALL_POSETS["annulus"])
        assert rep.sound and not rep.ok
        assert len(rep.has_vertex) == 3

    def test_two_tops(self):
        p = FacePoset(1, {"Q": 0, "R": 0, "v": 1}, {("v", "Q"), ("v", "R")})
        assert validate(p).structural

    def test_missing_cover_breaks_niceness(self):
        codims = {"Q": 0, "F1": 1, "F2": 1, "F3": 1, "p12": 2, "p13": 2, "p23": 2}
        covers = {
            ("F1", "Q"), ("F2", "Q"), ("F3", "Q"),
            ("p12", "F1"),
            ("p13", "F1"), ("p13", "F3"),
            ("p23", "F2"), ("p23", "F3"),
        }
        rep = validate(FacePoset(2, codims, covers))
        assert rep.nice and not rep.sound

    def test_two_faces_with_equal_facet_sets_is_fine(self):
        # two distinct vertices inside the same two facets: that is the
        # bigon, a simplicial poset that is not a simplicial complex
        codims = {"Q": 0, "F1": 1, "F2": 1, "a": 2, "b": 2}
        covers = {("F1", "Q"), ("F2", "Q")}
        covers |= {(v, F) for v in ("a", "b") for F in ("F1", "F2")}
        rep = validate(FacePoset(2, codims, covers))
        assert rep.ok

    def test_interval_above_a_vertex_must_be_boolean(self):
        # a vertex in three facets but under only two edges: nice, yet
        # the upper interval is not a rank-3 boolean lattice
        codims = {"Q": 0, "F1": 1, "F2": 1, "F3": 1, "e12": 2, "e13": 2, "v": 3}
        covers = {
            ("F1", "Q"), ("F2", "Q"), ("F3", "Q"),
            ("e12", "F1"), ("e12", "F2"),
            ("e13", "F1"), ("e13", "F3"),
            ("v", "e12"), ("v", "e13"),
        }
        rep = validate(FacePoset(3, codims, covers))
        assert rep.simplicial and not rep.sound

    def test_disconnected_face_skeleton(self):
        # two segments sharing no vertex cannot happen below one top
        # face without breaking an earlier check, so disconnect via a
        # square whose two diagonal vertices are deleted
        codims = {"Q": 0, "L": 1, "R": 1, "T": 1, "B": 1, "BL": 2, "TR": 2}
        covers = {
            ("L", "Q"), ("R", "Q"), ("T", "Q"), ("B", "Q"),
            ("BL", "B"), ("BL", "L"), ("TR", "T"), ("TR", "R"),
        }
        rep = validate(FacePoset(2, codims, covers))
        assert rep.sound
        assert rep.skeleton_connected


def interval_oracle(p):
    """Niceness and simpliciality by brute force, as validate checked them
    before it counted: (nice, simplicial) witness lists.  Each face's upper
    interval is checked level by level against C(k, j), for distinct facet
    sets, and over all pairs for order agreeing with facet-set inclusion."""
    nice, simplicial = [], []
    for f in p.faces():
        k = p.codims[f]
        S = p.facets_containing(f)
        if len(S) != k:
            nice.append(f"face {f} has codim {k} but lies in {len(S)} facets {S}")

    for f in p.faces():
        k = p.codims[f]
        interval = sorted(p.above(f), key=p.face_key)
        facet_sets = {g: frozenset(p.facets_containing(g)) for g in interval}
        for j in range(k + 1):
            level = [g for g in interval if p.codims[g] == j]
            if len(level) != comb(k, j):
                simplicial.append(
                    f"face {f}: {len(level)} faces of codim {j} above it, wanted C({k},{j})={comb(k, j)}"
                )
        seen: dict[frozenset[str], str] = {}
        for g in interval:
            fs = facet_sets[g]
            if fs in seen:
                simplicial.append(
                    f"face {f}: faces {seen[fs]} and {g} above it lie in the same facets"
                )
            seen[fs] = g
        for g1 in interval:
            for g2 in interval:
                if (facet_sets[g1] <= facet_sets[g2]) != p.leq(g2, g1):
                    simplicial.append(
                        f"face {f}: interval order disagrees with facet sets at ({g1}, {g2})"
                    )
    return nice, simplicial


def assert_validate_matches_oracle(p):
    """validate agrees with the oracle on structural, nice, sound, ok and
    whether simplicial is empty; returns whether simpliciality alone fails."""
    rep = validate(p)
    if rep.structural:  # validate stops before the interval checks
        assert not (rep.nice or rep.simplicial)
        return False
    nice, simplicial = interval_oracle(p)
    assert rep.nice == nice
    assert bool(rep.simplicial) == bool(simplicial), (rep.simplicial, simplicial)
    sound = not (nice or simplicial)
    assert rep.sound == sound
    assert rep.ok == (sound and not (rep.has_vertex or rep.skeleton_connected))
    return bool(simplicial) and not nice


ORACLE_SWEEP = dict(corpus.BUILDERS)
ORACLE_SWEEP.update({f"ncube({n})": lambda n=n: corpus.ncube(n) for n in (1, 2, 3, 4)})


def edits(p):
    """Every edit one step away from p: a cover dropped, a cover added
    between adjacent codims, or a face deleted with its covers."""
    found = [("drop", cover) for cover in sorted(p.covers)]
    for c in p.faces():
        parents = p.faces_of_codim(p.codims[c] - 1)
        found += [("add", (c, q)) for q in parents if (c, q) not in p.covers]
    return found + [("delete", f) for f in p.faces()]


def apply_edit(p, edit):
    kind, x = edit
    if kind == "drop":
        return FacePoset(p.n, p.codims, set(p.covers) - {x})
    if kind == "add":
        return FacePoset(p.n, p.codims, set(p.covers) | {x})
    codims = {g: k for g, k in p.codims.items() if g != x}
    return FacePoset(p.n, codims, {(c, q) for c, q in p.covers if x not in (c, q)})


class TestValidateAgainstOracle:
    """validate counts each upper interval; the brute-force checks it
    replaced must reach the same verdicts."""

    @pytest.mark.parametrize("name", list(ORACLE_SWEEP))
    def test_instance_and_its_cuts(self, name):
        inst = ORACLE_SWEEP[name]()
        p, lam = inst.poset, inst.lam
        assert_validate_matches_oracle(p)
        for f in p.faces():
            if p.codim(f) >= 2:
                assert_validate_matches_oracle(cut_face(p, lam, f).poset)

    @pytest.mark.parametrize("name", ["triangle", "square_torus", "bigon", "cube"])
    def test_every_single_edit(self, name):
        p = corpus.BUILDERS[name]().poset
        alone = sum(assert_validate_matches_oracle(apply_edit(p, e)) for e in edits(p))
        if name == "cube":
            # e.g. a vertex losing one of its three edges stays in three
            # facets, but has seven faces above it
            assert alone > 0

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_cut_chains(self, data):
        build = data.draw(st.sampled_from([corpus.triangle, corpus.square_torus, corpus.cube]))
        inst = build()
        p, lam = inst.poset, inst.lam
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            cuttable = [f for f in p.faces() if p.codim(f) >= 2]
            cut = cut_face(p, lam, data.draw(st.sampled_from(cuttable)))
            p, lam = cut.poset, cut.lam
            assert_validate_matches_oracle(p)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_edits(self, data):
        name = data.draw(st.sampled_from(sorted(ORACLE_SWEEP)))
        inst = ORACLE_SWEEP[name]()
        p = inst.poset
        cuttable = [f for f in p.faces() if p.codim(f) >= 2]
        if cuttable and data.draw(st.booleans()):
            p = cut_face(p, inst.lam, data.draw(st.sampled_from(cuttable))).poset
        assert_validate_matches_oracle(apply_edit(p, data.draw(st.sampled_from(edits(p)))))

    def test_distinct_facet_sets_are_needed(self):
        # v has 2^3 faces above it, but g1 and g2 lie in the same two
        # facets: only the distinctness part of the count sees it
        codims = {"Q": 0, "a": 1, "b": 1, "c": 1, "g1": 2, "g2": 2, "g3": 2, "v": 3}
        covers = {("a", "Q"), ("b", "Q"), ("c", "Q")}
        covers |= {("g1", "a"), ("g1", "b"), ("g2", "a"), ("g2", "b")}
        covers |= {("g3", "a"), ("g3", "c")}
        covers |= {("v", "g1"), ("v", "g2"), ("v", "g3")}
        p = FacePoset(3, codims, covers)
        assert len(p.above("v")) == 8
        assert assert_validate_matches_oracle(p)
        assert validate(p).simplicial == [
            "face v: 8 faces above it with 7 distinct facet sets, wanted 2^3=8"
        ]

    def test_extra_facet_is_caught_by_the_count(self):
        # v (codim 3) lies in four facets under two edges, with 2^3 faces
        # above it on distinct facet sets: not nice, and not boolean either
        codims = {"Q": 0, "a": 1, "b": 1, "c": 1, "d": 1, "g1": 2, "g2": 2, "v": 3}
        covers = {(F, "Q") for F in "abcd"}
        covers |= {("g1", "a"), ("g1", "b"), ("g2", "c"), ("g2", "d")}
        covers |= {("v", "g1"), ("v", "g2")}
        p = FacePoset(3, codims, covers)
        assert len(p.above("v")) == 8
        assert_validate_matches_oracle(p)
        assert validate(p).simplicial == [
            "face v: 8 faces above it with 8 distinct facet sets, wanted 2^4=16"
        ]


class TestFHVectors:
    def test_frozen_values(self):
        frozen = {
            "triangle": ((3, 3), (1, 1, 1)),
            "square_torus": ((4, 4), (1, 2, 1)),
            "cube": ((6, 12, 8), (1, 3, 3, 1)),
            "annulus": ((2, 0), (1, 0, -1)),
            "segment": ((2,), (1, 1)),
            "bigon": ((2, 2), (1, 0, 1)),
        }
        for name, (f, h) in frozen.items():
            fh = fh_vectors(ALL_POSETS[name])
            assert (fh.f, fh.h) == (f, h), name

    def test_polynomial_identity(self):
        t = sympy.symbols("t")
        for name, p in ALL_POSETS.items():
            fh = fh_vectors(p)
            n = p.n
            lhs = sum(fh.h[i] * t ** (n - i) for i in range(n + 1))
            rhs = (t - 1) ** n + sum(
                fh.f[i - 1] * (t - 1) ** (n - i) for i in range(1, n + 1)
            )
            assert sympy.expand(lhs - rhs) == 0, name

    def test_h_sums_to_vertex_count(self):
        for name in ("triangle", "square_torus", "cube", "segment", "bigon"):
            p = ALL_POSETS[name]
            assert sum(fh_vectors(p).h) == len(p.vertices()), name


class TestSkeleton:
    def test_triangle(self):
        sk = one_skeleton(ALL_POSETS["triangle"])
        assert sk.vertices == ("p12", "p13", "p23")
        assert sk.edges == {
            "F1": ("p12", "p13"),
            "F2": ("p12", "p23"),
            "F3": ("p13", "p23"),
        }
        assert sk.n_valent and sk.connected

    def test_cube(self):
        sk = one_skeleton(ALL_POSETS["cube"])
        assert len(sk.vertices) == 8 and len(sk.edges) == 12
        assert sk.n_valent and sk.connected

    def test_annulus_degenerate(self):
        sk = one_skeleton(ALL_POSETS["annulus"])
        assert not sk.vertices
        assert set(sk.degenerate_edges) == {"F1", "F2"}
        assert not sk.n_valent and not sk.connected


class TestDualAndGorenstein:
    def test_gorenstein_quick(self):
        for name in ("triangle", "square_torus", "cube"):
            g = gorenstein_quick_checks(ALL_POSETS[name])
            assert g.pseudo_manifold and g.euler_ok, name
        g = gorenstein_quick_checks(ALL_POSETS["annulus"])
        assert not g.pseudo_manifold and not g.euler_ok


class TestOrderComplex:
    def test_point_counts(self):
        assert order_complex(ALL_POSETS["triangle"]).n_points == 7
        assert order_complex(ALL_POSETS["cube"]).n_points == 27
        assert order_complex(ALL_POSETS["segment"]).n_points == 3

    def test_triangle_simplices(self):
        oc = order_complex(ALL_POSETS["triangle"])
        # 6 proper faces plus the apex; 6 incident (vertex < facet)
        # pairs, each also coned off through the apex
        assert len([s for s in oc.simplices if len(s) == 1]) == 7
        assert len([s for s in oc.simplices if len(s) == 2]) == 6 + 6
        assert len([s for s in oc.simplices if len(s) == 3]) == 6
        assert oc.vertex_labels is not None and oc.vertex_labels[-1] == "*"

    def test_cone_is_acyclic(self):
        for name, p in ALL_POSETS.items():
            oc = order_complex(p)
            b = betti_mod2(chain_complex(oc))
            assert b[0] == 1 and not any(b[1:]), name

    def test_carriers_consistent(self):
        for name, p in ALL_POSETS.items():
            rep = validate_carriers(order_complex(p), require_face_dims=False)
            assert rep.ok, (name, rep.witnesses())

    def test_boundary_part_of_cube_is_a_sphere(self):
        oc = order_complex(ALL_POSETS["cube"])
        top = ALL_POSETS["cube"].top()
        proper = {sx: c for sx, c in oc.simplices.items() if c != top}
        from z2torus.complexes import CarrierComplex

        boundary = CarrierComplex(ALL_POSETS["cube"], oc.n_points - 1, proper)
        assert betti_mod2(chain_complex(boundary)) == (1, 0, 1)
