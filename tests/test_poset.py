"""Face poset validation, counting vectors, skeleta, and the coned
order complex."""

import gc
import os
import random
import subprocess
import sys
import weakref
from math import comb
from pathlib import Path

import pytest
import sympy
from conftest import (
    MASK_READERS_SWEEP,
    above_oracle,
    apply_edit,
    below_oracle,
    edits,
    restrict_oracle,
    rows,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from restrictions import restrict
from thom_classes import check_face_ring_relations

from z2torus import charfunc, complexes, corpus, poset
from z2torus.blowup import cut_face
from z2torus.cli import frag_report
from z2torus.complexes import (
    CarrierComplex,
    base_chain,
    betti_mod2,
    face_acyclicity,
    validate_carriers,
)
from z2torus.gf2 import Vec, bit_indices
from z2torus.instance import Instance, instance_text, parse_instance, serialize_instance
from z2torus.model import fixed_locus, formality_verdict
from z2torus.poset import (
    FacePoset,
    count_components,
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

    def test_first_bad_cover_in_sorted_order(self):
        # the witness does not depend on the covers' iteration order
        codims = {"Q": 1, "a": 1, "b": 1}
        for covers in ([("b", "Q"), ("a", "Q")], [("a", "Q"), ("b", "Q")]):
            with pytest.raises(ValueError, match=r"^cover \('a', 'Q'\) does not go up"):
                FacePoset(1, codims, covers)

    def test_codim_out_of_range(self):
        with pytest.raises(ValueError):
            FacePoset(1, {"Q": 0, "v": 2}, set())

    def test_closure_and_queries(self):
        p = ALL_POSETS["triangle"]
        assert p.top() == "Q"
        assert p.leq("p12", "F1") and p.leq("p12", "Q")
        assert not p.leq("F1", "p12")
        assert not p.leq("p12", "nowhere")  # an unknown g holds nothing
        assert p.facets_containing("p12") == ["F1", "F2"]
        assert p.vertices() == ["p12", "p13", "p23"]
        assert p.faces()[0] == "Q"

    def test_restrict_cube_facet_is_a_square(self):
        p = ALL_POSETS["cube"]
        sq = restrict(p, "X0")
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
        rep = validate(disconnected_square())
        assert rep.sound
        assert rep.skeleton_connected


def disconnected_square():
    """Two segments sharing no vertex cannot happen below one top face
    without breaking an earlier check, so this disconnects a square by
    deleting two diagonal vertices: sound, with Q's 1-skeleton in two
    pieces."""
    codims = {"Q": 0, "L": 1, "R": 1, "T": 1, "B": 1, "BL": 2, "TR": 2}
    covers = {
        ("L", "Q"), ("R", "Q"), ("T", "Q"), ("B", "Q"),
        ("BL", "B"), ("BL", "L"), ("TR", "T"), ("TR", "R"),
    }
    return FacePoset(2, codims, covers)


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

    above = above_oracle(p)
    for f in p.faces():
        k = p.codims[f]
        interval = sorted(above[f], key=lambda f: (p.codims[f], f))
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


def count_oracle(p):
    """The simplicial witnesses validate prints, counted on frozensets from
    the recursive closure: for each face, the faces above it and their
    distinct facet sets, with every facet set built and compared."""
    above = above_oracle(p)
    facets = {f: frozenset(F for F in above[f] if p.codims[F] == 1) for f in p.codims}
    found = []
    for f in p.faces():
        m = len(facets[f])
        distinct = len({facets[g] for g in above[f]})
        if not len(above[f]) == distinct == 2**m:
            found.append(
                f"face {f}: {len(above[f])} faces above it with {distinct} distinct "
                f"facet sets, wanted 2^{m}={2**m}"
            )
    return found


def shares_above(p):
    """Whether two faces above some face lie in the same facets, so that
    validate counts facet sets exactly there rather than by popcount."""
    for up in above_oracle(p).values():
        if len({frozenset(p.facets_containing(g)) for g in up}) < len(up):
            return True
    return False


def assert_validate_matches_oracle(p):
    """validate agrees with the oracle on structural, nice, sound, ok and
    whether simplicial is empty, and with the count oracle witness for
    witness; returns whether simpliciality alone fails."""
    rep = validate(p)
    if rep.structural:  # validate stops before the interval checks
        assert not (rep.nice or rep.simplicial)
        return False
    nice, simplicial = interval_oracle(p)
    assert rep.nice == nice
    assert rep.simplicial == count_oracle(p)
    assert bool(rep.simplicial) == bool(simplicial), (rep.simplicial, simplicial)
    sound = not (nice or simplicial)
    assert rep.sound == sound
    assert rep.ok == (sound and not (rep.has_vertex or rep.skeleton_connected))
    return bool(simplicial) and not nice


ORACLE_SWEEP = dict(corpus.BUILDERS)
ORACLE_SWEEP.update({f"ncube({n})": lambda n=n: corpus.ncube(n) for n in (1, 2, 3, 4)})


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
        assert len(above_oracle(p)["v"]) == 8
        assert assert_validate_matches_oracle(p)
        assert validate(p).simplicial == [
            "face v: 8 faces above it with 7 distinct facet sets, wanted 2^3=8"
        ]

    def test_shared_facet_sets_meeting_below(self):
        # a second edge e2 beside EX0Y0, on the same two facets and over
        # the same two vertices: above V000 and V001 two faces share a
        # facet set, so only the exact count sees the ninth face
        p = corpus.cube().poset
        codims = dict(p.codims, e2=2)
        covers = set(p.covers) | {("e2", "X0"), ("e2", "Y0"), ("V000", "e2"), ("V001", "e2")}
        q = FacePoset(3, codims, covers)
        assert shares_above(q)
        assert assert_validate_matches_oracle(q)
        assert validate(q).simplicial == [
            "face V000: 9 faces above it with 8 distinct facet sets, wanted 2^3=8",
            "face V001: 9 faces above it with 8 distinct facet sets, wanted 2^3=8",
        ]

    def test_seeded_edits_of_a_cut_four_cube(self):
        inst = corpus.ncube(4)
        p = cut_face(inst.poset, inst.lam, "00**").poset
        assert len(p.codims) == 99
        sample = random.Random(4).sample(edits(p), 150)
        shared = 0
        for e in sample:
            q = apply_edit(p, e)
            assert_validate_matches_oracle(q)
            shared += not validate(q).structural and shares_above(q)
        assert shared > 0

    def test_extra_facet_is_caught_by_the_count(self):
        # v (codim 3) lies in four facets under two edges, with 2^3 faces
        # above it on distinct facet sets: not nice, and not boolean either
        codims = {"Q": 0, "a": 1, "b": 1, "c": 1, "d": 1, "g1": 2, "g2": 2, "v": 3}
        covers = {(F, "Q") for F in "abcd"}
        covers |= {("g1", "a"), ("g1", "b"), ("g2", "c"), ("g2", "d")}
        covers |= {("v", "g1"), ("v", "g2")}
        p = FacePoset(3, codims, covers)
        assert len(above_oracle(p)["v"]) == 8
        assert_validate_matches_oracle(p)
        assert validate(p).simplicial == [
            "face v: 8 faces above it with 8 distinct facet sets, wanted 2^4=16"
        ]


def has_vertex_oracle(p):
    """has_vertex as it read the down-sets, here those of the recursive
    closure: a face fails when no vertex lies below it."""
    verts, below = set(p.vertices()), below_oracle(p)
    return [f"face {f} contains no vertex" for f in p.faces() if not (below[f] & verts)]


def skeleton_oracle(p):
    """skeleton_connected as it read the down-sets, here those of the
    recursive closure: one union-find per face over the vertices below it
    and the edges of `one_skeleton` below it."""
    verts = set(p.vertices())
    edges = one_skeleton(p).edges
    below = below_oracle(p)
    found = []
    for f in p.faces():
        fverts = below[f] & verts
        if fverts and count_components(fverts, (edges[e] for e in below[f] if e in edges)) != 1:
            found.append(f"1-skeleton of face {f} is disconnected")
    return found


def assert_findings_match_oracle(p):
    """has_vertex and skeleton_connected against the down-set oracles,
    line for line; both are [] after a structural finding.  Returns
    whether either found something."""
    rep = validate(p)
    if rep.structural:
        assert rep.has_vertex == rep.skeleton_connected == []
        return False
    assert rep.has_vertex == has_vertex_oracle(p)
    assert rep.skeleton_connected == skeleton_oracle(p)
    return bool(rep.has_vertex or rep.skeleton_connected)


def failing_findings(split_annulus_data):
    """Posets with no structural finding whose per-face findings are not
    empty, each with its has_vertex and skeleton_connected lines."""
    two = {"Q": 0, "A": 1, "B": 1, "u": 2, "v": 2}
    q_apart = ["1-skeleton of face Q is disconnected"]
    return [
        (disconnected_square(), [], q_apart),
        (parse_instance(split_annulus_data).poset, [], q_apart),
        # an edge over one vertex, beside one over another: Q's two apart
        (FacePoset(2, two, {("A", "Q"), ("B", "Q"), ("u", "A"), ("v", "B")}), [], q_apart),
        # an edge over three vertices keeps them apart, and w stays apart in Q
        (
            FacePoset(
                2, {**two, "w": 2},
                {("A", "Q"), ("B", "Q"), ("u", "A"), ("v", "A"), ("w", "A"), ("u", "B"), ("v", "B")},
            ),
            [],
            q_apart + ["1-skeleton of face A is disconnected"],
        ),
        # an edge over no vertex
        (
            FacePoset(2, two, {("A", "Q"), ("B", "Q"), ("u", "A"), ("v", "A")}),
            ["face B contains no vertex"],
            [],
        ),
    ]


class TestFindingsAgainstOracle:
    """has_vertex and skeleton_connected read one pass that merges vertex
    masks child by child; the down-set versions they replaced must print
    the same lines."""

    @pytest.mark.parametrize("name", list(ORACLE_SWEEP))
    def test_instance_and_its_cuts(self, name):
        inst = ORACLE_SWEEP[name]()
        p, lam = inst.poset, inst.lam
        assert_findings_match_oracle(p)
        for f in p.faces():
            if p.codim(f) >= 2:
                assert_findings_match_oracle(cut_face(p, lam, f).poset)

    def test_five_cube(self):
        assert not assert_findings_match_oracle(corpus.ncube(5).poset)

    def test_failing_findings(self, split_annulus_data):
        for p, has_vertex, skeleton in failing_findings(split_annulus_data):
            rep = validate(p)
            assert not rep.structural
            assert (rep.has_vertex, rep.skeleton_connected) == (has_vertex, skeleton)
            assert assert_findings_match_oracle(p)

    def test_every_single_edit_of_a_failing_poset(self, split_annulus_data):
        failed = 0
        for p, _, _ in failing_findings(split_annulus_data):
            failed += sum(assert_findings_match_oracle(apply_edit(p, e)) for e in edits(p))
        assert failed > 0

    @pytest.mark.parametrize("name", ["triangle", "square_torus", "cube", "annulus"])
    def test_every_single_edit(self, name):
        p = corpus.BUILDERS[name]().poset
        failed = sum(assert_findings_match_oracle(apply_edit(p, e)) for e in edits(p))
        assert failed > 0  # e.g. a deleted vertex leaves a face without one

    def test_seeded_edits_of_a_cut_four_cube(self):
        inst = corpus.ncube(4)
        p = cut_face(inst.poset, inst.lam, "00**").poset
        sample = random.Random(18).sample(edits(p), 150)
        assert sum(assert_findings_match_oracle(apply_edit(p, e)) for e in sample) > 0

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
            assert not assert_findings_match_oracle(p)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_edits(self, data):
        name = data.draw(st.sampled_from(sorted(ORACLE_SWEEP)))
        inst = ORACLE_SWEEP[name]()
        p = inst.poset
        cuttable = [f for f in p.faces() if p.codim(f) >= 2]
        if cuttable and data.draw(st.booleans()):
            p = cut_face(p, inst.lam, data.draw(st.sampled_from(cuttable))).poset
        assert_findings_match_oracle(apply_edit(p, data.draw(st.sampled_from(edits(p)))))


def assert_tables_match_oracle(p):
    """Each face's up-set mask, read back as face ids, and the up-sets
    turned around into down-sets, against the recursive closures; the
    facets through each face against the facets in its closure."""
    above, below = above_oracle(p), below_oracle(p)
    faces = p.faces()
    up = {f: {faces[i] for i in bit_indices(p._up[f])} for f in faces}
    down = {f: set() for f in faces}
    for g in faces:
        for f in up[g]:
            down[f].add(g)
    for f in faces:
        assert up[f] == above[f] and down[f] == below[f], f
        facets = sorted(F for F in above[f] if p.codims[F] == 1)
        assert p.facets_containing(f) == facets, f
    return above


class TestTablesAgainstOracle:
    """FacePoset builds each face's up-set mask by one OR per face in codim
    order and reads facets off those masks; recursion over the covers must
    give the same sets."""

    @pytest.mark.parametrize("name", list(ORACLE_SWEEP))
    def test_instance_and_its_cuts(self, name):
        inst = ORACLE_SWEEP[name]()
        p, lam = inst.poset, inst.lam
        assert_tables_match_oracle(p)
        for f in p.faces():
            if p.codim(f) >= 2:
                assert_tables_match_oracle(cut_face(p, lam, f).poset)

    def test_five_cube(self):
        assert_tables_match_oracle(corpus.ncube(5).poset)

    @pytest.mark.parametrize("name", ["triangle", "square_torus", "bigon", "cube"])
    def test_every_single_edit(self, name):
        p = corpus.BUILDERS[name]().poset
        for e in edits(p):
            assert_tables_match_oracle(apply_edit(p, e))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_cut_chains(self, data):
        inst = data.draw(st.sampled_from([corpus.triangle, corpus.square_torus, corpus.cube]))()
        p, lam = inst.poset, inst.lam
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            cuttable = [f for f in p.faces() if p.codim(f) >= 2]
            cut = cut_face(p, lam, data.draw(st.sampled_from(cuttable)))
            p, lam = cut.poset, cut.lam
            assert_tables_match_oracle(p)

    def test_six_cube_blowup_chain(self):
        # the chain the blowup-chain benchmark cuts, with its faces unmoved
        inst = corpus.ncube(6)
        p, lam = inst.poset, inst.lam
        sizes = []
        rng = random.Random(6)
        for face in ("000000", "00****", "***111", None):
            sizes.append(len(p.codims))
            above = assert_tables_match_oracle(p)
            faces = p.faces()
            for _ in range(2000):
                f = rng.choice(faces)
                g = rng.choice(faces) if rng.random() < 0.5 else rng.choice(sorted(above[f]))
                assert p.leq(f, g) == (g in above[f]), (f, g)
            if face is not None:
                cut = cut_face(p, lam, face)
                p, lam = cut.poset, cut.lam
        assert sizes == [729, 791, 981, 1179]

    def test_own_bit_is_the_top_bit_of_the_up_set(self):
        # the faces above a face come before it, so restrict, the carrier
        # test of complexes._walk and fixed_locus may take a face's bit
        # from its up-set
        posets = [build().poset for build in corpus.BUILDERS.values()]
        posets += [corpus.ncube(n).poset for n in range(1, 6)]
        rng = random.Random(24)
        for build in (corpus.triangle, corpus.cube, lambda: corpus.ncube(4)):
            inst = build()
            p, lam = inst.poset, inst.lam
            for _ in range(3):
                cut = cut_face(p, lam, rng.choice([f for f in p.faces() if p.codim(f) >= 2]))
                p, lam = cut.poset, cut.lam
                posets.append(p)
        for p in posets:
            for i, f in enumerate(p.faces()):
                assert p._up[f].bit_length() - 1 == i, f

    def test_facets_containing_is_a_fresh_list(self):
        p = corpus.triangle().poset
        p.facets_containing("p12").append("F3")
        assert p.facets_containing("p12") == ["F1", "F2"]


class TestRestrictAgainstOracle:
    """restrict keeps the faces whose up-set mask holds f's bit."""

    @pytest.mark.parametrize("name", list(MASK_READERS_SWEEP))
    def test_every_face(self, name):
        p, _ = MASK_READERS_SWEEP[name]
        for f in p.faces():
            sub = restrict(p, f)
            assert sub == restrict_oracle(p, f), f
            assert list(sub.codims) == [g for g in p.faces() if p.leq(g, f)], f


def barycentric_cube(n):
    """The n-cube given with its barycentric triangulation, as mode B."""
    inst = corpus.ncube(n)
    return Instance(f"{n}-cube barycentric", inst.poset, inst.lam, order_complex(inst.poset))


# what a FacePoset holds once built; no read adds to it, the results of
# the `kept` functions going into its `_kept`
POSET_STATE = set(vars(FacePoset(0, {"Q": 0}, ())))
REPORTED = {
    "ncube(3)": lambda: corpus.ncube(3),
    "cut_cube_edge": corpus.cut_cube_edge,
    "square_torus": corpus.square_torus,
    "barycentric 3-cube": lambda: barycentric_cube(3),
}
# the reads of containment off the report path
OFF_THE_REPORT_PATH = {
    "restrict": lambda inst: restrict(inst.poset, "X0"),
    "fixed_locus": lambda inst: fixed_locus(inst.poset, inst.lam, Vec.from_string("100")),
    "check_face_ring_relations": lambda inst: check_face_ring_relations(inst.poset, inst.lam),
    "order_complex": lambda inst: order_complex(inst.poset).simplices,
}


class TestLazyFindings:
    """Loading and cutting read only `sound`, so they never build the
    1-skeleton or run a per-face connectivity check; the findings are
    computed when a report's has_vertex / skeleton_connected is read.
    Every path reads containment off the masks the poset is built with,
    so none adds a table of its own to the poset."""

    def test_load_and_cut_skip_the_skeleton(self, monkeypatch, split_annulus_data):
        def refuse(*args):
            raise AssertionError("skeleton check ran")

        monkeypatch.setattr(poset, "count_components", refuse)
        monkeypatch.setattr(poset, "one_skeleton", refuse)
        monkeypatch.setattr(charfunc, "one_skeleton", refuse)
        for data in (serialize_instance(corpus.ncube(3)), split_annulus_data):
            inst = parse_instance(data)
            cut = cut_face(inst.poset, inst.lam, inst.poset.vertices()[0])
            assert validate(cut.poset).sound
        rep = validate(parse_instance(split_annulus_data).poset)
        monkeypatch.undo()
        assert rep.skeleton_connected == ["1-skeleton of face Q is disconnected"]
        assert rep.has_vertex == [] and rep.sound and not rep.ok

    def test_load_and_cut_skip_the_below_closure(self, split_annulus_data):
        for data in (serialize_instance(corpus.ncube(3)), split_annulus_data):
            inst = parse_instance(data)
            p = inst.poset
            cut = cut_face(p, inst.lam, p.vertices()[0])
            again = cut_face(cut.poset, cut.lam, cut.poset.vertices()[0])
            for q in (p, cut.poset, again.poset):
                assert set(vars(q)) == POSET_STATE
        # the down-set still reads off the masks, and reading it adds nothing
        assert {g for g in p.faces() if p.leq(g, "Q")} == below_oracle(p)["Q"]
        assert set(vars(p)) == POSET_STATE

    def test_load_cut_and_write_skip_the_frozenset_views(self, split_annulus_data):
        # they read the above and facet bitmasks, never a table of sets
        for data in (serialize_instance(corpus.ncube(3)), split_annulus_data):
            inst = parse_instance(data)
            p = inst.poset
            cut = cut_face(p, inst.lam, p.vertices()[0])
            again = cut_face(cut.poset, cut.lam, cut.poset.vertices()[0])
            instance_text(Instance("again", again.poset, again.lam, None))
            for q in (p, cut.poset, again.poset):
                assert set(vars(q)) == POSET_STATE
        v = p.vertices()[0]
        assert {g for g in p.faces() if p.leq(v, g)} == above_oracle(p)[v]
        assert set(p.facets_containing(v)) == above_oracle(p)[v] & set(p.facets())
        assert set(vars(p)) == POSET_STATE

    def test_a_mode_b_load_adds_no_table(self):
        for inst in (corpus.square_torus(), barycentric_cube(3)):
            p = parse_instance(serialize_instance(inst)).poset
            assert set(vars(p)) == POSET_STATE

    @pytest.mark.parametrize("name", list(REPORTED))
    def test_report_adds_no_table(self, name):
        inst = parse_instance(serialize_instance(REPORTED[name]()))
        lines, rc = frag_report(inst)
        assert rc == 0 and any("agree=true" in line for line in lines)
        assert set(vars(inst.poset)) == POSET_STATE

    @pytest.mark.parametrize("name", list(OFF_THE_REPORT_PATH))
    def test_off_path_reads_add_no_table(self, name):
        read = OFF_THE_REPORT_PATH[name]
        inst = parse_instance(serialize_instance(corpus.cube()))
        frag_report(inst)
        assert read(inst) == read(corpus.cube())  # as on a poset nothing else has read
        assert set(vars(inst.poset)) == POSET_STATE
        assert_tables_match_oracle(inst.poset)

    def test_findings_are_empty_after_a_structural_failure(self):
        # two top faces, and no face contains a vertex
        p = FacePoset(2, {"Q": 0, "R": 0, "F": 1}, {("F", "Q")})
        rep = validate(p)
        assert rep.structural and rep.has_vertex == [] and rep.skeleton_connected == []


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

    def test_kept_and_read_off_the_covers(self):
        # the covers of an edge are its vertices, so reading it adds nothing
        # to the poset but the kept skeleton
        p = corpus.ncube(4).poset
        sk = one_skeleton(p)
        assert one_skeleton(p) is sk and set(vars(p)) == POSET_STATE
        assert len(sk.edges) == 32 and sk.n_valent and sk.connected
        below = below_oracle(p)
        for e, ends in sk.edges.items():
            assert set(ends) == below[e] & set(p.vertices()), e

    def test_kept_skeleton_is_read_only(self):
        """The kept skeleton is shared by every caller, so its mappings
        cannot be edited."""
        for name in ("cube", "annulus"):
            sk = one_skeleton(ALL_POSETS[name])
            with pytest.raises(TypeError):
                sk.edges["F9"] = ("a", "b")
            with pytest.raises(TypeError):
                sk.degenerate_edges["F9"] = ()


class TestKept:
    """A `kept` function keeps its last result on its first argument, the
    poset or a triangulation, with the other arguments by identity."""

    def test_one_slot_per_function(self):
        calls = []

        @poset.kept
        def f(p, a, b):
            calls.append((a, b))
            return [a, b]

        p, a, b = corpus.triangle().poset, object(), object()
        got = f(p, a, b)
        assert f(p, a, b) is got and calls == [(a, b)]
        assert f(p, a, None) == [a, None] and f(p, a, b) == [a, b] and len(calls) == 3
        assert list(p._kept) == [f.__wrapped__]

    def test_a_triangulations_chain_gate_and_verdict_are_kept_on_it(self):
        # so the poset keeps nothing for its copies, and each dropped copy
        # is freed at once, with no garbage cycle
        inst = corpus.square_torus()
        p, lam, tri = inst.poset, inst.lam, inst.triangulation
        want = formality_verdict(tri, lam)
        assert validate_carriers(tri).ok
        before = dict(p._kept)
        on_tri = {
            f.__wrapped__
            for f in (complexes._kept_chain, complexes.reduced_chain, face_acyclicity,
                      formality_verdict)
        }
        assert set(tri._kept) == on_tri
        gc.disable()
        try:
            for _ in range(50):
                c = CarrierComplex(p, tri.n_points, tri.simplices)
                assert validate_carriers(c).ok and formality_verdict(c, lam) == want
                assert set(c._kept) == on_tri
                gone = weakref.ref(c)
                del c
                assert gone() is None
        finally:
            gc.enable()
        assert p._kept.keys() == before.keys()
        assert all(p._kept[f] is slot for f, slot in before.items())
        assert formality_verdict(tri, lam) is want


class TestDualAndGorenstein:
    def test_gorenstein_quick(self):
        for name in ("triangle", "square_torus", "cube"):
            g = gorenstein_quick_checks(ALL_POSETS[name])
            assert g.pseudo_manifold and g.euler_ok, name
        g = gorenstein_quick_checks(ALL_POSETS["annulus"])
        assert not g.pseudo_manifold and not g.euler_ok


def order_complex_oracle(p):
    """order_complex's simplices as it built them from the down-sets of the
    recursive closure, each chain sorted into a vertex tuple."""
    below = below_oracle(p)
    top = p.top()
    proper = [f for f in p.faces() if p.codims[f] > 0]
    index = {f: i for i, f in enumerate(proper)}
    apex = len(proper)
    simplices = {(apex,): top}
    for f in proper:
        stack = [((index[f],), f)]
        while stack:
            chain, last = stack.pop()
            sx = tuple(sorted(chain))
            simplices[sx] = f
            simplices[sx + (apex,)] = top
            stack.extend((chain + (index[g],), g) for g in below[last] - {last})
    return simplices


LISTING = (
    "from z2torus import corpus, poset; "
    "print(list(poset.order_complex(corpus.ncube(3).poset).simplices.items()))"
)


class TestOrderComplex:
    @pytest.mark.parametrize("name", list(MASK_READERS_SWEEP))
    def test_simplices_match_the_oracle(self, name):
        p, _ = MASK_READERS_SWEEP[name]
        oc = order_complex(p)
        assert oc.simplices == order_complex_oracle(p)
        assert oc.n_points == len(p.codims)

    def test_simplices_listed_alike_under_every_hash_seed(self):
        # ids hash differently under each seed, so a listing that follows
        # the iteration of a set of ids changes from run to run
        src = str(Path(poset.__file__).resolve().parents[1])
        listings = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", LISTING], env=env, capture_output=True, text=True,
                timeout=120, check=True,
            )
            listings.add(run.stdout)
        here = list(order_complex(corpus.ncube(3).poset).simplices.items())
        assert listings == {f"{here}\n"}

    def test_simplices_listed_by_top_face_then_depth_first(self):
        oc = order_complex(ALL_POSETS["segment"])  # X0 = 0, X1 = 1, apex 2
        assert list(oc.simplices) == [(2,), (0,), (0, 2), (1,), (1, 2)]
        tri = list(order_complex(ALL_POSETS["triangle"]).simplices)
        # F1 = 0 holds p12 = 3 and p13 = 4, the apex is 6
        assert tri[:7] == [(6,), (0,), (0, 6), (0, 3), (0, 3, 6), (0, 4), (0, 4, 6)]

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

    def test_cone_is_acyclic(self):
        for name, p in ALL_POSETS.items():
            oc = order_complex(p)
            b = betti_mod2(rows(base_chain(oc)))
            assert b[0] == 1 and not any(b[1:]), name

    def test_carriers_consistent(self):
        # only the annulus, whose faces hold no vertex, fails, and then
        # only the check that each face's subcomplex has its dimension
        for name, p in ALL_POSETS.items():
            rep = validate_carriers(order_complex(p))
            assert all("has dimension" in w for w in rep.witnesses()), (name, rep.witnesses())

    def test_boundary_part_of_cube_is_a_sphere(self):
        oc = order_complex(ALL_POSETS["cube"])
        top = ALL_POSETS["cube"].top()
        proper = {sx: c for sx, c in oc.simplices.items() if c != top}
        boundary = CarrierComplex(ALL_POSETS["cube"], oc.n_points - 1, proper)
        assert betti_mod2(rows(base_chain(boundary))) == (1, 0, 1)
