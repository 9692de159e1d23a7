"""Characteristic functions, isotropy, axial functions, involutions."""

import pytest
from conftest import (
    MASK_READERS_SWEEP,
    above_oracle,
    below_oracle,
    change_basis,
    from_vecs,
    restrict_oracle,
)
from gkm_graphs import hand_built, mod_line
from hypothesis import given, settings
from hypothesis import strategies as st
from paper_checks import coloring_classes
from restrictions import Subgroup, coset_rep, cosets, face_restriction, isotropy
from thom_classes import edges_at

from z2torus import corpus
from z2torus.blowup import cut_face
from z2torus.charfunc import (
    CharFunction,
    LambdaReport,
    axial_function,
    m_involution_check,
    validate_lambda,
)
from z2torus.complexes import _quotient
from z2torus.errors import InputError, PreconditionError
from z2torus.gf2 import Vec
from z2torus.gkm import eliminated_hilbert, equivariant_hilbert, flow_up_degrees
from z2torus.model import fixed_locus, formality_verdict
from z2torus.poset import FacePoset, validate


def lam_of(**values):
    n = len(next(iter(values.values())))
    return CharFunction(n, {k: Vec.from_string(v) for k, v in values.items()})


class TestSubgroup:
    """The `Subgroup` oracle, and the quotient `complexes._quotient` reads
    off label ints in its place."""

    def test_coset_reps(self):
        g = Subgroup(2, [Vec.from_string("11")])
        assert g.rank == 1
        assert g.contains(Vec.from_string("11"))
        assert not g.contains(Vec.from_string("10"))
        assert str(coset_rep(g, Vec.from_string("01"))) == "10"
        reps, positions = _quotient([Vec.from_string("11").bits], 2)
        assert [str(Vec(r, 2)) for r in reps] == ["00", "10"]
        assert positions == [1, 1]  # e_0 and e_1 both lie in the coset of 10

    def test_full_and_trivial(self):
        full = [Vec.from_string("10").bits, Vec.from_string("01").bits]
        assert _quotient(full, 2) == ([0], [0, 0])
        assert _quotient([], 2) == ([0b00, 0b01, 0b10, 0b11], [1, 2])

    def test_rep_is_constant_on_cosets(self):
        g = Subgroup(3, [Vec.from_string("110"), Vec.from_string("011")])
        _, positions = _quotient([Vec.from_string("110").bits, Vec.from_string("011").bits], 3)

        def position(v):
            out = 0
            for i in range(3):
                if v.bits >> i & 1:
                    out ^= positions[i]
            return out

        for v in (Vec.from_string("100"), Vec.from_string("010")):
            for h in ("110", "011", "101"):
                shifted = v ^ Vec.from_string(h)
                assert coset_rep(g, shifted) == coset_rep(g, v)
                assert position(shifted) == position(v)


class TestValidateLambda:
    def test_corpus_ok(self):
        for name in ("triangle", "square_torus", "square_klein", "cube", "annulus"):
            inst = corpus.BUILDERS[name]()
            assert validate_lambda(inst.poset, inst.lam).ok, name

    def test_dependent_at_a_vertex(self):
        p = corpus.triangle().poset
        bad = lam_of(F1="10", F2="10", F3="01")
        rep = validate_lambda(p, bad)
        assert not rep.ok
        assert any("p12" in w for w in rep.dependent)

    def test_missing_and_unknown(self):
        p = corpus.triangle().poset
        rep = validate_lambda(p, lam_of(F1="10", F2="01", Fx="11"))
        assert rep.missing and rep.unknown

    def test_width_mismatch(self):
        p = corpus.triangle().poset
        rep = validate_lambda(p, lam_of(F1="1", F2="1", F3="1"))
        assert not rep.ok

    def test_zero_label_is_dependent(self):
        p = corpus.triangle().poset
        rep = validate_lambda(p, lam_of(F1="00", F2="01", F3="11"))
        assert any("F1" in w for w in rep.dependent)

    def test_report_is_kept_per_lambda(self):
        # kept on the poset for this lambda object; an equal lambda that is
        # another object computes afresh and takes over the slot
        inst = corpus.cube()
        p, lam = inst.poset, inst.lam
        rep = validate_lambda(p, lam)
        assert validate_lambda(p, lam) is rep
        twin = CharFunction(lam.n, lam.values)
        assert twin == lam and twin is not lam
        again = validate_lambda(p, twin)
        assert again is not rep and again == rep
        assert validate_lambda(p, twin) is again

    def test_lambda_is_read_only(self):
        values = {"F1": Vec.from_string("10"), "F2": Vec.from_string("01")}
        lam = CharFunction(2, values)
        with pytest.raises(TypeError):
            lam.values["F1"] = Vec.from_string("11")
        values["F3"] = Vec.from_string("11")  # the function copied the dict
        assert sorted(lam.values) == ["F1", "F2"]

    def test_label_of_another_width_is_refused(self):
        with pytest.raises(ValueError, match="label of 'F2' has width 3, not 2"):
            CharFunction(2, {"F1": Vec.from_string("10"), "F2": Vec.from_string("010")})


def lambda_oracle(p, lam):
    """validate_lambda as it was before it ranked at vertices first: one
    rank per face that lies in a facet."""
    rep = LambdaReport()
    if lam.n != p.n:
        rep.dependent.append(f"lambda has width {lam.n}, poset dimension is {p.n}")
        return rep
    facets = set(p.facets())
    for F in sorted(facets):
        if F not in lam.values:
            rep.missing.append(f"facet {F} has no lambda value")
    for F in sorted(lam.values):
        if F not in facets:
            rep.unknown.append(f"lambda value for non-facet {F!r}")
    if not rep.ok:
        return rep
    for f in p.faces():
        S = p.facets_containing(f)
        if not S:
            continue
        vecs = [lam.vec(F) for F in S]
        if from_vecs(vecs).rank() != len(vecs):
            rep.dependent.append(
                f"face {f}: facet labels {[str(v) for v in vecs]} of {S} are dependent"
            )
    return rep


def assert_lambda_matches_oracle(p, lam):
    """The two reports agree line for line; returns the dependent faces."""
    rep, want = validate_lambda(p, lam), lambda_oracle(p, lam)
    assert (rep.missing, rep.unknown, rep.dependent) == (want.missing, want.unknown, want.dependent)
    return [w.split(":")[0].removeprefix("face ") for w in rep.dependent]


LAMBDA_SWEEP = dict(corpus.BUILDERS)
LAMBDA_SWEEP.update({f"ncube({n})": lambda n=n: corpus.ncube(n) for n in (1, 2, 3, 4, 5)})


def label_edits(lam):
    """Every edit that gives one facet the label of another facet, or the
    sum of two facets' labels (zero when the two are equal)."""
    facets = sorted(lam.values)
    for a in facets:
        for b in facets:
            if b != a:
                yield a, lam.vec(b)
            for c in facets:
                if b <= c:
                    yield a, lam.vec(b) ^ lam.vec(c)


def relabel(lam, facet, vec):
    return CharFunction(lam.n, {**lam.values, facet: vec})


class TestValidateLambdaAgainstOracle:
    """validate_lambda ranks the labels at each vertex and then only the
    faces above no independent vertex; the per-face check must agree."""

    @pytest.mark.parametrize("name", list(LAMBDA_SWEEP))
    def test_instance(self, name):
        inst = LAMBDA_SWEEP[name]()
        assert assert_lambda_matches_oracle(inst.poset, inst.lam) == []

    def test_every_label_edit(self):
        dependent_vertices, dependent_without_vertex = set(), set()
        for name in ("triangle", "square_torus", "square_klein", "cube", "annulus",
                     "bigon", "cut_cube_edge"):
            inst = corpus.BUILDERS[name]()
            p = inst.poset
            verts, below = set(p.vertices()), below_oracle(p)
            for facet, vec in label_edits(inst.lam):
                for f in assert_lambda_matches_oracle(p, relabel(inst.lam, facet, vec)):
                    if f in verts:
                        dependent_vertices.add((name, f))
                    if not below[f] & verts:
                        dependent_without_vertex.add((name, f))
        assert dependent_vertices
        assert {("annulus", "F1"), ("annulus", "F2")} <= dependent_without_vertex

    def test_missing_unknown_and_width(self):
        p = corpus.triangle().poset
        for lam in (lam_of(F1="10", F2="01", Fx="11"), lam_of(F1="1", F2="1", F3="1")):
            assert_lambda_matches_oracle(p, lam)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_cut_chains_and_label_edits(self, data):
        name = data.draw(st.sampled_from(sorted(LAMBDA_SWEEP)))
        inst = LAMBDA_SWEEP[name]()
        p, lam = inst.poset, inst.lam
        for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
            cuttable = [f for f in p.faces() if p.codim(f) >= 2]
            if not cuttable:
                break
            cut = cut_face(p, lam, data.draw(st.sampled_from(cuttable)))
            p, lam = cut.poset, cut.lam
            assert_lambda_matches_oracle(p, lam)
        facets = sorted(lam.values)
        if facets and data.draw(st.booleans()):
            a, b, c = (data.draw(st.sampled_from(facets)) for _ in range(3))
            vec = lam.vec(b) if data.draw(st.booleans()) else lam.vec(b) ^ lam.vec(c)
            assert_lambda_matches_oracle(p, relabel(lam, a, vec))


class TestIsotropy:
    def test_cube(self):
        inst = corpus.cube()
        g = isotropy(inst.poset, inst.lam, "X0")
        assert g.rank == 1 and g.contains(Vec.from_string("100"))
        v = isotropy(inst.poset, inst.lam, "V000")
        assert v.rank == 3 and cosets(v) == [Vec(0, 3)]
        assert isotropy(inst.poset, inst.lam, "Q").rank == 0

    def test_coset_count(self):
        inst = corpus.cube()
        for f in inst.poset.faces():
            g = isotropy(inst.poset, inst.lam, f)
            assert len(cosets(g)) == 1 << (3 - g.rank)


def face_restriction_oracle(p, lam, f, above):
    """face_restriction as it read the facet sets, here those of the
    recursive closure, on the oracle's restriction of p to f."""
    k = p.codim(f)
    if k == 0:
        return p, lam
    facets = {g: {F for F in above[g] if p.codims[F] == 1} for g in p.faces()}
    sub = restrict_oracle(p, f)
    G = isotropy(p, lam, f)
    free = [j for j in range(p.n) if j not in set(G._pivots)]
    values = {}
    for g in sub.facets():
        others = sorted(facets[g] - facets[f])
        if len(others) != 1:
            raise InputError(
                f"face {g} of {f} lies in {len(others)} facets transverse to {f}, wanted one"
            )
        reduced = coset_rep(G, lam.vec(others[0])).bits
        values[g] = Vec.from_bits((reduced >> j) & 1 for j in free)
    return sub, CharFunction(p.n - k, values)


def outcome(fn, *args):
    """fn's result, or the message of the InputError it raises."""
    try:
        return fn(*args)
    except InputError as e:
        return str(e)


class TestFaceRestriction:
    @pytest.mark.parametrize("name", list(MASK_READERS_SWEEP))
    def test_every_face_matches_the_oracle(self, name):
        p, lam = MASK_READERS_SWEEP[name]
        above = above_oracle(p)
        for f in p.faces():
            got = outcome(face_restriction, p, lam, f)
            assert got == outcome(face_restriction_oracle, p, lam, f, above), f

    def test_cube_facet_is_the_torus_square(self):
        inst = corpus.cube()
        sub, lam2 = face_restriction(inst.poset, inst.lam, "X0")
        assert sub.n == 2 and validate(sub).ok
        assert validate_lambda(sub, lam2).ok
        assert str(lam2.vec("EX0Y0")) == "10"
        assert str(lam2.vec("EX0Y1")) == "10"
        assert str(lam2.vec("EX0Z0")) == "01"
        assert str(lam2.vec("EX0Z1")) == "01"

    def test_triangle_facet_is_a_segment(self):
        inst = corpus.triangle()
        sub, lam2 = face_restriction(inst.poset, inst.lam, "F1")
        assert sub.n == 1
        assert str(lam2.vec("p12")) == "1"
        assert str(lam2.vec("p13")) == "1"

    def test_codim_zero_is_identity(self):
        inst = corpus.triangle()
        sub, lam2 = face_restriction(inst.poset, inst.lam, "Q")
        assert sub is inst.poset and lam2 is inst.lam

    def test_an_unknown_face_is_an_input_error(self):
        # as cut_face and thom_restriction report it
        inst = corpus.cube()
        with pytest.raises(InputError, match="^unknown face 'nosuch'$"):
            face_restriction(inst.poset, inst.lam, "nosuch")

    def test_every_restriction_validates(self):
        for name in ("triangle", "square_torus", "square_klein", "cube"):
            inst = corpus.BUILDERS[name]()
            for f in inst.poset.faces():
                sub, lam2 = face_restriction(inst.poset, inst.lam, f)
                assert validate(sub).sound, (name, f)
                assert validate_lambda(sub, lam2).ok, (name, f)


class TestAxialFunction:
    def test_triangle_oracle(self):
        inst = corpus.triangle()
        g = axial_function(inst.poset, inst.lam)
        assert str(g.axial["F1"]) == "01"
        assert str(g.axial["F2"]) == "10"
        assert str(g.axial["F3"]) == "11"

    def test_cube_axial_matches_transverse_direction(self):
        inst = corpus.cube()
        g = axial_function(inst.poset, inst.lam)
        # the edge EX0Y0 runs in the z direction
        assert str(g.axial["EX0Y0"]) == "001"
        assert len(g.edges) == 12
        for v in g.vertices:
            assert len(edges_at(g, v)) == 3

    def test_segment_edge_is_unconstrained(self):
        inst = corpus.segment()
        g = axial_function(inst.poset, inst.lam)
        assert list(g.edges) == ["Q"]
        assert str(g.axial["Q"]) == "1"

    def test_annulus_precondition(self):
        inst = corpus.annulus()
        with pytest.raises(PreconditionError):
            axial_function(inst.poset, inst.lam)

    def test_non_basis_at_vertex(self):
        # refused before any form is solved, with validate_lambda's findings
        p = corpus.square_torus().poset
        bad = lam_of(L="10", B="10", R="01", T="01")
        with pytest.raises(InputError) as err:
            axial_function(p, bad)
        assert err.value.messages == [
            "gkm input fails validation",
            "face BL: facet labels ['10', '10'] of ['B', 'L'] are dependent",
            "face TR: facet labels ['01', '01'] of ['R', 'T'] are dependent",
        ]

    def test_one_edited_label_breaks_the_congruence(self):
        """EX0Y0 runs in the z direction; labelled y + z instead, the labels
        at its ends still form bases, but across the x edge at one end they
        read {0, y, y + z} and {0, y, z} mod x.  The graph names both x
        edges, gets no flow-up basis, and its dims come from elimination."""
        inst = corpus.cube()
        g = axial_function(inst.poset, inst.lam)
        assert g.incongruent == ()
        g = hand_built(g.n, g.vertices, g.edges, g.axial | {"EX0Y0": Vec.from_string("011")})
        assert g.incongruent == ("EY0Z0", "EY0Z1")
        assert flow_up_degrees(g) is None
        assert equivariant_hilbert(g, 6) == eliminated_hilbert(g, 6)

    def test_graph_is_read_only(self):
        """Edges and forms are read-only copies: a graph cannot be edited
        after its incongruent edges are stated, nor through the dicts it
        was built from."""
        inst = corpus.cube()
        g = axial_function(inst.poset, inst.lam)
        with pytest.raises(TypeError):
            g.axial["EX0Y0"] = Vec.from_string("011")
        with pytest.raises(TypeError):
            g.edges["EX0Y0"] = ("V000", "V111")
        edges, axial = dict(g.edges), dict(g.axial)
        built = hand_built(g.n, g.vertices, edges, axial)
        axial["EX0Y0"] = Vec.from_string("011")
        assert built.axial["EX0Y0"] == g.axial["EX0Y0"] and built.incongruent == ()

    def test_hand_built_disagreement_names_the_first_edge(self):
        """K4 with x0, x1, x2 on the edges at v0 and the same forms on the
        opposite edges is a GKM graph.  With v2v3 (e5) relabelled x0 + x1,
        the forms at each vertex are still a basis and still agree across
        e5, but not across v0v3 (e2) and v1v2 (e3): both are named, and
        the dims come from elimination."""
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        edges = {f"e{i}": (f"v{a}", f"v{b}") for i, (a, b) in enumerate(pairs)}

        def k4(forms):
            axial = {f"e{i}": Vec(bits, 3) for i, bits in enumerate(forms)}
            return hand_built(3, ("v0", "v1", "v2", "v3"), edges, axial)

        g = k4([1, 2, 4, 4, 2, 1])
        assert g.incongruent == ()
        g = k4([1, 2, 4, 4, 2, 3])
        assert g.incongruent == ("e2", "e3")
        assert flow_up_degrees(g) is None
        assert equivariant_hilbert(g, 6) == eliminated_hilbert(g, 6)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mod_line_is_the_coset_representative(self, data):
        n = data.draw(st.integers(1, 6))
        a = data.draw(st.integers(0, (1 << n) - 1))
        forms = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
        line = Subgroup(n, [Vec(a, n)])
        assert mod_line(forms, a) == sorted(coset_rep(line, Vec(b, n)).bits for b in forms)


class TestMInvolution:
    def test_cube(self):
        inst = corpus.cube()
        res = m_involution_check(inst.poset, inst.lam, face_acyclic=True)
        assert res.exists and str(res.g) == "111"

    def test_square_torus(self):
        inst = corpus.square_torus()
        res = m_involution_check(inst.poset, inst.lam, face_acyclic=True)
        assert res.exists and str(res.g) == "11"

    def test_triangle_image_too_big(self):
        inst = corpus.triangle()
        res = m_involution_check(inst.poset, inst.lam, face_acyclic=True)
        assert not res.exists and res.g is None
        assert any("basis" in r for r in res.reasons)

    def test_not_acyclic(self):
        inst = corpus.square_torus()
        res = m_involution_check(inst.poset, inst.lam, face_acyclic=False)
        assert not res.exists
        assert any("face-acyclic" in r for r in res.reasons)

    def test_fixed_locus_of_g_is_the_vertex_set(self):
        for name in ("cube", "square_torus", "segment"):
            inst = corpus.BUILDERS[name]()
            res = m_involution_check(inst.poset, inst.lam, face_acyclic=True)
            assert res.exists, name
            loc = fixed_locus(inst.poset, inst.lam, res.g)
            assert loc.discrete, name
            assert list(loc.faces) == inst.poset.vertices(), name


# the annulus is the one instance here that is not face-acyclic, though its
# labels are a basis
M_INVOLUTION_SWEEP = dict(corpus.BUILDERS)
M_INVOLUTION_SWEEP.update({f"ncube({n})": lambda n=n: corpus.ncube(n) for n in (1, 2, 3, 4)})


def assert_matches_brute_force(base, lam):
    """Every nonzero g of GF(2)^n through `fixed_locus`: the check reports
    an m-involution iff some g fixes a discrete set of sum b_i points,
    and the g it reports is one of them."""
    p = base.poset
    verdict = formality_verdict(base, lam)
    fixing = []
    for bits in range(1, 1 << p.n):
        loc = fixed_locus(p, lam, Vec(bits, p.n))
        if loc.discrete and loc.size == verdict.sum_betti:
            fixing.append(Vec(bits, p.n))
    inv = m_involution_check(p, lam, verdict.criterion)
    assert inv.exists == bool(fixing)
    assert inv.g is None or inv.g in fixing


class TestMInvolutionAgainstBruteForce:
    """The m-involution is reported exactly when some nonzero g fixes a
    discrete set of sum b_i points, and the reported g is such a g."""

    @pytest.mark.parametrize("name", list(M_INVOLUTION_SWEEP))
    def test_sweep(self, name):
        inst = M_INVOLUTION_SWEEP[name]()
        assert_matches_brute_force(inst.base, inst.lam)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_cut_chains_and_label_bases(self, data):
        inst = M_INVOLUTION_SWEEP[data.draw(st.sampled_from(sorted(M_INVOLUTION_SWEEP)))]()
        p, lam, base = inst.poset, inst.lam, inst.base
        # a permutation of the basis, then transvections e_i -> e_i + e_j:
        # together they generate every invertible change of basis
        images = [1 << i for i in data.draw(st.permutations(range(p.n)))]
        if p.n >= 2:
            pairs = st.permutations(range(p.n)).map(lambda order: order[:2])
            for i, j in data.draw(st.lists(pairs, max_size=3)):
                images[i] ^= images[j]
        lam = change_basis(lam, images)
        for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
            cuttable = [f for f in p.faces() if p.codim(f) >= 2]
            if not cuttable:
                break
            cut = cut_face(p, lam, data.draw(st.sampled_from(cuttable)))
            p, lam, base = cut.poset, cut.lam, cut.poset
        assert_matches_brute_force(base, lam)


class TestColoringClasses:
    def test_cube(self):
        inst = corpus.cube()
        cc = coloring_classes(inst.poset, inst.lam)
        assert cc.is_basis
        assert cc.classes == {
            "100": ("X0", "X1"),
            "010": ("Y0", "Y1"),
            "001": ("Z0", "Z1"),
        }

    def test_triangle_not_a_basis(self):
        inst = corpus.triangle()
        cc = coloring_classes(inst.poset, inst.lam)
        assert not cc.is_basis and len(cc.classes) == 3
