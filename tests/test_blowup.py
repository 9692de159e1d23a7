"""Corner cuts: the new poset, the new labels, and the counting laws."""

import random
from itertools import combinations

import pytest
from conftest import above_oracle, apply_edit, below_oracle, change_basis, edits, rows
from hypothesis import given, settings
from hypothesis import strategies as st
from paper_checks import blowup_counts_check
from restrictions import restrict

from z2torus import charfunc, corpus, poset
from z2torus.blowup import cut_face
from z2torus.charfunc import CharFunction, validate_lambda
from z2torus.complexes import CarrierComplex, base_chain, betti_mod2, is_face_acyclic
from z2torus.errors import InputError, PreconditionError
from z2torus.gf2 import Matrix, Vec
from z2torus.poset import (
    FacePoset,
    fh_vectors,
    gorenstein_quick_checks,
    kept,
    order_complex,
    validate,
)


class TestCutTriangle:
    def test_quadrilateral_shape(self):
        inst = corpus.triangle()
        cut = cut_face(inst.poset, inst.lam, "p12")
        p = cut.poset
        assert len(p.codims) == 9
        assert len(p.facets()) == 4 and len(p.vertices()) == 4
        assert cut.new_facet == "p12|F1,F2"
        assert validate(p).ok

    def test_new_labels(self):
        inst = corpus.triangle()
        cut = cut_face(inst.poset, inst.lam, "p12")
        lam = cut.lam
        assert str(lam.vec("F1")) == "10"
        assert str(lam.vec("F2")) == "01"
        assert str(lam.vec("F3")) == "11"
        assert str(lam.vec("p12|F1,F2")) == "11"
        assert validate_lambda(cut.poset, lam).ok

    def test_new_vertices_sit_on_the_right_facets(self):
        # the subset names the directions cut away, so the new vertex
        # p12|F1 survives on the OTHER old facet through p12
        inst = corpus.triangle()
        cut = cut_face(inst.poset, inst.lam, "p12")
        p = cut.poset
        assert p.facets_containing("p12|F1") == ["F2", "p12|F1,F2"]
        assert p.facets_containing("p12|F2") == ["F1", "p12|F1,F2"]
        assert p.facets_containing("p13") == ["F1", "F3"]

    def test_provenance(self):
        inst = corpus.triangle()
        cut = cut_face(inst.poset, inst.lam, "p12")

        def provenance(g):
            # a face away from the cut keeps its id g; one inside it becomes the faces g|S
            return sorted(h for h in cut.poset.faces() if h.split("|")[0] == g)

        assert provenance("p13") == ["p13"]
        assert provenance("p12") == ["p12|F1", "p12|F1,F2", "p12|F2"]

    def test_h_vector_and_counts(self):
        inst = corpus.triangle()
        cut = cut_face(inst.poset, inst.lam, "p12")
        fh = fh_vectors(cut.poset)
        assert (fh.f, fh.h) == ((4, 4), (1, 2, 1))
        check = blowup_counts_check(inst.poset, inst.lam, "p12", cut)
        assert check.k == 2
        assert check.vertices_ok and check.betti_ok
        assert check.vertices_after == 4 and check.betti_sum_after == 4
        assert check.formality_preserved


class TestCutCube:
    def test_vertex_cut(self):
        inst = corpus.cube()
        cut = cut_face(inst.poset, inst.lam, "V000")
        p = cut.poset
        assert len(p.facets()) == 7 and len(p.vertices()) == 10
        assert cut.new_facet == "V000|X0,Y0,Z0"
        assert str(cut.lam.vec(cut.new_facet)) == "111"
        assert validate(p).ok
        g = gorenstein_quick_checks(p)
        assert g.pseudo_manifold and g.euler_ok

    def test_vertex_cut_new_facet_is_a_triangle(self):
        inst = corpus.cube()
        cut = cut_face(inst.poset, inst.lam, "V000")
        tri = restrict(cut.poset, cut.new_facet)
        assert tri.n == 2
        assert len(tri.facets()) == 3 and len(tri.vertices()) == 3

    def test_vertex_cut_counts(self):
        inst = corpus.cube()
        check = blowup_counts_check(inst.poset, inst.lam, "V000")
        assert check.k == 3
        assert check.vertices_before == 8 and check.vertices_face == 1
        assert check.vertices_after == 10 and check.vertices_ok
        assert check.betti_sum_before == 8 and check.betti_sum_face == 1
        assert check.betti_sum_after == 10 and check.betti_ok
        assert check.hsiang_before and check.hsiang_after

    def test_edge_cut_counts(self):
        inst = corpus.cube()
        check = blowup_counts_check(inst.poset, inst.lam, "EX0Y0")
        assert check.k == 2
        assert check.vertices_face == 2 and check.betti_sum_face == 2
        assert check.vertices_after == 10 and check.vertices_ok
        assert check.betti_sum_after == 10 and check.betti_ok
        assert check.formality_preserved

    def test_edge_cut_f_vector(self):
        inst = corpus.cube()
        cut = cut_face(inst.poset, inst.lam, "EX0Y0")
        assert fh_vectors(cut.poset).f == (7, 15, 10)
        assert validate(cut.poset).ok


class TestGuards:
    def test_codim_one_rejected(self):
        inst = corpus.triangle()
        with pytest.raises(PreconditionError):
            cut_face(inst.poset, inst.lam, "F1")

    def test_top_rejected(self):
        inst = corpus.triangle()
        with pytest.raises(PreconditionError):
            cut_face(inst.poset, inst.lam, "Q")

    def test_unknown_face(self):
        inst = corpus.triangle()
        with pytest.raises(InputError):
            cut_face(inst.poset, inst.lam, "nope")

    def test_id_collision(self):
        # a triangle whose third vertex happens to be named like a
        # generated id
        codims = {"Q": 0, "F1": 1, "F2": 1, "F3": 1,
                  "p12": 2, "p12|F1": 2, "p23": 2}
        covers = {
            ("F1", "Q"), ("F2", "Q"), ("F3", "Q"),
            ("p12", "F1"), ("p12", "F2"),
            ("p12|F1", "F1"), ("p12|F1", "F3"),
            ("p23", "F2"), ("p23", "F3"),
        }
        p = FacePoset(2, codims, covers)
        with pytest.raises(InputError, match="collides"):
            cut_face(p, corpus.triangle().lam, "p12")


class TestDualSubdivision:
    """Cutting a face subdivides the dual sphere without changing it."""

    def frozen_boundary_betti(self, poset, want):
        oc = order_complex(poset)
        top = poset.top()
        proper = {sx: c for sx, c in oc.simplices.items() if c != top}
        boundary = CarrierComplex(poset, oc.n_points - 1, proper)
        assert betti_mod2(rows(base_chain(boundary))) == want

    def test_triangle_cut_keeps_the_circle(self):
        inst = corpus.triangle()
        cut = cut_face(inst.poset, inst.lam, "p12")
        self.frozen_boundary_betti(inst.poset, (1, 1))
        self.frozen_boundary_betti(cut.poset, (1, 1))

    def test_cube_cuts_keep_the_sphere(self):
        inst = corpus.cube()
        for f in ("V000", "EX0Y0"):
            cut = cut_face(inst.poset, inst.lam, f)
            self.frozen_boundary_betti(cut.poset, (1, 0, 1))

    def test_dual_cell_count_change(self):
        # cutting a codim-k face replaces its dual cell with a cone over
        # its boundary: face counts grow by the new-face grid
        inst = corpus.cube()
        cut = cut_face(inst.poset, inst.lam, "V000")
        assert len(cut.poset.codims) == 33
        cut2 = cut_face(inst.poset, inst.lam, "EX0Y0")
        assert len(cut2.poset.codims) == 33


class TestAcyclicityPreservation:
    def test_triangle_versus_quadrilateral_mode_b(self):
        tri_poset = corpus.triangle().poset
        tri_complex = CarrierComplex(
            tri_poset,
            3,
            {
                (0,): "p12", (1,): "p13", (2,): "p23",
                (0, 1): "F1", (0, 2): "F2", (1, 2): "F3",
                (0, 1, 2): "Q",
            },
        )
        quad = corpus.cut_triangle()
        # a blow-up preserves face-acyclicity
        assert is_face_acyclic(tri_complex).verdict
        assert is_face_acyclic(quad.triangulation).verdict

    def test_formality_preserved_on_small_cuts(self):
        for name, f in (
            ("triangle", "p12"),
            ("square_torus", "BL"),
            ("square_klein", "TR"),
            ("bigon", "v1"),
        ):
            inst = corpus.BUILDERS[name]()
            check = blowup_counts_check(inst.poset, inst.lam, f)
            assert check.vertices_ok and check.betti_ok, (name, f)
            assert check.formality_preserved, (name, f)

    def test_iterated_cuts(self):
        inst = corpus.triangle()
        cut = cut_face(inst.poset, inst.lam, "p12")
        again = cut_face(cut.poset, cut.lam, "p13")
        assert validate(again.poset).ok
        assert len(again.poset.vertices()) == 5
        check = blowup_counts_check(cut.poset, cut.lam, "p13", again)
        assert check.vertices_ok and check.betti_ok


def containment_oracle(p, f):
    """Containment in the poset cut at f, by brute force over all pairs:
    {face id: ids of the faces containing it, itself included}.  Entries
    are old ids or (g, S) for g inside f and S a nonempty subset of the
    facets through f."""
    T = tuple(p.facets_containing(f))
    below_f = below_oracle(p)[f]
    old = [g for g in p.faces() if g not in below_f]
    facet_sets = {h: frozenset(p.facets_containing(h)) for h in old}

    def leq(a, b) -> bool:
        """Containment in the cut poset; entries are old ids or (g, S)."""
        if isinstance(a, str) and isinstance(b, str):
            return p.leq(a, b)
        if isinstance(a, tuple) and isinstance(b, tuple):
            return p.leq(a[0], b[0]) and set(a[1]) <= set(b[1])
        if isinstance(a, tuple) and isinstance(b, str):
            return p.leq(a[0], b) and not (facet_sets[b] & set(a[1]))
        return False  # old face never sits inside a new one

    entries: list[tuple[str, object]] = [(g, g) for g in old]
    for g in sorted(below_f, key=lambda f: (p.codims[f], f)):
        for size in range(1, len(T) + 1):
            entries += [(f"{g}|{','.join(S)}", (g, S)) for S in combinations(T, size)]
    return {ida: {idb for idb, b in entries if leq(a, b)} | {ida} for ida, a in entries}


def assert_cut_matches_oracle(p, lam, f):
    cut = cut_face(p, lam, f)
    want = containment_oracle(p, f)
    assert set(cut.poset.codims) == set(want)
    got = above_oracle(cut.poset)
    for g, above in want.items():
        assert got[g] == above, (f, g)
    return cut


def random_basis(n, rng):
    """The images of the unit vectors under a random invertible linear
    map of GF(2)^n, as bits."""
    while True:
        images = [rng.getrandbits(n) for _ in range(n)]
        if Matrix(tuple(images), n).rank() == n:
            return images


SWEEP = dict(corpus.BUILDERS)
SWEEP.update({f"ncube({n})": lambda n=n: corpus.ncube(n) for n in (2, 3, 4)})


class TestCoversAgainstBruteForce:
    """cut_face lists the covers from three rules; the order they generate
    must be the brute-force containment of the cut poset."""

    @pytest.mark.parametrize("name", list(SWEEP))
    def test_every_cut_of_the_sweep(self, name):
        inst = SWEEP[name]()
        p, lam = inst.poset, inst.lam
        ok = validate(p).ok
        images = random_basis(p.n, random.Random(name))
        moved = change_basis(lam, images)
        for f in p.faces():
            if p.codim(f) >= 2:
                cut = assert_cut_matches_oracle(p, lam, f)
                assert validate(cut.poset).ok == ok, f
                # cut_face does not validate its output: these checks are its oracle
                assert validate_lambda(cut.poset, cut.lam).ok, f
                other = cut_face(p, moved, f)
                assert validate_lambda(other.poset, other.lam).ok, f
                # the new label is a sum, so a change of basis commutes with the cut
                assert other.lam == change_basis(cut.lam, images), f

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_cut_chains(self, data):
        build = data.draw(st.sampled_from([corpus.triangle, corpus.square_torus, corpus.cube]))
        inst = build()
        p, lam = inst.poset, inst.lam
        seed = data.draw(st.integers(min_value=0, max_value=9999))
        lam = change_basis(lam, random_basis(p.n, random.Random(seed)))
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            cuttable = [f for f in p.faces() if p.codim(f) >= 2]
            cut = assert_cut_matches_oracle(p, lam, data.draw(st.sampled_from(cuttable)))
            assert validate(cut.poset).ok
            assert validate_lambda(cut.poset, cut.lam).ok
            p, lam = cut.poset, cut.lam

    @pytest.mark.parametrize(
        "drop, add, hits",
        [
            ({("F1", "Q"), ("F2", "Q")}, {}, 0),  # nothing above p12 on no facets
            (set(), {"Q2": ("F1", "Q2")}, 2),  # two top faces above p12
        ],
    )
    def test_one_old_face_above_each_new_face(self, drop, add, hits):
        # without one old face above (p12, S) on the facets of p12 minus S
        # the poset is not sound, and the input check refuses it first
        inst = corpus.triangle()
        p = inst.poset
        codims = dict(p.codims) | {g: 0 for g in add}
        covers = (set(p.covers) - drop) | set(add.values())
        q = FacePoset(p.n, codims, covers)
        assert sum(q.leq("p12", h) for h in q.faces() if not q.facets_containing(h)) == hits
        with pytest.raises(InputError) as err:
            cut_face(q, inst.lam, "p12")
        assert err.value.messages == ["cut input fails validation"] + validate(q).witnesses()


def lam_of(**values):
    return CharFunction(len(next(iter(values.values()))), {
        F: Vec.from_string(v) for F, v in values.items()
    })


class TestInputChecked:
    """cut_face checks its input, from the results kept on it, and does not
    validate the cut: a sound poset with independent labels cuts to one."""

    @pytest.mark.parametrize(
        "lam, found",
        [
            (lam_of(F1="10", F2="10", F3="01"),
             "face p12: facet labels ['10', '10'] of ['F1', 'F2'] are dependent"),
            (lam_of(F1="10", F2="01"), "facet F3 has no lambda value"),
        ],
    )
    def test_bad_labels_are_refused(self, lam, found):
        p = corpus.triangle().poset
        with pytest.raises(InputError, match="^cut input fails validation") as err:
            cut_face(p, lam, "p13")
        assert err.value.messages == ["cut input fails validation", found]

    def test_simplicial_finding_past_the_cover_rules_is_refused(self):
        # a second edge e2 beside EX0Y0, on the same two facets and over
        # the same two vertices; V111 is far from it, so only the input
        # check, which runs before the cut, sees it
        p = corpus.cube().poset
        codims = dict(p.codims, e2=2)
        covers = set(p.covers) | {("e2", "X0"), ("e2", "Y0"), ("V000", "e2"), ("V001", "e2")}
        q = FacePoset(3, codims, covers)
        with pytest.raises(InputError, match="^cut input fails validation") as err:
            cut_face(q, corpus.cube().lam, "V111")
        assert err.value.messages[1:] == validate(q).simplicial != []

    @pytest.mark.parametrize("name", ["triangle", "square_torus", "bigon", "cube"])
    def test_every_cut_of_every_single_edit(self, name):
        # on a sound edit every cut is sound with independent labels, and an
        # unsound one is refused by the input check
        inst = corpus.BUILDERS[name]()
        sound = refused = 0
        for e in edits(inst.poset):
            p = apply_edit(inst.poset, e)
            good = validate(p).sound
            labels = {F: inst.lam.vec(F) for F in p.facets() if F in inst.lam.values}
            lam = CharFunction(inst.lam.n, labels)
            good = good and validate_lambda(p, lam).ok
            for f in p.faces():
                if not 2 <= p.codim(f) <= p.n:
                    continue
                if not good:
                    with pytest.raises(InputError, match="^cut input fails validation"):
                        cut_face(p, lam, f)
                    refused += 1
                    continue
                cut = cut_face(p, lam, f)
                assert validate(cut.poset).sound, (e, f)
                assert validate_lambda(cut.poset, cut.lam).ok, (e, f)
                sound += 1
        assert sound and refused

    def test_each_input_is_validated_once(self, monkeypatch):
        # the checks on the input read the results kept on it: the load,
        # and each cut of a chain, validate a poset and its labels once
        calls = []

        def counted(fn):
            def count(*args):
                calls.append((fn.__name__, id(args[0])))
                return fn(*args)

            return kept(count)

        monkeypatch.setattr(poset, "_findings", counted(poset._findings.__wrapped__))
        lam_check = counted(charfunc.validate_lambda.__wrapped__)
        monkeypatch.setattr(charfunc, "validate_lambda", lam_check)
        inst = corpus.cube()
        p, lam = inst.poset, inst.lam
        posets = []
        for f in ("V000", "EX1Y1", "V011"):
            validate(p), lam_check(p, lam)  # as load_instance reads them
            posets.append(p)
            cut = cut_face(p, lam, f)
            p, lam = cut.poset, cut.lam
        want = [(name, id(q)) for q in posets for name in ("_findings", "validate_lambda")]
        assert calls == want
