"""The canonical quotient model: Betti oracles, fixed sets, components."""

import gc
import weakref

import pytest
from conftest import MASK_READERS_SWEEP, above_oracle
from paper_checks import facial_components, simplicial_model
from restrictions import isotropy

from z2torus import corpus, model
from z2torus.charfunc import CharFunction, validate_lambda
from z2torus.complexes import CarrierComplex, face_acyclicity
from z2torus.errors import InputError, PreconditionError
from z2torus.gf2 import Vec
from z2torus.model import (
    FixedLocus,
    build_quotient,
    fixed_locus,
    formality_verdict,
)
from z2torus.poset import fh_vectors, order_complex, validate


def surrogate_model(inst):
    return build_quotient(order_complex(inst.poset), inst.lam)


class TestBettiOracles:
    def test_segment_gives_a_circle(self):
        q = surrogate_model(corpus.segment())
        assert q.betti() == (1, 1)

    def test_triangle_gives_projective_plane(self):
        q = surrogate_model(corpus.triangle())
        assert q.betti() == (1, 1, 1)

    def test_square_torus(self):
        inst = corpus.square_torus()
        q = build_quotient(inst.triangulation, inst.lam)
        assert q.betti() == (1, 2, 1)

    def test_square_klein(self):
        inst = corpus.square_klein()
        q = build_quotient(inst.triangulation, inst.lam)
        assert q.betti() == (1, 2, 1)

    def test_torus_and_klein_differ_over_the_integers_not_mod_2(self):
        # mod-2 homology cannot separate them; the cell counts agree too
        t, k = corpus.square_torus(), corpus.square_klein()
        t_cells, _ = simplicial_model(t.triangulation, t.lam)
        k_cells, _ = simplicial_model(k.triangulation, k.lam)
        assert list(map(len, t_cells)) == list(map(len, k_cells))

    def test_bigon_gives_a_sphere(self):
        q = surrogate_model(corpus.bigon())
        assert q.betti() == (1, 0, 1)

    def test_cube_gives_the_three_torus(self):
        q = surrogate_model(corpus.cube())
        assert q.betti() == (1, 3, 3, 1)

    def test_annulus_mode_b(self):
        inst = corpus.annulus()
        q = build_quotient(inst.triangulation, inst.lam)
        assert sum(q.betti()) == 4

    def test_mode_agreement_on_the_square(self):
        # surrogate and genuine triangulation give the same Betti numbers
        inst = corpus.square_torus()
        assert surrogate_model(inst).betti() == build_quotient(
            inst.triangulation, inst.lam
        ).betti()


class TestCellStructure:
    def test_coset_counts(self):
        inst = corpus.square_torus()
        tri = inst.triangulation
        cells, _ = simplicial_model(tri, inst.lam)
        # one cell per vertex of Q, four per interior simplex
        zero_cells = cells[0]
        verts = set(inst.poset.vertices())
        assert sum(1 for sx, _ in zero_cells if tri.carrier(sx) in verts) == 4
        top_cells = cells[2]
        assert len(top_cells) == 2 * 4

    def test_vertex_cells_count_equals_fixed_points(self):
        for name in ("triangle", "square_torus", "cube", "segment", "bigon"):
            inst = corpus.BUILDERS[name]()
            c = inst.triangulation or order_complex(inst.poset)
            q = build_quotient(c, inst.lam)
            verts = set(inst.poset.vertices())
            fixed_cells = [
                (sx, rep)
                for cells in q.cells
                for sx, rep in cells
                if q.base.carrier(sx) in verts
            ]
            assert len(fixed_cells) == len(verts), name

    def test_carrier_monotonicity_guard(self):
        inst = corpus.triangle()
        c = CarrierComplex(
            inst.poset, 2, {(0,): "Q", (1,): "p12", (0, 1): "p12"}
        )
        with pytest.raises(InputError, match="not inside"):
            build_quotient(c, inst.lam)


def fixed_locus_oracle(p, lam, g, above):
    """fixed_locus as it read the up-sets, here those of the recursive
    closure: the hits with no other hit above them."""
    hits = {f for f in p.faces() if isotropy(p, lam, f).contains(g)}
    maximal = sorted((f for f in hits if above[f] & hits == {f}), key=lambda f: (p.codims[f], f))
    discrete = bool(maximal) and all(p.codim(f) == p.n for f in maximal)
    return FixedLocus(tuple(maximal), discrete, len(maximal) if discrete else None)


class TestFixedSets:
    @pytest.mark.parametrize("name", list(MASK_READERS_SWEEP))
    def test_every_element_matches_the_oracle(self, name):
        p, lam = MASK_READERS_SWEEP[name]
        above = above_oracle(p)
        for bits in range(1, 1 << lam.n):
            g = Vec(bits, lam.n)
            assert fixed_locus(p, lam, g) == fixed_locus_oracle(p, lam, g, above), str(g)

    def test_fixed_points(self):
        # each vertex of Q is one cell of the model, fixed by the whole group
        vertices = corpus.cube().poset.vertices()
        assert len(vertices) == len(set(vertices)) == 8

    def test_cube_locus_of_the_diagonal(self):
        inst = corpus.cube()
        loc = fixed_locus(inst.poset, inst.lam, Vec.from_string("111"))
        assert loc.discrete and loc.size == 8
        assert list(loc.faces) == inst.poset.vertices()

    def test_cube_locus_of_a_coordinate(self):
        inst = corpus.cube()
        loc = fixed_locus(inst.poset, inst.lam, Vec.from_string("100"))
        assert not loc.discrete and loc.size is None
        assert loc.faces == ("X0", "X1")

    def test_square_torus_locus(self):
        inst = corpus.square_torus()
        loc = fixed_locus(inst.poset, inst.lam, Vec.from_string("11"))
        assert loc.discrete and loc.size == 4

    def test_annulus_empty_locus(self):
        inst = corpus.annulus()
        loc = fixed_locus(inst.poset, inst.lam, Vec.from_string("11"))
        assert loc.faces == () and not loc.discrete

    def test_zero_element_rejected(self):
        inst = corpus.cube()
        with pytest.raises(InputError):
            fixed_locus(inst.poset, inst.lam, Vec(0, 3))

    def test_labels_that_fail_validation_are_refused(self):
        p = corpus.cube().poset
        lam = CharFunction(3, {F: Vec.from_string("100") for F in p.facets()})
        with pytest.raises(InputError) as err:
            fixed_locus(p, lam, Vec.from_string("100"))
        assert err.value.messages == ["fixed-locus input fails validation"] + (
            validate_lambda(p, lam).witnesses()
        )

    def test_an_element_of_another_width_is_refused(self):
        inst = corpus.cube()
        with pytest.raises(InputError, match="^g has 4 bits, lambda has width 3$"):
            fixed_locus(inst.poset, inst.lam, Vec.from_string("1000"))


class TestFacialComponents:
    def test_annulus_facet_preimage_has_two_components(self):
        inst = corpus.annulus()
        tri = inst.triangulation
        assert facial_components(tri, inst.lam, "F1") == 2
        assert facial_components(tri, inst.lam, "F2") == 2
        assert facial_components(tri, inst.lam, "Q") == 1

    def test_square_facet_preimage_is_connected(self):
        inst = corpus.square_torus()
        for f in inst.poset.faces():
            assert facial_components(inst.triangulation, inst.lam, f) == 1


class TestFormalityVerdict:
    def test_labels_that_fail_validation_get_no_verdict(self):
        # each verdict would read as a counterexample, on input outside the theorem
        cube, torus = corpus.cube(), corpus.square_torus()
        p = cube.poset
        cases = [
            (p, CharFunction(3, {F: Vec.from_string("100") for F in p.facets()})),
            (p, CharFunction(2, {F: Vec(v.bits & 3, 2) for F, v in cube.lam.values.items()})),
            (torus.triangulation, CharFunction(2, {F: Vec.from_string("10") for F in "LRTB"})),
        ]
        for base, lam in cases:
            found = validate_lambda(base.poset, lam).witnesses()
            assert found
            with pytest.raises(InputError) as err:
                formality_verdict(base, lam)
            assert err.value.messages == ["model input fails validation"] + found

    def test_triangle(self):
        inst = corpus.triangle()
        v = formality_verdict(inst.poset, inst.lam)
        assert v.mode == "A"
        assert v.hsiang and v.criterion and v.h_identity and v.agree
        assert v.betti == (1, 1, 1) and v.h == (1, 1, 1)

    def test_annulus(self):
        inst = corpus.annulus()
        v = formality_verdict(inst.base, inst.lam)
        assert v.mode == "B"
        assert not v.hsiang and not v.criterion and not v.h_identity
        assert v.agree
        assert v.sum_betti == 4 and v.n_vertices == 0
        assert v.acyclicity_witnesses

    def test_mode_b_corpus_coherence(self):
        for name in ("square_torus", "square_klein", "annulus", "cut_triangle"):
            inst = corpus.BUILDERS[name]()
            v = formality_verdict(inst.base, inst.lam)
            assert v.hsiang == v.criterion, name

    def test_hsiang_inequality_corpus_wide(self):
        for name, build in corpus.BUILDERS.items():
            inst = build()
            v = formality_verdict(inst.base, inst.lam)
            assert v.n_vertices <= v.sum_betti, name


def labels(n, **values):
    return CharFunction(n, {k: Vec.from_string(v) for k, v in values.items()})


class TestKeptOnThePoset:
    """formality_verdict, face_acyclicity, validate and fh_vectors keep their
    last result on the cell complex they are given first, a triangulation
    or the poset, with the labelling it was computed for.  Each kept result must equal the
    same computation on a freshly loaded copy, whatever was asked of the
    poset before."""

    def test_each_labelling_and_triangulation_gets_its_own_verdict(self):
        inst = corpus.bundled("square_torus")
        klein = corpus.bundled("square_klein").lam  # the same facets L, R, T, B
        bases = (inst.triangulation, inst.poset)
        combos = [(lam, base) for lam in (inst.lam, klein) for base in bases]

        def fresh(lam, base):
            copy = corpus.bundled("square_torus")
            fresh_lam = copy.lam if lam is inst.lam else corpus.bundled("square_klein").lam
            return formality_verdict(copy.poset if base is inst.poset else copy.triangulation, fresh_lam)

        want = [fresh(lam, base) for lam, base in combos]
        assert [v.mode for v in want] == ["B", "A", "B", "A"]
        for order in (combos, combos[::-1], combos):
            got = {(id(lam), id(base)): formality_verdict(base, lam) for lam, base in order}
            assert [got[id(lam), id(base)] for lam, base in combos] == want
        # one slot per function: a verdict for a second labelling takes the
        # first one's place, so the first labelling is then freed at once
        for base in bases:
            first = corpus.bundled("square_torus").lam
            assert formality_verdict(base, first) == fresh(inst.lam, base)
            gone = weakref.ref(first)
            gc.disable()
            try:
                assert formality_verdict(base, klein) == fresh(klein, base)
                del first
                assert gone() is None
            finally:
                gc.enable()

    def test_a_new_labelling_never_reads_a_dropped_ones_verdict(self):
        # equal labels on the annulus's two circles give two tori, distinct
        # labels one.  Each labelling is dropped right after its call, so
        # the next one may be built where it was.
        inst = corpus.annulus()
        values = [{"F1": "10", "F2": "10"}, {"F1": "10", "F2": "01"}]
        want = []
        for v in values:
            copy = corpus.annulus()
            want.append(formality_verdict(copy.base, labels(2, **v)))
        assert [w.betti for w in want] == [(2, 4, 2), (1, 2, 1)]
        got = [
            formality_verdict(inst.base, labels(2, **values[i % 2]))
            for i in range(8)
        ]
        assert got == want * 4

    def test_a_failed_cw_gate_raises_on_every_call(self):
        inst = corpus.annulus()  # its facets are circles without vertices
        for _ in range(2):
            with pytest.raises(PreconditionError, match="mode A needs a CW poset"):
                face_acyclicity(inst.poset)
            with pytest.raises(PreconditionError, match="mode A needs a CW poset"):
                formality_verdict(inst.poset, inst.lam)
        v = formality_verdict(inst.base, inst.lam)
        assert v.mode == "B" and v.sum_betti == 4

    def test_validate_and_fh_vectors_match_a_fresh_copy(self):
        for name in ("cube", "annulus", "cut_cube_edge"):
            p, q = corpus.BUILDERS[name]().poset, corpus.BUILDERS[name]().poset
            rep, again = validate(p), validate(p)
            assert again.simplicial is rep.simplicial and rep == again == validate(q)
            assert (rep.has_vertex, rep.skeleton_connected, rep.ok) == (
                validate(q).has_vertex, validate(q).skeleton_connected, validate(q).ok
            )
            assert fh_vectors(p) is fh_vectors(p) and fh_vectors(p) == fh_vectors(q)

    @pytest.mark.parametrize("name", ["cube", "square_klein", "annulus"])
    def test_a_dropped_poset_is_freed_at_once(self, name):
        # nothing kept on a poset or triangulation refers back to it, so no
        # garbage cycle outlives them; an instance's triangulation refers to
        # its poset
        inst = corpus.BUILDERS[name]()
        p, lam, tri, base = inst.poset, inst.lam, inst.triangulation, inst.base
        validate(p).ok, fh_vectors(p), face_acyclicity(base), formality_verdict(base, lam)
        gone = [weakref.ref(x) for x in (p, lam, tri) if x is not None]
        assert len(gone) == (2 if name == "cube" else 3)
        gc.disable()
        try:
            del inst, p, lam, tri, base
            assert [ref() for ref in gone] == [None] * len(gone)
        finally:
            gc.enable()

    def test_the_model_is_not_kept(self, monkeypatch):
        models = []

        def build(base, lam):
            q = build_quotient(base, lam)
            models.append(weakref.ref(q))
            return q

        monkeypatch.setattr(model, "build_quotient", build)
        inst = corpus.cube()
        v = formality_verdict(inst.poset, inst.lam)
        gc.collect()
        assert v.betti == (1, 3, 3, 1)
        assert len(models) == 1 and models[0]() is None
