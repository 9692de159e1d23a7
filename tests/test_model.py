"""The canonical quotient model: Betti oracles, fixed sets, components."""

import pytest

from z2torus import corpus
from z2torus.charfunc import CharFunction
from z2torus.complexes import CarrierComplex
from z2torus.errors import InputError
from z2torus.gf2 import Vec
from z2torus.model import (
    build_quotient,
    facial_components,
    fixed_locus,
    formality_verdict,
)
from z2torus.poset import order_complex


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
        t = build_quotient(corpus.square_torus().triangulation, corpus.square_torus().lam)
        k = build_quotient(corpus.square_klein().triangulation, corpus.square_klein().lam)
        assert t.cell_count() == k.cell_count()

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
        q = build_quotient(inst.triangulation, inst.lam)
        # one cell per vertex of Q, four per interior simplex
        zero_cells = q.cells[0]
        verts = set(inst.poset.vertices())
        assert sum(1 for sx, _ in zero_cells if q.base.carrier(sx) in verts) == 4
        top_cells = q.cells[2]
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


class TestFixedSets:
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
            fixed_locus(inst.poset, inst.lam, Vec.zero(3))


class TestFacialComponents:
    def test_annulus_facet_preimage_has_two_components(self):
        inst = corpus.annulus()
        q = build_quotient(inst.triangulation, inst.lam)
        assert facial_components(q, "F1") == 2
        assert facial_components(q, "F2") == 2
        assert facial_components(q, "Q") == 1

    def test_square_facet_preimage_is_connected(self):
        inst = corpus.square_torus()
        q = build_quotient(inst.triangulation, inst.lam)
        for f in inst.poset.faces():
            assert facial_components(q, f) == 1


class TestFormalityVerdict:
    def test_triangle(self):
        inst = corpus.triangle()
        v = formality_verdict(inst.poset, inst.lam)
        assert v.mode == "A"
        assert v.hsiang and v.criterion and v.h_identity and v.agree
        assert v.betti == (1, 1, 1) and v.h == (1, 1, 1)

    def test_annulus(self):
        inst = corpus.annulus()
        v = formality_verdict(inst.poset, inst.lam, inst.triangulation)
        assert v.mode == "B"
        assert not v.hsiang and not v.criterion and not v.h_identity
        assert v.agree
        assert v.sum_betti == 4 and v.n_vertices == 0
        assert v.acyclicity_witnesses

    def test_mode_b_corpus_coherence(self):
        for name in ("square_torus", "square_klein", "annulus", "cut_triangle"):
            inst = corpus.BUILDERS[name]()
            v = formality_verdict(inst.poset, inst.lam, inst.triangulation)
            assert v.hsiang == v.criterion, name

    def test_hsiang_inequality_corpus_wide(self):
        for name, build in corpus.BUILDERS.items():
            inst = build()
            v = formality_verdict(inst.poset, inst.lam, inst.triangulation)
            assert v.n_vertices <= v.sum_betti, name
