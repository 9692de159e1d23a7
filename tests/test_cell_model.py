"""The mode-A face-coset model against the order-complex oracle, and the
CW gate that guards it."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2torus import corpus
from z2torus.blowup import cut_face
from z2torus.complexes import FaceComplex, betti_mod2, chain_complex, cw_failures
from z2torus.errors import PreconditionError
from z2torus.model import build_quotient, facial_components, formality_verdict
from z2torus.poset import order_complex

CW_CORPUS = [name for name in corpus.BUILDERS if name != "annulus"]


def oracle(p, lam):
    return build_quotient(order_complex(p), lam)


def face_model(p, lam):
    return build_quotient(FaceComplex(p), lam)


def assert_matches_oracle(p, lam):
    assert cw_failures(p) == []
    want = oracle(p, lam).betti()
    assert face_model(p, lam).betti() == want
    assert formality_verdict(p, lam).betti == want
    return want


@pytest.mark.parametrize("name", CW_CORPUS)
def test_corpus_betti_matches_the_order_complex(name):
    inst = corpus.BUILDERS[name]()
    want = assert_matches_oracle(inst.poset, inst.lam)
    if inst.triangulation is not None:
        assert build_quotient(inst.triangulation, inst.lam).betti() == want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ncube_betti_matches_the_order_complex(n):
    inst = corpus.ncube(n)
    assert assert_matches_oracle(inst.poset, inst.lam) == tuple(comb(n, k) for k in range(n + 1))


def test_four_cube_is_the_four_torus_from_256_cells():
    inst = corpus.ncube(4)
    q = face_model(inst.poset, inst.lam)
    assert q.cell_count() == 4**4
    assert q.betti() == (1, 4, 6, 4, 1)


def test_ncube_three_is_the_bundled_cube():
    inst = corpus.ncube(3)
    assert len(inst.poset.codims) == len(corpus.cube().poset.codims) == 27
    assert formality_verdict(inst.poset, inst.lam).betti == (1, 3, 3, 1)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_cut_chains_match_the_order_complex(data):
    inst = corpus.BUILDERS[data.draw(st.sampled_from(["triangle", "cube"]))]()
    p, lam = inst.poset, inst.lam
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        cuttable = [f for f in p.faces() if p.codim(f) >= 2]
        cut = cut_face(p, lam, data.draw(st.sampled_from(cuttable)))
        p, lam = cut.poset, cut.lam
    assert_matches_oracle(p, lam)


@pytest.mark.parametrize("name", CW_CORPUS)
def test_facial_components_agree_on_both_cell_complexes(name):
    inst = corpus.BUILDERS[name]()
    cells, simplices = face_model(inst.poset, inst.lam), oracle(inst.poset, inst.lam)
    for f in inst.poset.faces():
        assert facial_components(cells, f) == facial_components(simplices, f), f


def test_gate_rejects_the_annulus_poset():
    inst = corpus.annulus()
    assert cw_failures(inst.poset) == ["F1", "F2", "Q"]
    with pytest.raises(PreconditionError, match="F1, F2, Q.*triangulation"):
        formality_verdict(inst.poset, inst.lam)
    # mode B on the same poset still runs
    assert formality_verdict(inst.poset, inst.lam, inst.triangulation).sum_betti == 4


def test_face_complex_of_the_cube_boundary_is_a_sphere():
    p = corpus.cube().poset
    boundary = FaceComplex(p, set(p.codims) - {"Q"})
    assert chain_complex(boundary).dims == (8, 12, 6)
    assert betti_mod2(chain_complex(boundary)) == (1, 0, 1)
    cells = FaceComplex(p)
    assert [len(level) for level in cells.by_dim()] == [8, 12, 6, 1]
