"""The mode-A face-coset model against the order-complex oracle, and the
CW gate that guards it."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2torus import corpus
from z2torus.blowup import cut_face
from z2torus.complexes import (
    FaceComplex,
    betti_mod2,
    chain_complex,
    face_acyclicity,
    is_face_acyclic,
    reduced_betti,
)
from z2torus.errors import PreconditionError
from z2torus.instance import parse_instance
from z2torus.model import build_quotient, facial_components, formality_verdict
from z2torus.poset import FacePoset, order_complex, validate

CW_CORPUS = [name for name in corpus.BUILDERS if name != "annulus"]


def by_dim(p, faces):
    return sorted(faces, key=lambda f: (p.dim_face(f), f))


def gate_failures(p):
    """Faces where the CW gate, face acyclicity on the face complex, fails."""
    return by_dim(p, (f for f, bs in is_face_acyclic(FaceComplex(p)).per_face.items() if any(bs)))


def sphere_failures(p):
    """Oracle for the gate: the faces f of dimension d >= 1 whose boundary,
    the faces strictly below f, lacks the reduced mod-2 Betti numbers of
    S^(d-1), each boundary built as a chain complex of its own."""
    failing = []
    for f in by_dim(p, p.codims):
        d = p.dim_face(f)
        if d == 0:
            continue
        b = reduced_betti(chain_complex(FaceComplex(p, p.below(f) - {f})))
        if b + (0,) * (d - len(b)) != (0,) * (d - 1) + (1,):
            failing.append(f)
    return failing


def oracle(p, lam):
    return build_quotient(order_complex(p), lam)


def face_model(p, lam):
    return build_quotient(FaceComplex(p), lam)


def assert_matches_oracle(p, lam):
    assert gate_failures(p) == sphere_failures(p) == []
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


@pytest.mark.parametrize("n", [4, 5])
def test_gate_matches_the_sphere_oracle_on_larger_cubes(n):
    p = corpus.ncube(n).poset
    assert gate_failures(p) == sphere_failures(p) == []


def test_gate_rejects_the_annulus_poset():
    inst = corpus.annulus()
    assert gate_failures(inst.poset) == sphere_failures(inst.poset) == ["F1", "F2", "Q"]
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


def test_gate_rejects_the_split_annulus_at_q_alone(split_annulus_data):
    inst = parse_instance(split_annulus_data)
    p = inst.poset
    rep = validate(p)
    assert rep.sound and rep.skeleton_connected and not rep.has_vertex
    assert gate_failures(p) == sphere_failures(p) == ["Q"]
    assert is_face_acyclic(FaceComplex(p)).per_face["Q"] == (1, 1, 0)
    with pytest.raises(PreconditionError, match="fails at Q; supply a triangulation"):
        formality_verdict(p, inst.lam)


def test_gate_names_five_faces_by_dimension_and_counts_the_rest():
    # six edges without vertices: each edge and Q fail, seven faces in all
    edges = [f"e{i}" for i in range(1, 7)]
    p = FacePoset(2, {"Q": 0, **{e: 1 for e in edges}}, {(e, "Q") for e in edges})
    assert gate_failures(p) == sphere_failures(p) == edges + ["Q"]
    with pytest.raises(PreconditionError, match="fails at e1, e2, e3, e4, e5 and 2 more;"):
        face_acyclicity(p)


def test_gate_checks_that_boundaries_square_to_zero():
    # v < E < Q with no second middle face: the boundary of Q's boundary is v
    p = FacePoset(2, {"Q": 0, "E": 1, "v": 2}, {("v", "E"), ("E", "Q")})
    with pytest.raises(ValueError, match="composite"):
        is_face_acyclic(FaceComplex(p))
