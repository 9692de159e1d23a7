"""The mode-A face-coset model against the order-complex oracle, and the
CW gate that guards it."""

from math import comb

import pytest
from conftest import below_oracle, reduced, rows
from hypothesis import given, settings
from hypothesis import strategies as st
from paper_checks import facial_components

from z2torus import corpus
from z2torus.blowup import cut_face
from z2torus.charfunc import CharFunction
from z2torus.complexes import (
    QuotientComplex,
    _walk,
    base_chain,
    betti_mod2,
    face_acyclicity,
    is_face_acyclic,
    reduced_chain,
)
from z2torus.errors import InputError, PreconditionError
from z2torus.gf2 import Vec
from z2torus.instance import parse_instance
from z2torus.model import build_quotient, formality_verdict
from z2torus.poset import FacePoset, order_complex, validate

CW_CORPUS = [name for name in corpus.BUILDERS if name != "annulus"]


def by_dim(p, faces):
    return sorted(faces, key=lambda f: (p.dim_face(f), f))


class FaceSubcomplex:
    """The cells of p's face complex among `faces`, a down-closed set.  It
    is neither a FacePoset nor a CarrierComplex, so `base_chain` refuses
    it: walk it with `_walk`."""

    def __init__(self, p, faces):
        self.poset = p
        self.faces = frozenset(faces)

    def by_dim(self):
        p = self.poset
        out = [[] for _ in range(max((p.dim_face(f) + 1 for f in self.faces), default=0))]
        for f in sorted(self.faces):
            out[p.dim_face(f)].append(f)
        return out

    def carrier(self, f):
        return f

    def boundary(self, f):
        return self.poset.children(f)


def gate_failures(p):
    """Faces where the CW gate, face acyclicity on the face complex, fails."""
    return by_dim(p, (f for f, bs in is_face_acyclic(p).per_face.items() if any(bs)))


def sphere_failures(p):
    """Oracle for the gate: the faces f of dimension d >= 1 whose boundary,
    the faces strictly below f, lacks the reduced mod-2 Betti numbers of
    S^(d-1), each boundary built as a chain complex of its own."""
    below = below_oracle(p)
    failing = []
    for f in by_dim(p, p.codims):
        d = p.dim_face(f)
        if d == 0:
            continue
        b = reduced(betti_mod2(rows(_walk(FaceSubcomplex(p, below[f] - {f})))))
        if b + (0,) * (d - len(b)) != (0,) * (d - 1) + (1,):
            failing.append(f)
    return failing


def oracle(p, lam):
    return build_quotient(order_complex(p), lam)


def face_model(p, lam):
    return build_quotient(p, lam)


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
    p, lam = inst.poset, inst.lam
    simplices = order_complex(p)
    for f in p.faces():
        assert facial_components(p, lam, f) == facial_components(simplices, lam, f), f


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
    assert formality_verdict(inst.triangulation, inst.lam).sum_betti == 4


def test_face_complex_of_the_cube_boundary_is_a_sphere():
    p = corpus.cube().poset
    boundary = FaceSubcomplex(p, set(p.codims) - {"Q"})
    boundary_rows = rows(_walk(boundary))
    assert tuple(map(len, boundary_rows)) == (8, 12, 6)
    assert betti_mod2(boundary_rows) == (1, 0, 1)
    assert [len(level) for level in p.by_dim()] == [8, 12, 6, 1]


def test_base_chain_refuses_a_face_subcomplex():
    # it would otherwise be handed the chain kept on p, the whole face complex's
    p = corpus.cube().poset
    base_chain(p)
    with pytest.raises(
        TypeError, match="^a base is a FacePoset or a CarrierComplex, not FaceSubcomplex$"
    ):
        base_chain(FaceSubcomplex(p, set(p.codims) - {"Q"}))


@pytest.mark.parametrize(
    "entry",
    [
        base_chain,
        reduced_chain,
        is_face_acyclic,
        face_acyclicity,
        lambda base: formality_verdict(base, corpus.cube().lam),
    ],
    ids=["base_chain", "reduced_chain", "is_face_acyclic", "face_acyclicity", "formality_verdict"],
)
def test_an_entry_point_refuses_what_is_not_a_base(entry):
    # `kept` refuses the first argument before anything reads it
    p = corpus.cube().poset
    for base in ("x", FaceSubcomplex(p, set(p.codims) - {"Q"})):
        name = type(base).__name__
        with pytest.raises(
            TypeError, match=f"^a base is a FacePoset or a CarrierComplex, not {name}$"
        ):
            entry(base)


def test_gate_rejects_the_split_annulus_at_q_alone(split_annulus_data):
    inst = parse_instance(split_annulus_data)
    p = inst.poset
    rep = validate(p)
    assert rep.sound and rep.skeleton_connected and not rep.has_vertex
    assert gate_failures(p) == sphere_failures(p) == ["Q"]
    assert is_face_acyclic(p).per_face["Q"] == (1, 1, 0)
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
    # v < E < Q with no second middle face: the boundary of Q's boundary is
    # v.  Only a sound poset's face complex squares to zero, so the chain is
    # refused with validate's findings, which name v, before it is read.
    p = FacePoset(2, {"Q": 0, "E": 1, "v": 2}, {("v", "E"), ("E", "Q")})
    found = validate(p).witnesses()
    assert found and all(line.startswith("face v") for line in found)
    lam = CharFunction(2, {"E": Vec.from_string("10")})
    for refused, lines in (
        (lambda: is_face_acyclic(p), found),
        (lambda: face_acyclicity(p), found),
        (lambda: formality_verdict(p, lam), ["model input fails validation"] + found),
        (lambda: QuotientComplex(p, lam), found),
    ):
        with pytest.raises(InputError) as err:
            refused()
        assert err.value.messages == lines
