"""Carrier complexes, mod-2 homology, and face-acyclicity."""

import pytest

from z2torus import corpus
from z2torus.complexes import (
    CarrierComplex,
    Gf2ChainComplex,
    betti_mod2,
    chain_complex,
    is_face_acyclic,
    reduced_betti,
    validate_carriers,
)
from z2torus.gf2 import Matrix
from z2torus.poset import FacePoset, order_complex

POINT_POSET = FacePoset(0, {"Q": 0}, set())


def face_subcomplex(c, f):
    """Subcomplex of simplices carried inside the face f, renumbered."""
    keep = {sx: cf for sx, cf in c.simplices.items() if c.poset.leq(cf, f)}
    used = sorted({v for sx in keep for v in sx})
    renum = {v: i for i, v in enumerate(used)}
    simplices = {tuple(renum[v] for v in sx): cf for sx, cf in keep.items()}
    return CarrierComplex(c.poset, len(used), simplices)


def rebuilt_acyclicity(c):
    """Oracle for `is_face_acyclic`: one chain complex rebuilt per face."""
    per_face, empty = {}, []
    for f in c.poset.faces():
        sub = face_subcomplex(c, f)
        if sub.simplices:
            per_face[f] = reduced_betti(chain_complex(sub))
        else:
            empty.append(f)
    return per_face, empty


def plain(simplices, n_points):
    """Complex with every simplex carried by a single top face."""
    return CarrierComplex(POINT_POSET, n_points, {sx: "Q" for sx in simplices})


def close_down(tops):
    """All faces of the given simplices."""
    out = set()
    for sx in tops:
        m = len(sx)
        for mask in range(1, 1 << m):
            out.add(tuple(v for i, v in enumerate(sx) if (mask >> i) & 1))
    return out


class TestHomology:
    def test_circle(self):
        c = plain(close_down([(0, 1), (1, 2), (0, 2)]), 3)
        assert betti_mod2(chain_complex(c)) == (1, 1)
        assert reduced_betti(chain_complex(c)) == (0, 1)

    def test_two_points(self):
        c = plain([(0,), (1,)], 2)
        assert betti_mod2(chain_complex(c)) == (2,)

    def test_filled_triangle(self):
        c = plain(close_down([(0, 1, 2)]), 3)
        assert betti_mod2(chain_complex(c)) == (1, 0, 0)

    def test_octahedron_boundary_is_a_sphere(self):
        # vertices 0/1 = poles, 2,3,4,5 = equator square
        tops = []
        for a, b in ((2, 3), (3, 4), (4, 5), (2, 5)):
            tops.append(tuple(sorted((0, a, b))))
            tops.append(tuple(sorted((1, a, b))))
        c = plain(close_down(tops), 6)
        assert betti_mod2(chain_complex(c)) == (1, 0, 1)

    def test_projective_plane(self):
        # 6-vertex triangulation (antipodal icosahedron quotient);
        # every edge lies in exactly two of the ten triangles
        tops = [
            (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
            (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5),
        ]
        c = plain(close_down(tops), 6)
        edges = [sx for sx in c.simplices if len(sx) == 2]
        assert len(edges) == 15
        for e in edges:
            cofaces = [t for t in tops if set(e) <= set(t)]
            assert len(cofaces) == 2, e
        assert betti_mod2(chain_complex(c)) == (1, 1, 1)

    def test_empty_complex(self):
        cc = chain_complex(CarrierComplex(POINT_POSET, 0, {}))
        assert cc.dims == ()
        assert betti_mod2(cc) == ()

    def test_closure_failure(self):
        c = CarrierComplex(POINT_POSET, 2, {(0, 1): "Q", (0,): "Q"})
        with pytest.raises(ValueError, match="misses facet"):
            chain_complex(c)

    def test_boundary_squared_guard(self):
        bad = Gf2ChainComplex(
            (1, 1, 1),
            (Matrix.zero(1, 0), Matrix.from_rows([1], 1), Matrix.from_rows([1], 1)),
        )
        with pytest.raises(ValueError, match="composite"):
            betti_mod2(bad)


class TestCarrierComplex:
    def test_simplex_must_be_sorted_distinct(self):
        with pytest.raises(ValueError):
            CarrierComplex(POINT_POSET, 2, {(1, 0): "Q"})
        with pytest.raises(ValueError):
            CarrierComplex(POINT_POSET, 2, {(0, 0): "Q"})
        with pytest.raises(ValueError):
            CarrierComplex(POINT_POSET, 2, {(0, 5): "Q"})

    def test_dim_and_levels(self):
        tri = corpus.square_torus().triangulation
        assert tri.dim() == 2
        assert [len(level) for level in tri.by_dim()] == [4, 5, 2]


class TestFaceSubcomplex:
    def test_square_facet(self):
        tri = corpus.square_torus().triangulation
        sub = face_subcomplex(tri, "B")
        assert sub.n_points == 2
        assert set(sub.simplices) == {(0,), (1,), (0, 1)}
        assert betti_mod2(chain_complex(sub)) == (1, 0)

    def test_annulus_facet_is_a_circle(self):
        tri = corpus.annulus().triangulation
        sub = face_subcomplex(tri, "F1")
        assert betti_mod2(chain_complex(sub)) == (1, 1)


class TestFaceAcyclicity:
    def test_square_is_acyclic(self):
        rep = is_face_acyclic(corpus.square_torus().triangulation)
        assert rep.verdict and not rep.witnesses()

    def test_annulus_fails_with_witnesses(self):
        rep = is_face_acyclic(corpus.annulus().triangulation)
        assert not rep.verdict
        assert rep.per_face["F1"] == (0, 1)
        assert rep.per_face["F2"] == (0, 1)
        assert rep.per_face["Q"] == (0, 1, 0)
        assert len(rep.witnesses()) == 3

    def test_empty_face_is_a_failure(self):
        p = FacePoset(1, {"Q": 0, "v0": 1, "v1": 1}, {("v0", "Q"), ("v1", "Q")})
        c = CarrierComplex(p, 2, {(0,): "v0", (1,): "Q", (0, 1): "Q"})
        rep = is_face_acyclic(c)
        assert not rep.verdict and "v1" in rep.empty_faces

    def test_surrogate_models_are_always_acyclic(self):
        for name in ("triangle", "cube", "annulus", "bigon"):
            p = corpus.BUILDERS[name]().poset
            assert is_face_acyclic(order_complex(p)).verdict, name


    @pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
    def test_matches_per_face_rebuilds(self, name):
        inst = corpus.BUILDERS[name]()
        complexes = [order_complex(inst.poset)]
        if inst.triangulation is not None:
            complexes.append(inst.triangulation)
        for c in complexes:
            rep = is_face_acyclic(c)
            assert (rep.per_face, rep.empty_faces) == rebuilt_acyclicity(c)


class TestValidateCarriers:
    def test_mode_b_corpus_passes_strict(self):
        for name in ("square_torus", "square_klein", "annulus", "cut_triangle"):
            inst = corpus.BUILDERS[name]()
            rep = validate_carriers(inst.triangulation, require_face_dims=True)
            assert rep.ok, (name, rep.witnesses())

    def test_surrogate_passes_weak_fails_strict(self):
        oc = order_complex(corpus.annulus().poset)
        assert validate_carriers(oc, require_face_dims=False).ok
        strict = validate_carriers(oc, require_face_dims=True)
        assert not strict.ok and strict.face_strata

    def test_unknown_carrier(self):
        rep = validate_carriers(CarrierComplex(POINT_POSET, 1, {(0,): "X"}))
        assert rep.carriers

    def test_unused_point(self):
        rep = validate_carriers(CarrierComplex(POINT_POSET, 2, {(0,): "Q"}))
        assert any("appears in no simplex" in w for w in rep.carriers)

    def test_carrier_monotonicity(self):
        p = corpus.triangle().poset
        c = CarrierComplex(p, 2, {(0,): "Q", (1,): "p12", (0, 1): "p12"})
        rep = validate_carriers(c, require_face_dims=False)
        assert any("not inside carrier" in w for w in rep.carriers)

    def test_missing_facet_simplex(self):
        c = CarrierComplex(POINT_POSET, 2, {(0, 1): "Q", (0,): "Q"})
        rep = validate_carriers(c)
        assert rep.closure

    def test_wall_count_failure(self):
        # a square's facet triangulated with a dangling extra edge
        tri = dict(corpus.square_torus().triangulation.simplices)
        tri[(1, 3)] = "B"
        rep = validate_carriers(
            CarrierComplex(corpus.square_torus().poset, 4, tri),
            require_face_dims=True,
        )
        assert not rep.ok
