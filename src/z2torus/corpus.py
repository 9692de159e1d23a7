"""Built-in example instances, exercised heavily by the test suite.

The JSON files under data/ are serializations of these builders; the
builders stay the single source of truth.  The segment, the square and
the cube are the posets `ncube` generates, their faces renamed.
"""

from __future__ import annotations

from collections.abc import Callable
from importlib import resources
from itertools import product
from pathlib import Path

from .blowup import cut_face
from .charfunc import CharFunction
from .complexes import CarrierComplex
from .gf2 import Vec
from .instance import Instance, load_instance
from .poset import FacePoset


def _lam(n: int, **values: str) -> CharFunction:
    return CharFunction(n, {k: Vec.from_string(v) for k, v in values.items()})


def triangle() -> Instance:
    """Triangle with labels 10, 01, 11: the model is RP^2."""
    codims = {"Q": 0, "F1": 1, "F2": 1, "F3": 1, "p12": 2, "p13": 2, "p23": 2}
    covers = {
        ("F1", "Q"), ("F2", "Q"), ("F3", "Q"),
        ("p12", "F1"), ("p12", "F2"),
        ("p13", "F1"), ("p13", "F3"),
        ("p23", "F2"), ("p23", "F3"),
    }
    poset = FacePoset(2, codims, covers)
    return Instance("triangle", poset, _lam(2, F1="10", F2="01", F3="11"), None)


def _renamed(p: FacePoset, name: Callable[[str], str]) -> FacePoset:
    """p with each face f renamed name(f)."""
    return FacePoset(
        p.n, {name(f): k for f, k in p.codims.items()}, {(name(c), name(q)) for c, q in p.covers}
    )


def _square_poset() -> FacePoset:
    # facets L, R at x = 0, 1 and B, T at y = 0, 1; a corner is named y first
    x, y = {"0": "L", "1": "R", "*": ""}, {"0": "B", "1": "T", "*": ""}
    return _renamed(ncube(2).poset, lambda w: y[w[1]] + x[w[0]] or "Q")


def _square_triangulation(poset: FacePoset) -> CarrierComplex:
    # points 0=BL 1=BR 2=TR 3=TL, diagonal 0-2
    simplices = {
        (0,): "BL", (1,): "BR", (2,): "TR", (3,): "TL",
        (0, 1): "B", (1, 2): "R", (2, 3): "T", (0, 3): "L",
        (0, 2): "Q",
        (0, 1, 2): "Q", (0, 2, 3): "Q",
    }
    return CarrierComplex(poset, 4, simplices)


def square_torus() -> Instance:
    """Square, opposite facets equal: the model is the 2-torus."""
    poset = _square_poset()
    lam = _lam(2, L="10", R="10", T="01", B="01")
    return Instance("square_torus", poset, lam, _square_triangulation(poset))


def square_klein() -> Instance:
    """Square with label image {10, 01, 11}: the model is the Klein bottle."""
    poset = _square_poset()
    lam = _lam(2, L="10", R="11", T="01", B="01")
    return Instance("square_klein", poset, lam, _square_triangulation(poset))


def cube() -> Instance:
    """3-cube, opposite facets equal: the model is the 3-torus."""

    def name(w: str) -> str:  # facet X0, edge EX0Y0, vertex V000
        fixed = "".join(a + b for a, b in zip("XYZ", w) if b != "*")
        return ("Q", fixed, "E" + fixed, "V" + w)[len(fixed) // 2]

    poset = _renamed(ncube(3).poset, name)
    lam = _lam(3, X0="100", X1="100", Y0="010", Y1="010", Z0="001", Z1="001")
    return Instance("cube", poset, lam, None)


def annulus() -> Instance:
    """Annulus: two boundary circles, no vertices; mode-B triangulation.

    The standard counterexample shape: not face-acyclic, model has
    total Betti number 4 with zero fixed points.
    """
    codims = {"Q": 0, "F1": 1, "F2": 1}
    covers = {("F1", "Q"), ("F2", "Q")}
    poset = FacePoset(2, codims, covers)
    lam = _lam(2, F1="10", F2="01")
    simplices: dict[tuple[int, ...], str] = {}
    for v in (0, 1, 2):
        simplices[(v,)] = "F1"
    for v in (3, 4, 5):
        simplices[(v,)] = "F2"
    for e in ((0, 1), (1, 2), (0, 2)):
        simplices[e] = "F1"
    for e in ((3, 4), (4, 5), (3, 5)):
        simplices[e] = "F2"
    for e in ((0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5)):
        simplices[e] = "Q"
    for t in ((0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5)):
        simplices[t] = "Q"
    tri = CarrierComplex(poset, 6, simplices)
    return Instance("annulus", poset, lam, tri)


def segment() -> Instance:
    """Interval, both endpoint labels 1: the model is a circle."""
    poset = _renamed(ncube(1).poset, lambda w: "Q" if w == "*" else "v" + w)
    return Instance("segment", poset, _lam(1, v0="1", v1="1"), None)


def bigon() -> Instance:
    """Disk with two corners; the model is the 2-sphere."""
    codims = {"Q": 0, "E1": 1, "E2": 1, "v1": 2, "v2": 2}
    covers = {
        ("E1", "Q"), ("E2", "Q"),
        ("v1", "E1"), ("v1", "E2"), ("v2", "E1"), ("v2", "E2"),
    }
    poset = FacePoset(2, codims, covers)
    return Instance("bigon", poset, _lam(2, E1="10", E2="01"), None)


def cut_triangle() -> Instance:
    """Triangle with the vertex p12 cut off: a quadrilateral, with a
    mode-B triangulation (two triangles along a diagonal)."""
    t = triangle()
    cut = cut_face(t.poset, t.lam, "p12")
    # points 0=p13 1=p23 2=p12|F1 3=p12|F2, boundary cycle 0-1-2-3
    simplices = {
        (0,): "p13", (1,): "p23", (2,): "p12|F1", (3,): "p12|F2",
        (0, 1): "F3", (1, 2): "F2", (2, 3): "p12|F1,F2", (0, 3): "F1",
        (0, 2): "Q",
        (0, 1, 2): "Q", (0, 2, 3): "Q",
    }
    tri = CarrierComplex(cut.poset, 4, simplices)
    return Instance("cut_triangle", cut.poset, cut.lam, tri)


def cut_cube_vertex() -> Instance:
    c = cube()
    cut = cut_face(c.poset, c.lam, "V000")
    return Instance("cut_cube_vertex", cut.poset, cut.lam, None)


def cut_cube_edge() -> Instance:
    c = cube()
    cut = cut_face(c.poset, c.lam, "EX0Y0")
    return Instance("cut_cube_edge", cut.poset, cut.lam, None)


def ncube(n: int) -> Instance:
    """The n-cube with coordinate labels: the model is the real torus T^n.

    Faces are words over {0, 1, *}: position i is 0 or 1 on the facet
    x_i = 0 or x_i = 1, and * where coordinate i is free.  Both facets of
    axis i carry the label e_i.
    """
    words = ["".join(w) for w in product("01*", repeat=n)]
    codims = {w: n - w.count("*") for w in words}
    covers = {
        (w[:i] + b + w[i + 1 :], w)
        for w in words
        for i, ch in enumerate(w)
        if ch == "*"
        for b in "01"
    }
    labels = {w: Vec(1 << w.index(w.strip("*")), n) for w in words if codims[w] == 1}
    return Instance(f"cube{n}", FacePoset(n, codims, covers), CharFunction(n, labels), None)


BUNDLED = ("triangle", "square_torus", "square_klein", "cube", "annulus")

BUILDERS = {
    "triangle": triangle,
    "square_torus": square_torus,
    "square_klein": square_klein,
    "cube": cube,
    "annulus": annulus,
    "segment": segment,
    "bigon": bigon,
    "cut_triangle": cut_triangle,
    "cut_cube_vertex": cut_cube_vertex,
    "cut_cube_edge": cut_cube_edge,
}


def bundled_path(name: str) -> Path:
    """Path of a bundled instance file (one of BUNDLED)."""
    return Path(str(resources.files("z2torus") / "data" / f"{name}.json"))


def bundled(name: str) -> Instance:
    return load_instance(bundled_path(name))
