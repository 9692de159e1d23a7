"""Instances and helpers shared by several test modules."""

import pytest

from z2torus.poset import FacePoset


def reduced(betti):
    """Reduced Betti numbers from unreduced ones: b[0] - 1 in degree 0."""
    return (betti[0] - 1,) + betti[1:] if betti else ()


def edits(p):
    """Every edit one step away from the poset p: a cover dropped, a cover
    added between adjacent codims, or a face deleted with its covers."""
    covers = set(p.covers)
    found = [("drop", cover) for cover in p.covers]
    for c in p.faces():
        parents = p.faces_of_codim(p.codims[c] - 1)
        found += [("add", (c, q)) for q in parents if (c, q) not in covers]
    return found + [("delete", f) for f in p.faces()]


def apply_edit(p, edit):
    kind, x = edit
    if kind == "drop":
        return FacePoset(p.n, p.codims, set(p.covers) - {x})
    if kind == "add":
        return FacePoset(p.n, p.codims, set(p.covers) | {x})
    codims = {g: k for g, k in p.codims.items() if g != x}
    return FacePoset(p.n, codims, {(c, q) for c, q in p.covers if x not in (c, q)})


@pytest.fixture
def split_annulus_data():
    """An annulus whose two boundary circles each carry two vertices.

    The poset is sound, and its 1-skeleton is the two circles, so it is
    disconnected.  Every edge is an interval, but the boundary of Q is
    two circles, not one, so the CW gate fails at Q alone.
    """
    edges = {"A1": ("a1", "a2"), "A2": ("a1", "a2"), "B1": ("b1", "b2"), "B2": ("b1", "b2")}
    return {
        "name": "split_annulus",
        "dim": 2,
        "faces": [{"id": "Q", "codim": 0}]
        + [{"id": e, "codim": 1} for e in edges]
        + [{"id": v, "codim": 2} for v in ("a1", "a2", "b1", "b2")],
        "inclusions": [[e, "Q"] for e in edges]
        + [[v, e] for e, ends in edges.items() for v in ends],
        "lambda": {"A1": [1, 0], "A2": [0, 1], "B1": [1, 0], "B2": [0, 1]},
    }
