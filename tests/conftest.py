"""Instances shared by several test modules."""

import pytest


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
