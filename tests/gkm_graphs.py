"""Hand-built GKM graphs, with the scan that finds their incongruent edges.

A `GkmGraph` takes its incongruent edges from its builder.
`axial_function` states none, by construction; a graph built here by
hand gets them from `incongruent_edges`, which the tests also run on
`axial_function`'s graphs to confirm that they have none.
"""

from collections.abc import Iterable, Mapping

from z2torus.charfunc import GkmGraph
from z2torus.gf2 import Vec


def mod_line(forms: Iterable[int], a: int) -> list[int]:
    """The forms modulo the line {0, a}, as sorted canonical
    representatives: `reduce_by` against the one-row basis [a], which is
    one bit test, since a form holding a's highest set bit gets a added."""
    top = 1 << a.bit_length() >> 1
    return sorted([b ^ a if b & top else b for b in forms])


def incongruent_edges(
    edges: Mapping[str, tuple[str, str]], axial: Mapping[str, Vec]
) -> tuple[str, ...]:
    """The sorted edges e = (v, w) across which the forms at v and at w
    disagree mod alpha(e): two `mod_line` sorts per edge."""
    at: dict[str, list[int]] = {}
    for e, (a, b) in edges.items():
        at.setdefault(a, []).append(axial[e].bits)
        if b != a:
            at.setdefault(b, []).append(axial[e].bits)
    return tuple(
        e for e, (v, w) in sorted(edges.items())
        if mod_line(at[v], axial[e].bits) != mod_line(at[w], axial[e].bits)
    )


def hand_built(
    n: int,
    vertices: tuple[str, ...],
    edges: Mapping[str, tuple[str, str]],
    axial: Mapping[str, Vec],
) -> GkmGraph:
    """The graph with these edges and forms, its incongruent edges found
    by the scan."""
    return GkmGraph(n, vertices, edges, axial, incongruent_edges(edges, axial))
