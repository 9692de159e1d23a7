"""Hand-built GKM graphs, with the scan that finds their incongruent
edges, and the flow-up search on vertex names.

A `GkmGraph` takes its incongruent edges from its builder.
`axial_function` states none, by construction; a graph built here by
hand gets them from `incongruent_edges`, which the tests also run on
`axial_function`'s graphs to confirm that they have none.
`named_flow_up_degrees` is `gkm.flow_up_degrees` as it was written on
string-keyed dicts and sets: the order oracle for the search on vertex
positions.
"""

from collections.abc import Iterable, Mapping

from z2torus.charfunc import GkmGraph
from z2torus.gf2 import Vec, _top_basis, in_span


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


# vertex -> (edge, other end, form bits) for each edge at it, edges sorted
NamedEnds = dict[str, list[tuple[str, str, int]]]


def named_ends(g: GkmGraph) -> NamedEnds:
    """The edges at each vertex, keyed by the vertex's name."""
    ends: NamedEnds = {v: [] for v in g.vertices}
    for e, (a, b) in sorted(g.edges.items()):
        ends[a].append((e, b, g.axial[e].bits))
        if b != a:
            ends[b].append((e, a, g.axial[e].bits))
    return ends


def _named_down_degree(v: str, placed: dict[str, int], ends: NamedEnds, spans: dict) -> int | None:
    """`gkm._certified_down_degree` on names: C_v found as a set of names."""
    down: list[int] = []
    up: set[int] = set()
    for _, u, b in ends[v]:
        if u in placed:
            down.append(b)
        else:
            up.add(b)
    if len(set(down)) < len(down) or 0 in down:
        return None
    key = frozenset(up)
    if key not in spans:
        spans[key] = (_top_basis(enumerate(up)), {})
    basis, memo = spans[key]
    face = {v}  # the vertices of C_v
    stack = [v]
    while stack:
        w = stack.pop()
        for _, u, b in ends[w]:
            inside = memo.get(b)
            if inside is None:
                inside = memo[b] = in_span(basis, b)
            if not inside:
                continue
            if u in placed:
                return None
            if u not in face:
                face.add(u)
                stack.append(u)
    return len(down)


def named_flow_up_degrees(g: GkmGraph) -> dict[str, int] | None:
    """`gkm.flow_up_degrees` on names: the placed vertices in a dict, each
    up-face in a set."""
    if g.incongruent:
        return None
    ends = named_ends(g)
    spans: dict = {}
    placed: dict[str, int] = {}
    remaining = list(g.vertices)
    while remaining:
        for v in remaining:
            d = _named_down_degree(v, placed, ends, spans)
            if d is not None:
                break
        else:
            return None
        remaining.remove(v)
        placed[v] = d
    return placed
