"""Instances and helpers shared by several test modules."""

import json
import random
from itertools import combinations

import pytest

from z2torus import corpus
from z2torus.blowup import cut_face
from z2torus.charfunc import CharFunction
from z2torus.gf2 import Matrix, Vec, _rref_rows
from z2torus.instance import instance_text
from z2torus.poset import FacePoset, validate, vertex_findings


def poset_findings(p):
    """Every line the validate command reads off p: validate's, then the
    has_vertex and skeleton_connected lines; [] when each check passes."""
    has_vertex, skeleton_connected = vertex_findings(p)
    return validate(p) + has_vertex + skeleton_connected


def reduced(betti):
    """Reduced Betti numbers from unreduced ones: b[0] - 1 in degree 0."""
    return (betti[0] - 1,) + betti[1:] if betti else ()


def closure_oracle(p, adj):
    """Each face with everything reachable along adj, itself included, by
    memoised recursion: the oracle for the poset's face masks."""
    memo = {}

    def reach(f):
        if f not in memo:
            acc = {f}
            for g in adj[f]:
                acc |= reach(g)
            memo[f] = frozenset(acc)
        return memo[f]

    for f in sorted(p.codims, key=lambda x: p.codims[x]):
        reach(f)
    return memo


def above_oracle(p):
    """Each face with the faces containing it, itself included, closed
    over the covers."""
    parents = {f: [] for f in p.codims}
    for c, q in p.covers:
        parents[c].append(q)
    return closure_oracle(p, parents)


def below_oracle(p):
    """Each face with the faces it contains, itself included, closed over
    the children."""
    return closure_oracle(p, {f: p.children(f) for f in p.codims})


def restrict_oracle(p, f):
    """`restrictions.restrict(p, f)` from the recursive closure: the faces
    below f, regraded, with the covers among them."""
    keep, k = below_oracle(p)[f], p.codims[f]
    codims = {g: p.codims[g] - k for g in keep}
    return FacePoset(p.n - k, codims, {(c, q) for c, q in p.covers if c in keep and q in keep})


def span(rows):
    """Every sum of the int rows, by enumeration."""
    out = {0}
    for r in rows:
        out |= {x ^ r for x in out}
    return out


def lowest_bit_basis(rows):
    """XOR basis keyed by pivot column, the lowest set bit of each basis
    row: a rank oracle independent of the package's highest-bit rule."""
    by_pivot = {}
    for row in rows:
        while row:
            low = (row & -row).bit_length() - 1
            if low not in by_pivot:
                by_pivot[low] = row
                break
            row ^= by_pivot[low]
    return by_pivot


def from_vecs(vecs):
    """The matrix whose rows are vecs, all of one width."""
    vecs = list(vecs)
    if not vecs:
        raise ValueError("cannot infer width from zero vectors")
    n = vecs[0].n
    if any(v.n != n for v in vecs):
        raise ValueError("width mismatch")
    return Matrix(tuple(v.bits for v in vecs), n)


def nullspace(rows, ncols):
    """A basis of {v : every row r has r.v = 0} in GF(2)^ncols, as int
    rows, one per free column of the `_rref_rows` echelon form."""
    reduced_rows, pivots = _rref_rows(rows)
    pivot_set = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        v = 1 << j
        for p, r in zip(pivots, reduced_rows):
            if (r >> j) & 1:
                v |= 1 << p
        basis.append(v)
    return basis


def rows(chain):
    """A base chain's boundaries as int rows, bit j standing for
    (d-1)-cell j: the form `betti_mod2` and `_check_squares` read."""
    return tuple(tuple(sum(1 << j for j in js) for js in level) for level in chain.facets)


def change_basis(lam, images):
    """lam followed by the linear map sending unit vector i to images[i]."""
    def apply(v):
        bits = 0
        for i, image in enumerate(images):
            if v.bits >> i & 1:
                bits ^= image
        return Vec(bits, lam.n)

    return CharFunction(lam.n, {F: apply(v) for F, v in lam.values.items()})


def cut_chain(p, lam, seed, steps=3):
    """The (poset, lam) pairs after each of `steps` cuts, each of a face of
    codim >= 2 drawn by random.Random(seed)."""
    rng = random.Random(seed)
    chain = []
    for _ in range(steps):
        cut = cut_face(p, lam, rng.choice([f for f in p.faces() if p.codim(f) >= 2]))
        p, lam = cut.poset, cut.lam
        chain.append((p, lam))
    return chain


def _mask_readers_sweep():
    instances = {name: build() for name, build in corpus.BUILDERS.items()}
    instances.update({f"ncube({n})": corpus.ncube(n) for n in (1, 2, 3, 4)})
    sweep = {name: (inst.poset, inst.lam) for name, inst in instances.items()}
    cube = instances["cube"]
    for i, pair in enumerate(cut_chain(cube.poset, cube.lam, seed=19), 1):
        sweep[f"cube cut {i}"] = pair
    return sweep


# (poset, lam) by name: the corpus, the 1- to 4-cubes and a chain of three
# cuts of the cube, where what reads the face masks meets its oracle
MASK_READERS_SWEEP = _mask_readers_sweep()


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


@pytest.fixture
def mobius_square_data():
    """The square with torus labels, its triangulation a Moebius band.

    The 5-vertex Moebius band (triangles {i, i+1, i+2} mod 5) has the
    boundary circle 0-2-4-1-3; the corners are 0, 2, 4, 1 and the point 3
    lies on the left edge.  Every carrier check passes, but Q's subcomplex
    has reduced mod-2 Betti numbers (0, 1, 0): the criterion fails while
    the 1-skeleton, the square's, is a GKM graph.
    """
    carriers = {
        (0,): "BL", (2,): "BR", (4,): "TR", (1,): "TL", (3,): "L",
        (0, 2): "B", (2, 4): "R", (1, 4): "T", (1, 3): "L", (0, 3): "L",
        (0, 1): "Q", (1, 2): "Q", (2, 3): "Q", (3, 4): "Q", (0, 4): "Q",
        (0, 1, 2): "Q", (1, 2, 3): "Q", (2, 3, 4): "Q", (0, 3, 4): "Q", (0, 1, 4): "Q",
    }
    data = json.loads(instance_text(corpus.square_torus()))
    data["name"] = "square_mobius"
    data["triangulation"] = {
        "points": 5,
        "simplices": [{"verts": list(sx), "carrier": f} for sx, f in carriers.items()],
    }
    return data


@pytest.fixture
def rp2_dual_data():
    """Q dual to the 6-vertex RP^2: a face per simplex s of RP^2_6, of
    codim |s|, reversed, and a top face.  Its poset and labels pass
    validation and its 1-skeleton is a GKM graph, but the boundary of Q
    is RP^2, so the CW gate fails at Q alone."""
    triangles = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
                 (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5)]
    simplices = sorted(
        {s for t in triangles for k in (1, 2, 3) for s in combinations(t, k)},
        key=lambda s: (len(s), s),
    )

    def name(s):
        return "s" + "".join(map(str, s))

    labels = ["001", "010", "011", "101", "110", "100"]  # a basis at every vertex
    return {
        "name": "rp2_dual",
        "dim": 3,
        "faces": [{"id": "Q", "codim": 0}] + [{"id": name(s), "codim": len(s)} for s in simplices],
        "inclusions": [[name((v,)), "Q"] for v in range(6)]
        + [[name(t), name(s)] for s in simplices for t in simplices
           if len(t) == len(s) + 1 and set(s) < set(t)],
        "lambda": {name((v,)): [int(b) for b in labels[v]] for v in range(6)},
    }
