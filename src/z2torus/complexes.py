"""Regular cell complexes over Q, their quotient chain complexes, and
mod-2 homology.

A cell complex over Q lists its cells by dimension, names for each cell
the face of Q whose relative interior contains the cell's interior (its
carrier), and gives each cell's boundary cells, every incidence being 1
mod 2.  Two kinds exist: a carrier complex, whose cells are simplices
(instances may supply one, a genuine triangulation of Q), and the face
complex, whose cells are the faces of Q themselves.  QuotientComplex
builds the mod-2 chain complex of either, with or without the isotropy
gluing of a characteristic function.  `is_face_acyclic` runs the
paper's criterion on either; on the face complex it is the CW gate.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain

from .charfunc import CharFunction, isotropy
from .errors import InputError, PreconditionError
from .gf2 import Matrix, chain_ranks, compose_is_zero
from .poset import FacePoset, per_poset

Simplex = tuple[int, ...]


class CarrierComplex:
    """Simplicial complex with a carrier face label on every simplex."""

    def __init__(self, poset: FacePoset, n_points: int, simplices: dict[Simplex, str]):
        self.poset = poset
        self.n_points = n_points
        self.simplices = dict(simplices)
        for sx in simplices:
            if not sx or list(sx) != sorted(set(sx)):
                raise ValueError(f"simplex {sx} is not a nonempty sorted vertex tuple")
            if not (0 <= sx[0] and sx[-1] < n_points):
                raise ValueError(f"simplex {sx} uses points outside 0..{n_points - 1}")

    def dim(self) -> int:
        return max((len(sx) - 1 for sx in self.simplices), default=-1)

    def by_dim(self) -> list[list[Simplex]]:
        out: list[list[Simplex]] = [[] for _ in range(self.dim() + 1)]
        for sx in self.simplices:
            out[len(sx) - 1].append(sx)
        for level in out:
            level.sort()
        return out

    def carrier(self, sx: Simplex) -> str:
        return self.simplices[sx]

    def boundary(self, sx: Simplex) -> list[Simplex]:
        return _facets(sx)

    def __repr__(self) -> str:
        return f"CarrierComplex(points={self.n_points}, simplices={len(self.simplices)})"


class FaceComplex:
    """Faces of Q as the cells of a regular cell complex.

    Each face is a cell of its own dimension, carried by itself, with
    the faces it covers as its boundary.  The boolean upper intervals
    that `poset.validate` checks give every length-two interval exactly
    two middle elements, so these incidence-1 boundaries square to zero.
    The homology is that of Q's cell structure once every face's
    boundary is a mod-2 homology sphere (see `face_acyclicity`).  `faces`
    restricts the complex to a down-closed subset of the faces.
    """

    def __init__(self, poset: FacePoset, faces: Iterable[str] | None = None):
        self.poset = poset
        self.faces = frozenset(poset.codims if faces is None else faces)

    def by_dim(self) -> list[list[str]]:
        p = self.poset
        out: list[list[str]] = [
            [] for _ in range(max((p.dim_face(f) + 1 for f in self.faces), default=0))
        ]
        for f in sorted(self.faces):
            out[p.dim_face(f)].append(f)
        return out

    def carrier(self, f: str) -> str:
        return f

    def boundary(self, f: str) -> list[str]:
        return self.poset.children(f)

    def __repr__(self) -> str:
        return f"FaceComplex(faces={len(self.faces)})"


@dataclass(frozen=True)
class Gf2ChainComplex:
    """dims[d] cells in degree d; boundaries[d] maps degree d to d-1."""

    dims: tuple[int, ...]
    boundaries: tuple[Matrix, ...]


def _facets(sx: Simplex) -> list[Simplex]:
    return [sx[:i] + sx[i + 1 :] for i in range(len(sx))]


class QuotientComplex:
    """Mod-2 chain complex of (base x GF(2)^n) / isotropy.

    `base` is a CarrierComplex or a FaceComplex.  With a characteristic
    function, (x, g) ~ (x, g') whenever g - g' lies in the isotropy
    subgroup of the carrier of x: a cell with carrier f becomes one cell
    per coset of G_f, written (cell, canonical coset representative).
    The boundary drops the coset into the cosets of the smaller carriers'
    groups, and coincident images cancel mod 2.  Without one every cell
    has the single coset 0, which is the cellular chain complex of base.
    """

    def __init__(self, base: CarrierComplex | FaceComplex, lam: CharFunction | None = None):
        self.base = base
        self.lam = lam
        self.n = lam.n if lam is not None else 0
        p = base.poset
        levels = base.by_dim()
        carriers: dict[Hashable, str] = {
            cell: base.carrier(cell) for level in levels for cell in level
        }
        # GF(2)^n / G_f as `Subgroup.quotient` gives it: the coset reps, and
        # the images of the unit vectors under g -> position of rep(g + G_f).
        # group[f] indexes the quotients; carriers with the same labels share one.
        quotients: list[tuple[list[int], list[int]]] = [([0], [])]
        group: dict[str, int] = dict.fromkeys(carriers.values(), 0)
        if lam is not None:
            quotients, by_labels = [], {}
            for f in group:
                labels = frozenset(lam.vec(F).bits for F in p.facet_set(f))
                if labels not in by_labels:
                    by_labels[labels] = len(quotients)
                    quotients.append(isotropy(p, lam, f).quotient())
                group[f] = by_labels[labels]

        self.cells: list[list[tuple[Hashable, int]]] = []
        offsets: list[dict[Hashable, int]] = []  # cell -> index of its first coset
        for level in levels:
            cells: list[tuple[Hashable, int]] = []
            offset: dict[Hashable, int] = {}
            for cell in level:
                offset[cell] = len(cells)
                cells += [(cell, r) for r in quotients[group[carriers[cell]]][0]]
            self.cells.append(cells)
            offsets.append(offset)

        drops: dict[tuple[int, int], list[int]] = {}  # (group, face's group) -> positions
        boundaries: list[Matrix] = []
        if self.cells:
            boundaries.append(Matrix.zero(len(self.cells[0]), 0))
        for d in range(1, len(self.cells)):
            below = offsets[d - 1]
            rows: list[int] = []
            for cell in levels[d]:
                carrier = carriers[cell]
                inside = p.below(carrier)
                mine = group[carrier]
                reps = quotients[mine][0]
                bits = 0  # the row of a lone coset, which drops to the cosets 0
                targets = []  # for more cosets: (index of face's first coset, drop)
                for face in base.boundary(cell):
                    fcar = carriers.get(face)
                    if fcar is None:
                        raise InputError(f"complex not closed: {cell} misses facet {face}")
                    if fcar not in inside:
                        raise InputError(
                            f"carrier of {face} ({fcar}) not inside carrier of {cell} ({carrier})"
                        )
                    if len(reps) == 1:
                        bits ^= 1 << below[face]
                        continue
                    key = (mine, group[fcar])
                    drop = drops.get(key)
                    if drop is None:
                        drop = drops[key] = _drop_positions(reps, quotients[key[1]][1])
                    targets.append((below[face], drop))
                if len(reps) == 1:
                    rows.append(bits)
                    continue
                for k in range(len(reps)):
                    bits = 0
                    for first, drop in targets:
                        bits ^= 1 << (first + drop[k])
                    rows.append(bits)
            boundaries.append(Matrix(tuple(rows), len(self.cells[d - 1])))
        self.chain = Gf2ChainComplex(
            tuple(len(c) for c in self.cells), tuple(boundaries)
        )

    def betti(self) -> tuple[int, ...]:
        """Unreduced mod-2 Betti numbers, padded to length n+1."""
        b = betti_mod2(self.chain)  # also asserts boundary^2 = 0
        return tuple(b) + (0,) * (self.n + 1 - len(b))

    def cell_count(self) -> int:
        return sum(len(c) for c in self.cells)


def _drop_positions(reps: list[int], images: list[int]) -> list[int]:
    """Position of rep(g + G_f) for each coset rep g of a carrier's group,
    in the order of reps, from the images of the unit vectors under that
    linear map.  reps run over the subsets of the free columns, the last
    one being all of them, and doubling the table per free column keeps
    that order."""
    table = [0]
    free = reps[-1]
    while free:
        low = free & -free
        image = images[low.bit_length() - 1]
        table += [t ^ image for t in table]
        free ^= low
    return table


def _check_squares(cc: Gf2ChainComplex) -> None:
    for d in range(2, len(cc.dims)):
        if not compose_is_zero(cc.boundaries[d], cc.boundaries[d - 1]):
            raise ValueError(f"boundary composite in degree {d} is nonzero")


def _betti(dims: Sequence[int], ranks: Sequence[int]) -> tuple[int, ...]:
    """Betti numbers from cell counts and boundary ranks, ranks[d] being
    the rank of the boundary out of degree d (ranks[0] = 0)."""
    r = [*ranks, 0]
    return tuple(dims[d] - r[d] - r[d + 1] for d in range(len(dims)))


def betti_mod2(cc: Gf2ChainComplex) -> tuple[int, ...]:
    """Unreduced mod-2 Betti numbers.  Verifies boundary-squared = 0."""
    _check_squares(cc)
    return _betti(cc.dims, chain_ranks([enumerate(b.rows) for b in cc.boundaries]))


def reduced_betti(cc: Gf2ChainComplex) -> tuple[int, ...]:
    b = betti_mod2(cc)
    if not b:
        return ()
    return (b[0] - 1,) + b[1:]


@dataclass
class AcyclicityReport:
    """Reduced Betti numbers of every face's subcomplex."""

    per_face: dict[str, tuple[int, ...]]
    empty_faces: list[str]

    @property
    def verdict(self) -> bool:
        return not self.empty_faces and all(
            all(b == 0 for b in bs) for bs in self.per_face.values()
        )

    def witnesses(self) -> list[str]:
        out = [f"face {f} carries no simplex" for f in self.empty_faces]
        for f, bs in sorted(self.per_face.items()):
            if any(bs):
                out.append(f"face {f} has reduced mod-2 Betti {bs}")
        return out


def is_face_acyclic(base: CarrierComplex | FaceComplex) -> AcyclicityReport:
    """Is every face's subcomplex, the cells carried inside it, mod-2 acyclic?

    A boundary never leaves its cell's carrier, so each face's subcomplex
    is a set of rows of base's one chain complex, read at its own size.
    On the face complex this is the CW gate (Bjorner, "Posets, regular CW
    complexes and Bruhat order", 1984): for f of dimension d >= 1 the
    boundary of the cell f is a (d-1)-cycle of f's boundary, which has no
    d-cells to bound it, so the faces below f are acyclic exactly when
    f's boundary has the mod-2 homology of S^(d-1).
    """
    q = QuotientComplex(base)
    cc = q.chain
    _check_squares(cc)
    # carrier -> (degree, its (index in degree, boundary row) pairs), for
    # the degrees the carrier holds cells in
    rows: dict[str, list[tuple[int, list[tuple[int, int]]]]] = {}
    for d, (cells, bd) in enumerate(zip(q.cells, cc.boundaries)):
        for i, ((cell, _), row) in enumerate(zip(cells, bd.rows)):
            by_dim = rows.setdefault(base.carrier(cell), [])
            if not by_dim or by_dim[-1][0] != d:
                by_dim.append((d, []))
            by_dim[-1][1].append((i, row))
    per_face: dict[str, tuple[int, ...]] = {}
    empty: list[str] = []
    for f in base.poset.faces():
        sub: list[list[tuple[int, int]]] = [[] for _ in cc.dims]
        for g in base.poset.below(f):
            for d, pairs in rows.get(g, ()):
                sub[d] += pairs
        while sub and not sub[-1]:  # degrees above the subcomplex's dimension
            sub.pop()
        if not sub:
            empty.append(f)
            continue
        b = _betti([len(level) for level in sub], chain_ranks(sub))
        per_face[f] = (b[0] - 1,) + b[1:]
    return AcyclicityReport(per_face, empty)


@per_poset
def face_acyclicity(p: FacePoset, triangulation: CarrierComplex | None = None) -> AcyclicityReport:
    """The criterion on a triangulation (mode B), or on the face complex as
    the CW gate of mode A, whose failure raises PreconditionError on every
    call, as a call that raises keeps nothing on p."""
    if triangulation is not None:
        return is_face_acyclic(triangulation)
    rep = is_face_acyclic(FaceComplex(p))
    failing = sorted((p.dim_face(f), f) for f, b in rep.per_face.items() if any(b))
    if failing:
        named = ", ".join(f for _, f in failing[:5])
        more = f" and {len(failing) - 5} more" if len(failing) > 5 else ""
        raise PreconditionError(
            "mode A needs a CW poset, where the boundary of every face is a mod-2 "
            f"homology sphere; it fails at {named}{more}; supply a triangulation to use mode B"
        )
    return rep


@dataclass
class CarrierReport:
    closure: list[str] = field(default_factory=list)
    carriers: list[str] = field(default_factory=list)
    face_strata: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.closure or self.carriers or self.face_strata)

    def witnesses(self) -> list[str]:
        return self.closure + self.carriers + self.face_strata


def validate_carriers(c: CarrierComplex) -> CarrierReport:
    """Closure, carrier monotonicity, and per-face pseudo-manifold checks.

    For each face f the carried subcomplex must have dimension dim(f), as
    a genuine triangulation of Q does, and be pure, with every wall
    ((d-1)-simplex) in two top simplices when carried by f itself and in
    one when carried by a proper subface.
    """
    rep = CarrierReport()
    p = c.poset
    facets: dict[Simplex, list[Simplex]] = {}  # listed once, read again per face
    for sx, cf in sorted(c.simplices.items()):
        if cf not in p.codims:
            rep.carriers.append(f"simplex {sx} carried by unknown face {cf!r}")
            continue
        facets[sx] = _facets(sx) if len(sx) >= 2 else []
        for tau in facets[sx]:
            ct = c.simplices.get(tau)
            if ct is None:
                rep.closure.append(f"simplex {sx} misses facet {tau}")
            elif ct in p.codims and not p.leq(ct, cf):  # an unknown ct has its own line
                rep.carriers.append(f"carrier of {tau} ({ct}) not inside carrier of {sx} ({cf})")
    used = {v for sx in c.simplices for v in sx}
    for v in range(c.n_points):
        if v not in used:
            rep.carriers.append(f"point {v} appears in no simplex")
    if not rep.ok:
        return rep

    by_carrier: dict[str, list[Simplex]] = {}
    for sx, cf in c.simplices.items():
        by_carrier.setdefault(cf, []).append(sx)
    for f in p.faces():
        sub = sorted(sx for g in p.below(f) for sx in by_carrier.get(g, ()))
        if not sub:
            rep.face_strata.append(f"face {f} carries no simplex")
            continue
        d = max(map(len, sub)) - 1
        if d != p.dim_face(f):
            rep.face_strata.append(
                f"subcomplex of face {f} has dimension {d}, face has dimension {p.dim_face(f)}"
            )
        cofaces = Counter(chain.from_iterable(map(facets.__getitem__, sub)))
        rep.face_strata += [
            f"face {f}: simplex {sx} is maximal below dimension {d}"
            for sx in sub
            if len(sx) <= d and not cofaces[sx]
        ]
        for sx in sub:
            if len(sx) == d:  # a wall, a (d-1)-simplex
                want = 2 if c.simplices[sx] == f else 1
                if cofaces[sx] != want:
                    rep.face_strata.append(
                        f"face {f}: wall {sx} lies in {cofaces[sx]} top simplices, wanted {want}"
                    )
    return rep
