"""Regular cell complexes over Q, their quotient chain complexes, and
mod-2 homology.

A cell complex over Q lists its cells by dimension, names for each cell
the face of Q whose relative interior contains the cell's interior (its
carrier), and gives each cell's boundary cells, every incidence being 1
mod 2.  Two kinds exist: a carrier complex, whose cells are simplices
(instances may supply one, a genuine triangulation of Q), and the face
complex, whose cells are the faces of Q themselves.  QuotientComplex
builds the mod-2 chain complex of either, with or without the isotropy
gluing of a characteristic function.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field

from .charfunc import CharFunction, isotropy
from .errors import InputError, PreconditionError
from .gf2 import Matrix, Vec, compose_is_zero
from .poset import FacePoset

Simplex = tuple[int, ...]


class CarrierComplex:
    """Simplicial complex with a carrier face label on every simplex."""

    def __init__(
        self,
        poset: FacePoset,
        n_points: int,
        simplices: dict[Simplex, str],
        vertex_labels: list[str] | None = None,
    ):
        self.poset = poset
        self.n_points = n_points
        self.simplices = dict(simplices)
        self.vertex_labels = vertex_labels
        for sx in simplices:
            if list(sx) != sorted(set(sx)):
                raise ValueError(f"simplex {sx} is not a sorted vertex tuple")
            if sx and not (0 <= sx[0] and sx[-1] < n_points):
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
    boundary is a mod-2 homology sphere (see `cw_failures`).  `faces`
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
        self.groups = (
            None if lam is None else {f: isotropy(p, lam, f) for f in set(carriers.values())}
        )

        self.cells: list[list[tuple[Hashable, int]]] = []
        index: list[dict[tuple[Hashable, int], int]] = []
        for level in levels:
            if self.groups is None:
                cells = [(cell, 0) for cell in level]
            else:
                cells = [
                    (cell, rep.bits)
                    for cell in level
                    for rep in self.groups[carriers[cell]].cosets()
                ]
            cells.sort()
            self.cells.append(cells)
            index.append({cell: i for i, cell in enumerate(cells)})

        groups, leq = self.groups, p.leq
        drop: dict[tuple[str, int], int] = {}  # (face f, rep of g) -> rep of g + G_f
        boundaries: list[Matrix] = []
        if self.cells:
            boundaries.append(Matrix.zero(len(self.cells[0]), 0))
        for d in range(1, len(self.cells)):
            below = index[d - 1]
            rows = []
            for cell, rep in self.cells[d]:
                carrier = carriers[cell]
                bits = 0
                for face in base.boundary(cell):
                    fcar = carriers.get(face)
                    if fcar is None:
                        raise InputError(f"complex not closed: {cell} misses facet {face}")
                    if fcar != carrier and not leq(fcar, carrier):
                        raise InputError(
                            f"carrier of {face} ({fcar}) not inside carrier of {cell} ({carrier})"
                        )
                    frep = 0
                    if groups is not None:
                        frep = drop.get((fcar, rep))
                        if frep is None:
                            frep = groups[fcar].coset_rep(Vec(rep, self.n)).bits
                            drop[(fcar, rep)] = frep
                    bits ^= 1 << below[(face, frep)]
                rows.append(bits)
            boundaries.append(Matrix.from_rows(rows, len(self.cells[d - 1])))
        self.chain = Gf2ChainComplex(
            tuple(len(c) for c in self.cells), tuple(boundaries)
        )

    def betti(self) -> tuple[int, ...]:
        """Unreduced mod-2 Betti numbers, padded to length n+1."""
        b = betti_mod2(self.chain)  # also asserts boundary^2 = 0
        return tuple(b) + (0,) * (self.n + 1 - len(b))

    def cell_count(self) -> int:
        return sum(len(c) for c in self.cells)


def chain_complex(c: CarrierComplex | FaceComplex) -> Gf2ChainComplex:
    """Mod-2 cellular chain complex, cells in canonical sorted order."""
    return QuotientComplex(c).chain


def betti_mod2(cc: Gf2ChainComplex) -> tuple[int, ...]:
    """Unreduced mod-2 Betti numbers.  Verifies boundary-squared = 0."""
    D = len(cc.dims) - 1
    for d in range(2, D + 1):
        if not compose_is_zero(cc.boundaries[d], cc.boundaries[d - 1]):
            raise ValueError(f"boundary composite in degree {d} is nonzero")
    ranks = [0] * (D + 2)
    for d in range(1, D + 1):
        ranks[d] = cc.boundaries[d].rank()
    return tuple(cc.dims[d] - ranks[d] - ranks[d + 1] for d in range(D + 1))


def reduced_betti(cc: Gf2ChainComplex) -> tuple[int, ...]:
    b = betti_mod2(cc)
    if not b:
        return ()
    return (b[0] - 1,) + b[1:]


def face_subcomplex(c: CarrierComplex, f: str) -> CarrierComplex:
    """Subcomplex of simplices carried inside the face f."""
    keep = {sx: cf for sx, cf in c.simplices.items() if c.poset.leq(cf, f)}
    used = sorted({v for sx in keep for v in sx})
    renum = {v: i for i, v in enumerate(used)}
    simplices = {tuple(renum[v] for v in sx): cf for sx, cf in keep.items()}
    labels = None
    if c.vertex_labels is not None:
        labels = [c.vertex_labels[v] for v in used]
    return CarrierComplex(c.poset, len(used), simplices, vertex_labels=labels)


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


def is_face_acyclic(c: CarrierComplex) -> AcyclicityReport:
    """Is every face's subcomplex mod-2 acyclic (reduced homology zero)?"""
    per_face: dict[str, tuple[int, ...]] = {}
    empty: list[str] = []
    for f in c.poset.faces():
        sub = face_subcomplex(c, f)
        if not sub.simplices:
            empty.append(f)
            continue
        per_face[f] = reduced_betti(chain_complex(sub))
    return AcyclicityReport(per_face, empty)


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


def validate_carriers(c: CarrierComplex, require_face_dims: bool = True) -> CarrierReport:
    """Closure, carrier monotonicity, and per-face pseudo-manifold checks.

    For each face f the carried subcomplex must be pure, with every wall
    ((d-1)-simplex) in two top simplices when carried by f itself and in
    one when carried by a proper subface.  require_face_dims additionally
    demands that the subcomplex of f has dimension dim(f), i.e. that the
    complex is a genuine triangulation of Q rather than a surrogate.
    """
    rep = CarrierReport()
    p = c.poset
    for sx, cf in sorted(c.simplices.items()):
        if cf not in p.codims:
            rep.carriers.append(f"simplex {sx} carried by unknown face {cf!r}")
            continue
        if len(sx) == 1:
            continue
        for tau in _facets(sx):
            if tau not in c.simplices:
                rep.closure.append(f"simplex {sx} misses facet {tau}")
            elif not p.leq(c.simplices[tau], cf):
                rep.carriers.append(
                    f"carrier of {tau} ({c.simplices[tau]}) not inside carrier of {sx} ({cf})"
                )
    used = {v for sx in c.simplices for v in sx}
    for v in range(c.n_points):
        if v not in used:
            rep.carriers.append(f"point {v} appears in no simplex")
    if not rep.ok:
        return rep

    for f in p.faces():
        sub = {sx for sx, cf in c.simplices.items() if p.leq(cf, f)}
        if not sub:
            rep.face_strata.append(f"face {f} carries no simplex")
            continue
        d = max(len(sx) - 1 for sx in sub)
        if require_face_dims and d != p.dim_face(f):
            rep.face_strata.append(
                f"subcomplex of face {f} has dimension {d}, face has dimension {p.dim_face(f)}"
            )
        cofaces: dict[Simplex, int] = {sx: 0 for sx in sub}
        for sx in sub:
            if len(sx) >= 2:
                for tau in _facets(sx):
                    cofaces[tau] += 1
        for sx in sub:
            if len(sx) - 1 < d and cofaces[sx] == 0:
                rep.face_strata.append(
                    f"face {f}: simplex {sx} is maximal below dimension {d}"
                )
        for sx in sub:
            if len(sx) - 1 != d - 1:
                continue
            want = 2 if c.simplices[sx] == f else 1
            got = cofaces[sx]
            if got != want:
                rep.face_strata.append(
                    f"face {f}: wall {sx} lies in {got} top simplices, wanted {want}"
                )
    return rep


def cw_failures(p: FacePoset) -> list[str]:
    """Faces whose boundary is not a mod-2 homology sphere, by dimension.

    A face f of dimension d >= 1 passes when the faces strictly below it
    have the reduced mod-2 Betti numbers of S^(d-1) (two points for
    d = 1).  When every face passes, p is a CW poset over GF(2) in the
    sense of Bjorner ("Posets, regular CW complexes and Bruhat order",
    1984): each face is a mod-2 homology cell, and the face complex
    computes the homology of Q's cell structure.
    """
    failing = []
    for f in sorted(p.codims, key=lambda g: (p.dim_face(g), g)):
        d = p.dim_face(f)
        if d == 0:
            continue
        b = reduced_betti(chain_complex(FaceComplex(p, p.below(f) - {f})))
        if b + (0,) * (d - len(b)) != (0,) * (d - 1) + (1,):
            failing.append(f)
    return failing


def require_cw_poset(p: FacePoset) -> None:
    """The precondition of mode A: raise PreconditionError naming the
    first faces that `cw_failures` finds."""
    failing = cw_failures(p)
    if failing:
        named = ", ".join(failing[:5])
        if len(failing) > 5:
            named += f" and {len(failing) - 5} more"
        raise PreconditionError(
            "mode A needs a CW poset, where the boundary of every face is a mod-2 "
            f"homology sphere; it fails at {named}; supply a triangulation to use mode B"
        )
