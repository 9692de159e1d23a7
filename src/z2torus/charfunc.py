"""Characteristic functions: facet labels in GF(2)^n and what they induce.

The label of a facet is the generator of the isotropy line of its
preimage; independence over every face is the (*)-condition that makes
the quotient construction a closed manifold.  Axial functions on the
1-skeleton and face restrictions are derived here as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError, PreconditionError
from .gf2 import Matrix, Vec, _rref_rows, reduce_by
from .poset import FacePoset, one_skeleton


@dataclass(frozen=True)
class CharFunction:
    """Facet id -> vector in GF(2)^n."""

    n: int
    values: dict[str, Vec]

    def vec(self, facet: str) -> Vec:
        return self.values[facet]


class Subgroup:
    """Subgroup of GF(2)^n given by spanning vectors; canonical coset reps."""

    def __init__(self, n: int, gens: list[Vec]):
        self.n = n
        for v in gens:
            if v.n != n:
                raise ValueError("generator width mismatch")
        self.gens = list(gens)
        self._rows, self._pivots = _rref_rows(v.bits for v in gens)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def contains(self, v: Vec) -> bool:
        return reduce_by(self._rows, self._pivots, v.bits) == 0

    def coset_rep(self, v: Vec) -> Vec:
        """The unique member of v + G supported on non-pivot columns."""
        return Vec(reduce_by(self._rows, self._pivots, v.bits), self.n)

    def cosets(self) -> list[Vec]:
        """All canonical coset representatives, in increasing bit order."""
        free = [j for j in range(self.n) if j not in set(self._pivots)]
        reps = []
        for mask in range(1 << len(free)):
            bits = 0
            for i, j in enumerate(free):
                if (mask >> i) & 1:
                    bits |= 1 << j
            reps.append(Vec(bits, self.n))
        return reps

    def __repr__(self) -> str:
        return f"Subgroup(rank={self.rank} of GF(2)^{self.n})"


@dataclass
class LambdaReport:
    missing: list[str] = field(default_factory=list)
    unknown: list[str] = field(default_factory=list)
    dependent: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.missing or self.unknown or self.dependent)

    def witnesses(self) -> list[str]:
        return self.missing + self.unknown + self.dependent


def validate_lambda(p: FacePoset, lam: CharFunction) -> LambdaReport:
    """Check the independence condition at every face."""
    rep = LambdaReport()
    if lam.n != p.n:
        rep.dependent.append(f"lambda has width {lam.n}, poset dimension is {p.n}")
        return rep
    facets = set(p.facets())
    for F in sorted(facets):
        if F not in lam.values:
            rep.missing.append(f"facet {F} has no lambda value")
    for F in sorted(lam.values):
        if F not in facets:
            rep.unknown.append(f"lambda value for non-facet {F!r}")
    if not rep.ok:
        return rep
    for f in p.faces():
        S = p.facets_containing(f)
        if not S:
            continue
        vecs = [lam.vec(F) for F in S]
        if Matrix.from_vecs(vecs).rank() != len(vecs):
            rep.dependent.append(
                f"face {f}: facet labels {[str(v) for v in vecs]} of {S} are dependent"
            )
    return rep


def isotropy(p: FacePoset, lam: CharFunction, f: str) -> Subgroup:
    """Isotropy subgroup of the face f: span of its facets' labels."""
    return Subgroup(lam.n, [lam.vec(F) for F in p.facets_containing(f)])


def face_restriction(p: FacePoset, lam: CharFunction, f: str) -> tuple[FacePoset, CharFunction]:
    """The face f as an instance of its own: poset of f plus the induced
    characteristic function in GF(2)^(n-k), read in the coordinates
    complementary to the isotropy subgroup of f."""
    k = p.codim(f)
    if k == 0:
        return p, lam
    sub = p.restrict(f)
    G = isotropy(p, lam, f)
    pivots = set(G._pivots)
    free = [j for j in range(p.n) if j not in pivots]

    def project(v: Vec) -> Vec:
        reduced = G.coset_rep(v).bits
        return Vec.from_bits((reduced >> j) & 1 for j in free)

    mine = set(p.facets_containing(f))
    values: dict[str, Vec] = {}
    for g in sub.facets():
        others = [F for F in p.facets_containing(g) if F not in mine]
        if len(others) != 1:
            raise InputError(
                f"face {g} of {f} lies in {len(others)} facets transverse to {f}, wanted one"
            )
        values[g] = project(lam.vec(others[0]))
    return sub, CharFunction(p.n - k, values)


@dataclass
class GkmGraph:
    """1-skeleton with axial labels; edges keyed by their face id."""

    n: int
    vertices: tuple[str, ...]
    edges: dict[str, tuple[str, str]]
    axial: dict[str, Vec]

    def edges_at(self, v: str) -> list[str]:
        return sorted(e for e, (a, b) in self.edges.items() if v in (a, b))


def axial_function(p: FacePoset, lam: CharFunction) -> GkmGraph:
    """Axial function on the 1-skeleton: alpha(e) is the unique nonzero
    functional vanishing on the labels of the n-1 facets containing e.

    Verified on the way out: the labels at each vertex form a basis, and
    across each edge the two vertex label multisets agree mod alpha(e).
    """
    sk = one_skeleton(p)
    if not (sk.n_valent and sk.connected):
        raise PreconditionError(
            "1-skeleton is not a connected n-valent graph "
            f"(n_valent={sk.n_valent}, connected={sk.connected}, "
            f"degenerate_edges={sorted(sk.degenerate_edges)})"
        )
    axial: dict[str, Vec] = {}
    for e in sorted(sk.edges):
        S = p.facets_containing(e)
        if S:
            null = Matrix.from_vecs([lam.vec(F) for F in S]).nullspace()
            if null.nrows != 1:
                raise InputError(
                    f"edge {e}: functional not unique, nullspace has dimension {null.nrows}"
                )
            axial[e] = Vec(null.rows[0], p.n)
        else:
            # only for n = 1, where the edge is Q itself and nothing constrains it
            if p.n != 1:
                raise InputError(f"edge {e} lies in no facet but n = {p.n}")
            axial[e] = Vec(1, 1)
    g = GkmGraph(p.n, sk.vertices, dict(sk.edges), axial)
    for v in g.vertices:
        at_v = [g.axial[e].bits for e in g.edges_at(v)]
        if Matrix.from_rows(at_v, p.n).rank() != p.n:
            raise InputError(f"axial labels at vertex {v} do not form a basis")
    for e, (v, w) in sorted(g.edges.items()):
        line = Subgroup(p.n, [g.axial[e]])
        left = sorted(line.coset_rep(g.axial[x]).bits for x in g.edges_at(v))
        right = sorted(line.coset_rep(g.axial[x]).bits for x in g.edges_at(w))
        if left != right:
            raise InputError(f"axial labels at {v} and {w} do not agree mod alpha({e})")
    return g


@dataclass(frozen=True)
class MInvolution:
    exists: bool
    g: Vec | None
    reasons: tuple[str, ...] = ()


def _label_image(p: FacePoset, lam: CharFunction) -> tuple[list[int], int]:
    """The distinct facet labels, as sorted bits, and the rank of their span;
    they form a basis of GF(2)^n iff len(image) == rank == n."""
    image = sorted({v.bits for v in lam.values.values()})
    return image, Matrix.from_rows(image, max(p.n, 1)).rank()


def m_involution_check(p: FacePoset, lam: CharFunction, face_acyclic: bool) -> MInvolution:
    """A free involution on the model exists iff the label image is a
    basis of GF(2)^n and Q is face-acyclic; then g is the sum of it."""
    image, rank = _label_image(p, lam)
    reasons = []
    if not len(image) == rank == p.n:
        reasons.append(
            f"label image has {len(image)} distinct values of rank "
            f"{rank}, not a basis of GF(2)^{p.n}"
        )
    if not face_acyclic:
        reasons.append("instance is not face-acyclic")
    if reasons:
        return MInvolution(False, None, tuple(reasons))
    g = Vec(0, p.n)
    for bits in image:
        g = g ^ Vec(bits, p.n)
    return MInvolution(True, g)


@dataclass(frozen=True)
class ColoringClasses:
    classes: dict[str, tuple[str, ...]]  # label string -> facet ids
    is_basis: bool


def coloring_classes(p: FacePoset, lam: CharFunction) -> ColoringClasses:
    by_label: dict[str, list[str]] = {}
    for F in p.facets():
        by_label.setdefault(str(lam.vec(F)), []).append(F)
    image, rank = _label_image(p, lam)
    classes = {k: tuple(sorted(v)) for k, v in sorted(by_label.items())}
    return ColoringClasses(classes, len(image) == rank == p.n)
