"""Characteristic functions: facet labels in GF(2)^n and what they induce.

The label of a facet is the generator of the isotropy line of its
preimage; independence over every face is the (*)-condition that makes
the quotient construction a closed manifold.  Axial functions on the
1-skeleton and the m-involution check are derived here as well; a
face's isotropy group, the span of its facets' labels, is read as label
ints where it is used (`complexes._quotient`, `model.fixed_locus`).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import InputError, PreconditionError
from .gf2 import Matrix, Vec, _rref_rows, _top_basis, bit_indices
from .poset import FacePoset, kept, one_skeleton, validate


@dataclass(frozen=True)
class CharFunction:
    """Facet id -> vector in GF(2)^n.  A read-only value: `values` is a
    read-only copy of the mapping it is given, every vector of width n."""

    n: int
    values: Mapping[str, Vec]

    def __post_init__(self) -> None:
        values = dict(self.values)
        for F, v in values.items():
            if v.n != self.n:
                raise ValueError(f"label of {F!r} has width {v.n}, not {self.n}")
        object.__setattr__(self, "values", MappingProxyType(values))

    def vec(self, facet: str) -> Vec:
        return self.values[facet]


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


@kept
def validate_lambda(p: FacePoset, lam: CharFunction) -> LambdaReport:
    """Check the independence condition at every face.  The report is kept
    on p for this lam (`kept`), which is read-only, so it cannot go stale."""
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

    label = [lam.vec(F).bits for F in p._facet_ids]  # by facet index
    facet_mask = p._facet_mask

    def independent(f: str) -> bool:
        rows = [label[j] for j in bit_indices(facet_mask[f])]
        return len(_top_basis(enumerate(rows))) == len(rows)

    # v <= f gives facets(f) <= facets(v), and subsets of independent sets are independent
    passed = 0  # a bitmask over the face order, as FacePoset keeps it
    for v in p.vertices():
        if independent(v):
            passed |= p._up[v]
    for i, f in enumerate(p._order):
        if not passed & 1 << i and not independent(f):
            S = p.facets_containing(f)
            rep.dependent.append(
                f"face {f}: facet labels {[str(lam.vec(F)) for F in S]} of {S} are dependent"
            )
    return rep


def require_valid(p: FacePoset, lam: CharFunction, what: str) -> None:
    """Raise InputError, "<what> input fails validation" and the findings,
    unless p is sound and lam independent at every face, both read from
    the results kept on p.  Its callers check nothing more on the way."""
    witnesses = validate(p).witnesses() or validate_lambda(p, lam).witnesses()
    if witnesses:
        raise InputError([f"{what} input fails validation"] + witnesses)


# by vertex position: (edge, other end's position, form bits) for each
# edge at it, edges sorted
Ends = tuple[tuple[tuple[str, int, int], ...], ...]


@dataclass(frozen=True)
class GkmGraph:
    """1-skeleton with axial labels; edges keyed by their face id.  A
    read-only value, read once when it is built: `edges` and `axial` are
    read-only copies, and `ends[i]` gives the edges at `vertices[i]`, each
    with the position of its other end.  The builder states
    `incongruent`, the sorted edges e = (v, w) across which the forms at
    v and at w disagree mod alpha(e): `axial_function` proves there are
    none, so nothing scans for them here.  A graph is refused, with
    ValueError naming the first offender, if a vertex is repeated, the
    keys of `axial` are not those of `edges`, an edge's form is not of
    width n or an edge ends outside `vertices`."""

    n: int
    vertices: tuple[str, ...]
    edges: Mapping[str, tuple[str, str]]
    axial: Mapping[str, Vec]
    incongruent: tuple[str, ...]
    ends: Ends = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        edges, axial = dict(self.edges), dict(self.axial)
        index: dict[str, int] = {}  # vertex -> position
        for i, v in enumerate(self.vertices):
            if index.setdefault(v, i) != i:
                raise ValueError(f"vertex {v!r} is repeated")
        if axial.keys() != edges.keys():
            e = min(axial.keys() ^ edges.keys())
            what = "has no form" if e in edges else "has a form but is not an edge"
            raise ValueError(f"{e!r} {what}")
        ends: list[list[tuple[str, int, int]]] = [[] for _ in self.vertices]
        for e, (a, b) in sorted(edges.items()):
            form = axial[e]
            if form.n != self.n:
                raise ValueError(f"form of {e!r} has width {form.n}, not {self.n}")
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                raise ValueError(f"edge {e!r} ends at {a if i is None else b!r}, not a vertex")
            ends[i].append((e, j, form.bits))
            if j != i:
                ends[j].append((e, i, form.bits))
        put = object.__setattr__  # the one write of each field
        put(self, "edges", MappingProxyType(edges))
        put(self, "axial", MappingProxyType(axial))
        put(self, "ends", tuple(map(tuple, ends)))


def _dual_basis(labels: tuple[int, ...], n: int) -> dict[int, Vec]:
    """label -> the form that is 1 on it and 0 on the other labels, for a
    basis `labels` of GF(2)^n, from one `_rref_rows` of the rows
    label << n | 1 << k.  The label columns are all pivots, so row i of
    the echelon form is 1 << (n + i) | c_i, with e_i the sum of the
    labels[k] over the bits k of c_i: the c_i are the rows of the inverse
    C of the matrix L of labels.  The form of labels[k] is column k of C,
    as L C = I."""
    rows, _ = _rref_rows(label << n | 1 << k for k, label in enumerate(labels))
    return {
        label: Vec(sum((row >> k & 1) << i for i, row in enumerate(rows)), n)
        for k, label in enumerate(labels)
    }


def axial_function(p: FacePoset, lam: CharFunction) -> GkmGraph:
    """Axial function on the 1-skeleton: alpha(e) is the unique nonzero
    functional vanishing on the labels of the n-1 facets containing e.
    At an end v of e, that is the dual vector of the label of the one
    facet through v that misses e, so one inversion is made per vertex
    label set (`_dual_basis`), shared by the vertices with that set, and
    each edge, taken in sorted order, reads its form at its first end.

    Precondition: p is sound and lam independent at every face
    (`require_valid`), else InputError.  The graph is then a GKM graph by
    construction, so it is not checked on the way out, and it is built
    with `incongruent` = ():
    - the n edges at a vertex v each lie on all but one of v's n facets,
      each missing a different one; v's labels are a basis, so the forms
      at v are its dual basis, and the facet e misses at v is the one
      bit of v's facet mask outside e's (p is nice);
    - let e = (v, w) lie on the facets S, v on S + {A} and w on S + {B}.
      For s in S, the edges at v and at w that drop s both have forms
      that are 1 on lam(s) and 0 on the rest of lam(S), so their sum
      vanishes on lam(S) and is 0 or alpha(e): no edge is incongruent
      (Guillemin and Zara, 2001);
    - at n = 1 the edge is Q, on no facet, each vertex is a facet, and
      the form is 1.
    """
    require_valid(p, lam, "gkm")
    sk = one_skeleton(p)
    if not (sk.n_valent and sk.connected):
        raise PreconditionError(
            "1-skeleton is not a connected n-valent graph "
            f"(n_valent={sk.n_valent}, connected={sk.connected}, "
            f"degenerate_edges={sorted(sk.degenerate_edges)})"
        )
    label = [lam.vec(F).bits for F in p._facet_ids]  # by facet index
    mask = p._facet_mask
    duals: dict[tuple[int, ...], dict[int, Vec]] = {}  # sorted labels -> dual basis
    dual: dict[str, dict[int, Vec]] = {}  # vertex -> its labels' dual basis
    for v in sk.vertices:
        labels = tuple(sorted(label[j] for j in bit_indices(mask[v])))
        basis = duals.get(labels)
        if basis is None:
            basis = duals[labels] = _dual_basis(labels, p.n)
        dual[v] = basis
    axial: dict[str, Vec] = {}
    for e, (v, _) in sorted(sk.edges.items()):
        missed = (mask[v] & ~mask[e]).bit_length() - 1
        axial[e] = dual[v][label[missed]]
    return GkmGraph(p.n, sk.vertices, sk.edges, axial, ())


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
    """An m-involution of the model, when the labels make one.

    Only the elements g of the acting group GF(2)^n = (Z/2)^n are
    searched, not other involutions of M.  The paper's m-involution is
    not free: its fixed set is the largest one Smith theory allows,
    sum b_i(M; Z/2) isolated points.  One is reported when n >= 1, the
    label image is a basis of GF(2)^n and Q is face-acyclic; g is then
    the sum of that basis.  g lies in the isotropy group of a face
    exactly when the face's labels span GF(2)^n, as at every vertex, so
    g fixes one point over each vertex, and on a face-acyclic Q the
    vertices number sum b_i.  At n = 0 the group is trivial and its one
    element, the identity, is no involution.

    Why none is found otherwise.  Every g fixes the one point over each
    vertex, so a discrete fixed set has one point per vertex and no
    more; when Q is not face-acyclic the paper's theorem puts sum b_i
    above the vertex count, and no g reaches it.  A fixed set is
    discrete iff g lies in no edge's isotropy group.  At a vertex v the
    labels are a basis and the edges at v drop one facet each, so this
    holds at v iff g is the sum of v's labels.  The two ends of an edge
    share its n - 1 facets, so the one facet each has beyond them carry
    equal labels, and the two ends have the same label set.  On a
    connected 1-skeleton where every facet has a vertex, the label image
    is then that one basis."""
    image, rank = _label_image(p, lam)
    reasons = []
    if p.n == 0:
        reasons.append("dimension 0: the only element of GF(2)^0 is the identity, no involution")
    elif not len(image) == rank == p.n:
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
