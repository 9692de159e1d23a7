"""Regular cell complexes over Q, their quotient chain complexes, and
mod-2 homology.

A cell complex over Q lists its cells by dimension, names for each cell
the face of Q whose relative interior contains the cell's interior (its
carrier), and gives each cell's boundary cells, every incidence being 1
mod 2.  Two kinds exist: a carrier complex, whose cells are simplices
(instances may supply one, a genuine triangulation of Q), and the face
poset itself, whose cells are all the faces of Q (`FacePoset`).  Every
function over a cell complex takes it first, and `poset.kept` keeps its
results there.

A base chain has one form, its facet lists: facets[d][i] holds the
indices of the (d-1)-cells in the boundary of d-cell i.  `base_chain`
walks a triangulation or the poset once into them, kept on it.  A chain
complex whose ranks are taken has one form, its rows: rows[d][i] is the
boundary of d-cell i as an int, bit j standing for (d-1)-cell j
(rows[0] is all 0).  QuotientComplex lifts a base chain into rows
through the isotropy gluing of a characteristic function (`_quotient`);
`betti_mod2` reads and checks any rows.  `is_face_acyclic` runs the
paper's criterion on the base chain: `_carried` hands each face, per
degree, the entries its caller gives for the cells carried inside it.
The criterion gives each cell's (index, row) pair, built once, and
ranks each face's rows; `validate_carriers` gives indices and reads the
facet lists, so it builds no rows.  On the poset the criterion is the
CW gate.  The walk and the gather read the poset's up-set masks.

The gate and the model read a triangulation's chain reduced within
carriers (`reduced_chain`, kept on it): pairs of cells with one carrier,
one in the other's boundary, are eliminated over GF(2), which leaves
about one cell per face on a barycentric subdivision.  Both cells of a
pair lie in the same faces' subcomplexes, and each face's subcomplex is
closed, so the elimination is one of each subcomplex too and every
face's Betti numbers stay.  Both cells have one isotropy group, so the
pair lifts to one pair per coset and the model's Betti numbers stay.
The walk's closure and carrier findings and `validate_carriers` read
the whole chain; the poset's chain has one cell per carrier already.
`validate_carriers` returns the witness lines it finds, [] when the
triangulation passes; the walk's lines are kept on the triangulation
with its chain.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain as iter_chain
from itertools import combinations
from typing import NamedTuple, TypeVar

from .charfunc import CharFunction, facet_labels
from .errors import InputError, PreconditionError
from .gf2 import _rref_rows, bit_indices, chain_ranks
from .poset import FacePoset, kept, validate

Simplex = tuple[int, ...]
T = TypeVar("T")


class CarrierComplex:
    """Simplicial complex with a carrier face label on every simplex.  Each
    simplex is a nonempty sorted tuple of distinct points in
    0..n_points - 1, as `instance.parse_instance` checks; it is not
    checked again here."""

    def __init__(self, poset: FacePoset, n_points: int, simplices: dict[Simplex, str]):
        self.poset = poset
        self.n_points = n_points
        self.simplices = dict(simplices)
        # the results `poset.kept` keeps on this triangulation
        self._kept: dict[Callable[..., object], tuple[tuple[object, ...], object]] = {}

    def by_dim(self) -> list[list[Simplex]]:
        """The simplices by dimension, each level sorted, up to the top one."""
        levels: defaultdict[int, list[Simplex]] = defaultdict(list)  # by vertex count
        for sx in self.simplices:
            levels[len(sx)].append(sx)
        return [sorted(levels[k]) for k in range(1, max(levels, default=0) + 1)]

    def carrier(self, sx: Simplex) -> str:
        return self.simplices[sx]

    def boundary(self, sx: Simplex) -> list[Simplex]:
        """sx's facets, the one without sx[0] first: `combinations` lists
        them the other way round."""
        return list(combinations(sx, len(sx) - 1))[::-1]

    def __repr__(self) -> str:
        return f"CarrierComplex(points={self.n_points}, simplices={len(self.simplices)})"


class BaseChain(NamedTuple):
    """The cellular chain complex of a cell complex over Q, from one walk.

    cells[d] lists the d-cells in `by_dim` order, carriers[d] their
    carrier faces, and facets[d][i] the indices of the (d-1)-cells in the
    boundary of d-cell i, in boundary order, as the walk found them
    (facets[0] is all empty).  findings are the walk's closure lines,
    then its carrier lines, each in sorted cell order, with the wording
    of `validate_carriers`; when there are any, the facets leave those
    cells' missing facets out and nothing may read them.  It holds only
    cells, face ids, ints and lines, so keeping it on its owner makes no
    cycle.
    """

    cells: tuple[tuple[Hashable, ...], ...]
    carriers: tuple[tuple[str, ...], ...]
    facets: tuple[tuple[tuple[int, ...], ...], ...]
    findings: tuple[str, ...] = ()


def _walk(base: CarrierComplex | FacePoset) -> BaseChain:
    """Walk base once: each cell's carrier and facet indices, and the
    closure and carrier-monotonicity findings.  Its cells are the
    poset's faces in mode A, else simplices.  A carrier is tested against
    its cell's with a bit of the poset's up-set masks `p._up`.  Boundary² = 0
    is not checked: on a closed triangulation the boundary of the boundary
    of a simplex lists each codim-2 face twice, and in a sound poset every
    length-two interval has two middle faces."""
    p = base.poset
    up = p._up
    kind = "face" if base is p else "simplex"
    boundary = base.boundary
    levels = base.by_dim()
    carriers = [[base.carrier(cell) for cell in level] for level in levels]
    closure: list[tuple[Hashable, str]] = []
    wrong: list[tuple[Hashable, str]] = []
    facets: list[tuple[tuple[int, ...], ...]] = []
    index: dict[Hashable, int] = {}
    for d, level in enumerate(levels):
        below, index = index, {cell: i for i, cell in enumerate(level)}
        under = carriers[d - 1] if d else []
        listed = []
        for cell, cf in zip(level, carriers[d]):
            js = []
            if cf not in p.codims:
                wrong.append((cell, f"{kind} {cell} carried by unknown face {cf!r}"))
            elif d:
                mine = 1 << up[cf].bit_length() - 1  # fc <= cf when fc's up-set has it
                for face in boundary(cell):
                    j = below.get(face)
                    if j is None:
                        closure.append((cell, f"{kind} {cell} misses facet {face}"))
                        continue
                    fc = under[j]
                    if fc in up and not up[fc] & mine:  # an unknown fc has its own line
                        wrong.append(
                            (cell, f"carrier of {face} ({fc}) not inside carrier of {cell} ({cf})")
                        )
                    js.append(j)
            listed.append(tuple(js))
        facets.append(tuple(listed))

    def in_order(found: list[tuple[Hashable, str]]) -> tuple[str, ...]:
        return tuple(line for _, line in sorted(found, key=lambda x: x[0]))

    return BaseChain(
        tuple(map(tuple, levels)), tuple(map(tuple, carriers)), tuple(facets),
        in_order(closure) + in_order(wrong),
    )


@kept
def _kept_chain(base: CarrierComplex | FacePoset) -> BaseChain:
    """The walk of base, kept on it."""
    return _walk(base)


def base_chain(base: CarrierComplex | FacePoset) -> BaseChain:
    """base's chain, walked once and kept on base.  Raises InputError when
    base is not closed, a boundary leaves its cell's carrier, or, for the
    poset, it is not sound, with the walk's findings or those `validate`
    keeps on the poset, and TypeError (from `kept`) when base is neither
    of the two cell complexes over Q."""
    chain = _kept_chain(base)
    if chain.findings:
        raise InputError(chain.findings)
    if base is base.poset and validate(base):
        raise InputError(validate(base))
    return chain


@kept
def reduced_chain(base: CarrierComplex | FacePoset) -> BaseChain:
    """base's chain reduced within carriers (`_reduce`), kept on base; the
    gate and the model read it.  The poset's chain is already reduced,
    each face being its carrier's only cell, and comes back as it is.
    Raises as `base_chain` does."""
    chain = base_chain(base)
    return chain if base is base.poset else _reduce(chain, base.poset)


def _reduce(chain: BaseChain, p: FacePoset) -> BaseChain:
    """chain with pairs of cells of one carrier eliminated over GF(2).

    A pair (a, b) has a in the boundary of b.  Every other cell c with a
    in its boundary gets the boundary of b added, and b leaves the rows
    one degree up (Kaczynski, Mrozek and Slusarek, "Homology computation
    by reduction of chain complexes", 1998).  The carriers go smallest
    faces first; within one, b pairs with a when a is the only cell of
    the carrier left in b's boundary, and when no such b is left the
    lowest-degree cell left is kept, critical (Mrozek and Batko,
    "Coreduction homology algorithm", 2009).  A carrier also keeps one
    cell of its top degree, so every face's subcomplex keeps its
    dimension; on a triangulation that `validate_carriers` passes the
    face's top cells are a relative cycle and some would stay anyway.

    Every cell has one number here, its index plus the number of cells
    of lower degree, so numbers ascend with the degree.  Cells of carriers
    not yet reached read their boundary through image[c], the critical
    cells of one degree that cell c now stands for: itself when kept, the
    rest of b's boundary for a, nothing for b.  The rows of the cells
    carried by the face being reduced are kept up to date instead, with
    each left cell's cofaces there and each cell's count of left cells in
    its row.  The critical cells keep their order, and facets lists their
    boundaries' cells in ascending order."""
    first = [0]  # each degree's first number
    for level in chain.cells:
        first.append(first[-1] + len(level))
    facets = [js for level in chain.facets for js in level]
    degree = [d for d, level in enumerate(chain.cells) for _ in level]
    nothing: set[int] = set()  # shared, never changed
    image = [nothing] * first[-1]  # each is set as its carrier is reached
    rows: list[set[int] | None] = [None] * first[-1]  # None once paired or not yet reached
    count = [0] * first[-1]
    by_carrier: dict[str, list[int]] = {}  # each carrier's cells, in ascending order
    for d, level in enumerate(chain.carriers):
        for c, g in enumerate(level, first[d]):
            by_carrier.setdefault(g, []).append(c)
    for g in reversed(p._order):
        mine = by_carrier.get(g)
        if mine is None:
            continue
        for c in mine:
            image[c] = {c}
        for c in mine:
            row: set[int] = set()
            d = degree[c]
            if d:
                shift = first[d - 1]
                for j in facets[c]:
                    row ^= image[shift + j]
            rows[c] = row
        if len(mine) == 1:  # it stays
            continue
        left = set(mine)
        cofaces: dict[int, list[int]] = {}
        free = []  # cells with one left cell in their row, first found first
        for c in mine:
            inside = rows[c] & left
            for a in inside:
                cofaces.setdefault(a, []).append(c)
            count[c] = len(inside)
            if count[c] == 1:
                free.append(c)
        top = degree[mine[-1]]
        tops = len(mine) - bisect_left(mine, first[top])
        k = 0
        while left:
            while k < len(free):
                b = free[k]
                k += 1
                if b not in left or count[b] != 1:
                    continue
                if degree[b] == top:
                    if tops == 1:
                        continue
                    tops -= 1
                boundary = rows[b]
                (a,) = boundary & left
                left.discard(a)
                left.discard(b)
                rows[a] = rows[b] = None
                for c in cofaces[a]:
                    row = rows[c]
                    if row is None:  # b, or a cell paired before
                        continue
                    row ^= boundary
                    if c in left:
                        count[c] -= 1
                        if count[c] == 1:
                            free.append(c)
                for c in cofaces.get(b, ()):
                    row = rows[c]
                    if row is None:
                        continue
                    row.discard(b)
                    if c in left:
                        count[c] -= 1
                        if count[c] == 1:
                            free.append(c)
                boundary.discard(a)
                image[a] = boundary
                image[b] = nothing
            if left:
                critical = min(left)  # of the lowest degree left
                left.discard(critical)
                for c in cofaces.get(critical, ()):
                    if c in left:
                        count[c] -= 1
                        if count[c] == 1:
                            free.append(c)

    cells, carriers, out_facets = [], [], []
    number: dict[int, int] = {}  # a critical cell's index in the reduced chain
    for d, level in enumerate(chain.cells):
        stay = [c for c in range(first[d], first[d + 1]) if rows[c] is not None]
        below, number = number, {c: k for k, c in enumerate(stay)}
        cells.append(tuple(level[c - first[d]] for c in stay))
        carriers.append(tuple(chain.carriers[d][c - first[d]] for c in stay))
        out_facets.append(tuple(tuple(sorted(below[a] for a in rows[c])) for c in stay))
    return BaseChain(tuple(cells), tuple(carriers), tuple(out_facets))


class QuotientComplex:
    """Mod-2 chain complex of (base x GF(2)^n) / isotropy.

    `base` is a CarrierComplex or a FacePoset, and lam a characteristic
    function.  (x, g) ~ (x, g') whenever g - g' lies in the isotropy
    subgroup of the carrier of x: a cell with carrier f becomes one cell
    per coset of G_f, written (cell, canonical coset representative).
    The boundary drops the coset into the cosets of the smaller carriers'
    groups, and coincident images cancel mod 2.  cells[d] lists the
    d-cells and rows[d] their boundaries, in the module's row form.

    The rows are lifted from base's chain reduced within carriers
    (`reduced_chain`), whose walk checked closure, carriers and, for the
    poset, soundness once: the row of (c, g) is the XOR of
    (c', rep(g + G_f')) over the cells c' in the boundary of c, f' being
    the carrier of c'.  On a triangulation the cells are the critical
    simplices of the reduction, not all of them.  The model is the one
    over the whole triangulation reduced by the lifted pairs: a pair
    (a, b) with carrier f lifts to the pairs ((a, g), (b, g)), one per
    coset g of G_f, since (a, rep(g + G_f)) = (a, g) lies in the boundary
    of (b, g), and adding b's boundary to a coface's lifts to adding
    (b, g)'s, as coset drops compose (below).  So its Betti numbers are
    those of the whole simplicial model.  Boundary² = 0 on the model
    follows from the base's, which holds by construction (see `_walk`).
    Take c' in the boundary of c and c'' in that of c', with carriers
    f'' <= f' <= f.  A smaller face lies in more facets, so
    G_f <= G_f' <= G_f'', and coset drops compose:
    rep(rep(g + G_f') + G_f'') = rep(g + G_f'').  Every path from (c, g)
    down to c'' thus ends at the one cell (c'', rep(g + G_f'')), and the
    coefficient of (c'', h) in the boundary² of (c, g) is 0 or the number
    of paths from c to c'' in base, which is even as boundary² = 0 there.
    The tests check the bases and the models.
    """

    def __init__(self, base: CarrierComplex | FacePoset, lam: CharFunction):
        self.base = base
        self.lam = lam
        self.n = lam.n
        self.cells, self.rows = _lift(reduced_chain(base), base.poset, lam)

    def betti(self) -> tuple[int, ...]:
        """Unreduced mod-2 Betti numbers, padded to length n+1."""
        b = _betti(list(map(len, self.rows)), chain_ranks([enumerate(r) for r in self.rows]))
        return tuple(b) + (0,) * (self.n + 1 - len(b))

    def cell_count(self) -> int:
        return sum(len(c) for c in self.cells)


def _lift(
    chain: BaseChain, p: FacePoset, lam: CharFunction
) -> tuple[list[list[tuple[Hashable, int]]], tuple[tuple[int, ...], ...]]:
    """The cells and boundary rows of the quotient model over chain."""
    # GF(2)^n / G_f as `_quotient` gives it; group[f] indexes the
    # quotients, and carriers with the same labels, read off their facet
    # masks, share one.
    quotients: list[tuple[list[int], list[int]]] = []
    by_labels: dict[frozenset[int], int] = {}
    group: dict[str, int] = {}
    label = facet_labels(p, lam)
    for f in dict.fromkeys(f for level in chain.carriers for f in level):
        labels = frozenset(label[j] for j in bit_indices(p._facet_mask[f]))
        if labels not in by_labels:
            by_labels[labels] = len(quotients)
            quotients.append(_quotient(labels, lam.n))
        group[f] = by_labels[labels]
    groups = [[group[f] for f in level] for level in chain.carriers]

    cells: list[list[tuple[Hashable, int]]] = []
    firsts: list[list[int]] = []  # per degree, each cell's first coset's index
    for level, gs in zip(chain.cells, groups):
        out: list[tuple[Hashable, int]] = []
        first = []
        for cell, g in zip(level, gs):
            first.append(len(out))
            out += [(cell, r) for r in quotients[g][0]]
        cells.append(out)
        firsts.append(first)

    drops: dict[tuple[int, int], list[int]] = {}  # (group, face's group) -> positions
    rows: list[tuple[int, ...]] = [(0,) * len(cells[0])] if cells else []
    for d in range(1, len(cells)):
        first, below = firsts[d - 1], groups[d - 1]
        out_rows: list[int] = []
        for mine, js in zip(groups[d], chain.facets[d]):
            reps = quotients[mine][0]
            targets = []  # (index of face's first coset, drop)
            for j in js:
                key = (mine, below[j])
                drop = drops.get(key)
                if drop is None:
                    drop = drops[key] = _drop_positions(reps, quotients[key[1]][1])
                targets.append((first[j], drop))
            for k in range(len(reps)):
                bits = 0
                for f0, drop in targets:
                    bits ^= 1 << (f0 + drop[k])
                out_rows.append(bits)
        rows.append(tuple(out_rows))
    return cells, tuple(rows)


def _quotient(labels: Iterable[int], n: int) -> tuple[list[int], list[int]]:
    """GF(2)^n / G for G the span of the labels, as ints: the canonical
    coset representatives in increasing order, and for each unit vector
    e_i the position of rep(e_i + G) among them.  The reps are the vectors
    on the free columns, those that are not pivots of G's `_rref_rows`
    form.  rep(e_i + G) is e_i for a free column i, and the echelon row of
    pivot i without its pivot bit otherwise, as that row's other bits are
    all free.  A rep's position is its bits read on the free columns, so
    g -> position of rep(g + G) is linear: the XOR of the positions of
    g's unit vectors."""
    rows, pivots = _rref_rows(labels)
    row_of = dict(zip(pivots, rows))
    free = [j for j in range(n) if j not in row_of]
    reps = [0]
    for j in free:
        reps += [r | 1 << j for r in reps]
    positions = []
    for i in range(n):
        rep = row_of.get(i, 0) ^ 1 << i
        positions.append(sum(1 << k for k, j in enumerate(free) if rep >> j & 1))
    return reps, positions


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


def _check_squares(rows: Sequence[Sequence[int]]) -> None:
    """Raise ValueError unless each row's boundary, the XOR of the rows
    one degree down that its bits select, is 0."""
    for d in range(2, len(rows)):
        inner = rows[d - 1]
        for row in rows[d]:
            acc = 0
            while row:
                top = row.bit_length() - 1
                acc ^= inner[top]
                row ^= 1 << top
            if acc:
                raise ValueError(f"boundary composite in degree {d} is nonzero")


def _betti(dims: Sequence[int], ranks: Sequence[int]) -> tuple[int, ...]:
    """Betti numbers from cell counts and boundary ranks, ranks[d] being
    the rank of the boundary out of degree d (ranks[0] = 0)."""
    r = [*ranks, 0]
    return tuple(dims[d] - r[d] - r[d + 1] for d in range(len(dims)))


def betti_mod2(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Unreduced mod-2 Betti numbers of the chain complex whose d-cells
    have the boundary rows rows[d]: rows[d][i] is an int with bit j set
    when (d-1)-cell j lies in the boundary of d-cell i, and rows[0] is all
    0.  Verifies boundary-squared = 0."""
    _check_squares(rows)
    return _betti(list(map(len, rows)), chain_ranks([enumerate(r) for r in rows]))


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


def _carried(
    chain: BaseChain, p: FacePoset, cells: Sequence[Sequence[T]]
) -> Iterator[tuple[str, list[list[T]]]]:
    """Each face f of p, in `p.faces()` order, with its subcomplex: the
    entries cells[d][i] of the cells i of chain carried inside f, per
    degree d up to the subcomplex's dimension.  The carrier checks hand
    out indices, the criterion (index, row) pairs built once per cell.
    Each carrier's entries are handed to the faces above it, the bits of
    its up-set mask `p._up`, and a face's lists are joined when it is
    yielded, so the entries within a degree follow the carriers, not the
    indices.  A boundary never leaves its cell's carrier, so the
    subcomplex is closed."""
    # carrier -> (degree, its entries), for the degrees the carrier holds cells in
    by_carrier: dict[str, list[tuple[int, list[T]]]] = {}
    for d, (carriers, level) in enumerate(zip(chain.carriers, cells)):
        for carrier, entry in zip(carriers, level):
            by_dim = by_carrier.setdefault(carrier, [])
            if not by_dim or by_dim[-1][0] != d:
                by_dim.append((d, []))
            by_dim[-1][1].append(entry)
    held: list[list[tuple[int, list[T]]]] = [[] for _ in p._order]  # by face bit
    for g, by_dim in by_carrier.items():
        up = p._up[g]
        while up:
            k = up.bit_length() - 1
            up ^= 1 << k
            held[k] += by_dim
    for f, pieces in zip(p._order, held):
        sub: list[list[T]] = []
        for d, entries in pieces:
            while len(sub) <= d:
                sub.append([])
            sub[d] += entries
        yield f, sub


def is_face_acyclic(base: CarrierComplex | FacePoset) -> AcyclicityReport:
    """Is every face's subcomplex, the cells carried inside it, mod-2 acyclic?

    Each face's subcomplex is a set of rows of base's chain reduced
    within carriers (`reduced_chain`, `_carried`), read at its own size;
    the reduction keeps each face's Betti numbers.  On the poset this is the
    CW gate (Bjorner, "Posets, regular CW complexes and Bruhat order",
    1984): for f of dimension d >= 1 the boundary of the cell f is a
    (d-1)-cycle of f's boundary, which has no d-cells to bound it, so the
    faces below f are acyclic exactly when f's boundary has the mod-2
    homology of S^(d-1).
    """
    return _acyclicity(reduced_chain(base), base.poset)


def _acyclicity(chain: BaseChain, p: FacePoset) -> AcyclicityReport:
    """Each face's reduced Betti numbers, read off its rows in chain, each
    cell's row built once from its facet list."""
    pairs: list[list[tuple[int, int]]] = []  # per degree, each cell's (index, row)
    for level in chain.facets:
        pairs.append([])
        for i, js in enumerate(level):
            row = 0
            for j in js:
                row |= 1 << j
            pairs[-1].append((i, row))
    per_face: dict[str, tuple[int, ...]] = {}
    empty: list[str] = []
    for f, sub in _carried(chain, p, pairs):
        if not sub:
            empty.append(f)
            continue
        b = _betti([len(level) for level in sub], chain_ranks(sub))
        per_face[f] = (b[0] - 1,) + b[1:]
    return AcyclicityReport(per_face, empty)


@kept
def face_acyclicity(base: CarrierComplex | FacePoset) -> AcyclicityReport:
    """The criterion on base, kept on it: on a triangulation (mode B), or on
    the poset as the CW gate of mode A, whose failure raises
    PreconditionError on every call, as a call that raises keeps nothing."""
    rep = is_face_acyclic(base)
    if base is not base.poset:
        return rep
    failing = sorted((base.dim_face(f), f) for f, b in rep.per_face.items() if any(b))
    if failing:
        named = ", ".join(f for _, f in failing[:5])
        more = f" and {len(failing) - 5} more" if len(failing) > 5 else ""
        raise PreconditionError(
            "mode A needs a CW poset, where the boundary of every face is a mod-2 "
            f"homology sphere; it fails at {named}{more}; supply a triangulation to use mode B"
        )
    return rep


def validate_carriers(c: CarrierComplex) -> list[str]:
    """Closure, carrier monotonicity, and per-face pseudo-manifold checks:
    the closure findings, then the carrier ones, then the points in no
    simplex, then the face-strata findings; [] when c passes.

    For each face f the carried subcomplex must have dimension dim(f), as
    a genuine triangulation of Q does, and be pure, with every wall
    ((d-1)-simplex) in two top simplices when carried by f itself and in
    one when carried by a proper subface.
    """
    p = c.poset
    chain = _kept_chain(c)  # the closure and carrier findings come from its walk
    used = set(iter_chain.from_iterable(c.simplices))
    found = list(chain.findings)
    found += [f"point {v} appears in no simplex" for v in range(c.n_points) if v not in used]
    if found:
        return found

    facets = chain.facets  # each simplex's, as the walk listed them
    for f, sub in _carried(chain, p, [range(len(level)) for level in facets]):
        if not sub:
            found.append(f"face {f} carries no simplex")
            continue
        d = len(sub) - 1
        if d != p.dim_face(f):
            found.append(
                f"subcomplex of face {f} has dimension {d}, face has dimension {p.dim_face(f)}"
            )
        # cofaces[k][i]: the (k+1)-simplices of the subcomplex on its k-simplex i
        cofaces = [
            Counter(iter_chain.from_iterable(facets[k][i] for i in level))
            for k, level in enumerate(sub[1:], 1)
        ]
        found += [
            f"face {f}: simplex {sx} is maximal below dimension {d}"
            for sx in sorted(
                chain.cells[k][i] for k in range(d) for i in sub[k] if not cofaces[k][i]
            )
        ]
        walls = []
        for i in sub[d - 1] if d else ():  # the walls, the (d-1)-simplices
            want = 2 if chain.carriers[d - 1][i] == f else 1
            if cofaces[d - 1][i] != want:
                walls.append((chain.cells[d - 1][i], cofaces[d - 1][i], want))
        found += [
            f"face {f}: wall {sx} lies in {n} top simplices, wanted {want}"
            for sx, n, want in sorted(walls)
        ]
    return found
