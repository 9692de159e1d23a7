"""Checks of the paper's statements that no command prints, kept as
test oracles: the components of a face's preimage in the model, the
coloring classes of the facet labels, and the two counting identities
of a blow-up.
"""

from dataclasses import dataclass

from restrictions import face_restriction

from z2torus.blowup import CutResult, cut_face
from z2torus.charfunc import CharFunction, _label_image
from z2torus.complexes import CarrierComplex, _lift, base_chain
from z2torus.gf2 import bit_indices
from z2torus.model import formality_verdict
from z2torus.poset import FacePoset, count_components


def simplicial_model(base: CarrierComplex | FacePoset, lam: CharFunction):
    """The cells and boundary rows of the model over every cell of base:
    the lift of base's walked chain, where `QuotientComplex` lifts the
    chain reduced within carriers."""
    return _lift(base_chain(base), base.poset, lam)


def facial_components(base: CarrierComplex | FacePoset, lam: CharFunction, f: str) -> int:
    """Connected components of the preimage of the face f in the model
    over every cell of base."""
    p = base.poset
    model_cells, rows = simplicial_model(base, lam)
    inside = [[p.leq(base.carrier(cell), f) for cell, _ in cells] for cells in model_cells]
    cells = [(d, i) for d, flags in enumerate(inside) for i, ok in enumerate(flags) if ok]
    # the boundary cells of a cell inside f are inside f too
    pairs = (
        ((d, i), (d - 1, j))
        for d in range(1, len(model_cells))
        for i, row in enumerate(rows[d])
        if inside[d][i]
        for j in bit_indices(row)
    )
    return count_components(cells, pairs)


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


@dataclass(frozen=True)
class CountsCheck:
    k: int
    vertices_before: int
    vertices_after: int
    vertices_face: int
    vertices_ok: bool
    betti_sum_before: int
    betti_sum_after: int
    betti_sum_face: int
    betti_ok: bool
    hsiang_before: bool
    hsiang_after: bool

    @property
    def formality_preserved(self) -> bool:
        return (not self.hsiang_before) or self.hsiang_after


def blowup_counts_check(
    p: FacePoset, lam: CharFunction, f: str, cut: CutResult | None = None
) -> CountsCheck:
    """Verify the two counting identities for the cut at f, with total
    Betti numbers computed from the mode-A models of Q, the cut result,
    and the face itself."""
    if cut is None:
        cut = cut_face(p, lam, f)
    k = p.codim(f)
    nv_before = len(p.vertices())
    nv_after = len(cut.poset.vertices())
    nv_face = len([v for v in p.vertices() if p.leq(v, f)])

    before = formality_verdict(p, lam)
    after = formality_verdict(cut.poset, cut.lam)
    sub_p, sub_lam = face_restriction(p, lam, f)
    face_sum = formality_verdict(sub_p, sub_lam).sum_betti
    return CountsCheck(
        k,
        nv_before,
        nv_after,
        nv_face,
        nv_after == nv_before + (k - 1) * nv_face,
        before.sum_betti,
        after.sum_betti,
        face_sum,
        after.sum_betti == before.sum_betti + (k - 1) * face_sum,
        before.hsiang,
        after.hsiang,
    )
