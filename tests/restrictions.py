"""A face of an instance as an instance of its own, and the coset
representatives it is read in.  No command runs these; they are test
oracles, kept out of the package: `face_restriction` gives the blow-up
counting check (`paper_checks.blowup_counts_check`) its face's Betti
numbers.
"""

from z2torus.charfunc import CharFunction, Subgroup, isotropy
from z2torus.errors import InputError
from z2torus.gf2 import Vec, reduce_by
from z2torus.poset import FacePoset


def coset_rep(G: Subgroup, v: Vec) -> Vec:
    """The unique member of v + G supported on non-pivot columns."""
    return Vec(reduce_by(G._rows, G._pivots, v.bits), G.n)


def cosets(G: Subgroup) -> list[Vec]:
    """All canonical coset representatives, in increasing bit order."""
    return [Vec(bits, G.n) for bits in G.quotient()[0]]


def restrict(p: FacePoset, f: str) -> FacePoset:
    """Face poset of the face f itself, regraded so f has codim 0."""
    k, bit = p.codims[f], 1 << p._up[f].bit_length() - 1
    codims = {g: p.codims[g] - k for g in p._order if p._up[g] & bit}
    covers = {(c, q) for (c, q) in p.covers if c in codims and q in codims}
    return FacePoset(p.n - k, codims, covers)


def face_restriction(p: FacePoset, lam: CharFunction, f: str) -> tuple[FacePoset, CharFunction]:
    """The face f as an instance of its own: poset of f plus the induced
    characteristic function in GF(2)^(n-k), read in the coordinates
    complementary to the isotropy subgroup of f."""
    if f not in p.codims:
        raise InputError(f"unknown face {f!r}")
    k = p.codim(f)
    if k == 0:
        return p, lam
    sub = restrict(p, f)
    G = isotropy(p, lam, f)
    pivots = set(G._pivots)
    free = [j for j in range(p.n) if j not in pivots]

    def project(v: Vec) -> Vec:
        reduced = coset_rep(G, v).bits
        return Vec.from_bits((reduced >> j) & 1 for j in free)

    mine = p._facet_mask[f]
    values: dict[str, Vec] = {}
    for g in sub.facets():
        others = p._facet_names(p._facet_mask[g] & ~mine)
        if len(others) != 1:
            raise InputError(
                f"face {g} of {f} lies in {len(others)} facets transverse to {f}, wanted one"
            )
        values[g] = project(lam.vec(others[0]))
    return sub, CharFunction(p.n - k, values)
