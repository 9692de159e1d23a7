"""A face of an instance as an instance of its own, its isotropy group,
and the coset representatives it is read in.  No command runs these;
they are test oracles, kept out of the package: `face_restriction`
gives the blow-up counting check (`paper_checks.blowup_counts_check`)
its face's Betti numbers, and `Subgroup` is the oracle for the isotropy
quotients that `complexes._quotient` reads off label ints and for the
membership test of `model.fixed_locus`.
"""

from z2torus.charfunc import CharFunction
from z2torus.errors import InputError
from z2torus.gf2 import Vec, _rref_rows
from z2torus.poset import FacePoset


def reduce_by(rref_rows: list[int], pivots: list[int], v: int) -> int:
    """Clear the pivot coordinates of v against an RREF basis.

    The result is the canonical representative of v modulo the row span:
    it is zero exactly when v lies in the span.
    """
    for p, r in zip(pivots, rref_rows):
        if (v >> p) & 1:
            v ^= r
    return v


class Subgroup:
    """Subgroup of GF(2)^n given by spanning vectors; canonical coset reps."""

    def __init__(self, n: int, gens: list[Vec]):
        self.n = n
        for v in gens:
            if v.n != n:
                raise ValueError("generator width mismatch")
        self._rows, self._pivots = _rref_rows(v.bits for v in gens)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def contains(self, v: Vec) -> bool:
        return reduce_by(self._rows, self._pivots, v.bits) == 0

    def quotient(self) -> tuple[list[int], list[int]]:
        """GF(2)^n / G on ints: the canonical coset representatives in
        increasing order, and for each unit vector e_i the position of
        rep(e_i + G) among them.  A rep's position is its bits read on the
        non-pivot columns, so g -> position of rep(g + G) is linear: the
        XOR of the positions of g's unit vectors."""
        pivots = set(self._pivots)
        free = [j for j in range(self.n) if j not in pivots]
        reps = [0]
        for j in free:
            reps += [r | 1 << j for r in reps]
        positions = []
        for i in range(self.n):
            rep = reduce_by(self._rows, self._pivots, 1 << i)
            positions.append(sum(1 << k for k, j in enumerate(free) if rep >> j & 1))
        return reps, positions

    def __repr__(self) -> str:
        return f"Subgroup(rank={self.rank} of GF(2)^{self.n})"


def isotropy(p: FacePoset, lam: CharFunction, f: str) -> Subgroup:
    """Isotropy subgroup of the face f: span of its facets' labels."""
    return Subgroup(lam.n, [lam.vec(F) for F in p.facets_containing(f)])


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
