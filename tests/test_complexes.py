"""Carrier complexes, mod-2 homology, and face-acyclicity."""

import functools
import random

import pytest
from conftest import apply_edit, below_oracle, edits, lowest_bit_basis, reduced, rows
from hypothesis import given, settings
from hypothesis import strategies as st
from paper_checks import simplicial_model
from restrictions import Subgroup, isotropy

from z2torus import complexes, corpus
from z2torus.blowup import cut_face
from z2torus.charfunc import CharFunction
from z2torus.complexes import (
    CarrierComplex,
    QuotientComplex,
    _acyclicity,
    _carried,
    _check_squares,
    _drop_positions,
    _quotient,
    _reduce,
    _walk,
    base_chain,
    betti_mod2,
    face_acyclicity,
    is_face_acyclic,
    reduced_chain,
    validate_carriers,
)
from z2torus.errors import InputError, PreconditionError
from z2torus.gf2 import Vec, chain_ranks
from z2torus.instance import parse_instance
from z2torus.model import formality_verdict
from z2torus.poset import FacePoset, order_complex

POINT_POSET = FacePoset(0, {"Q": 0}, set())


def facets_of(sx):
    """sx's facets by slicing, the one without sx[0] first: the oracle for
    `CarrierComplex.boundary`."""
    return [sx[:i] + sx[i + 1 :] for i in range(len(sx))]


def face_subcomplex(c, f):
    """Subcomplex of simplices carried inside the face f, renumbered."""
    keep = {sx: cf for sx, cf in c.simplices.items() if c.poset.leq(cf, f)}
    used = sorted({v for sx in keep for v in sx})
    renum = {v: i for i, v in enumerate(used)}
    simplices = {tuple(renum[v] for v in sx): cf for sx, cf in keep.items()}
    return CarrierComplex(c.poset, len(used), simplices)


def rebuilt_acyclicity(c):
    """Oracle for `is_face_acyclic`: one chain complex rebuilt per face."""
    per_face, empty = {}, []
    for f in c.poset.faces():
        sub = face_subcomplex(c, f)
        if sub.simplices:
            per_face[f] = reduced(betti_mod2(rows(base_chain(sub))))
        else:
            empty.append(f)
    return per_face, empty


def assert_ranks_match_the_oracle(levels):
    """chain_ranks against the lowest-bit basis rank, degree by degree."""
    ranks = chain_ranks([list(enumerate(rows)) for rows in levels])
    assert ranks == [len(lowest_bit_basis(rows)) for rows in levels]


def bases(p, triangulation=None):
    """The complexes over p that models are built on: the order complex,
    the triangulation if there is one, and p itself, its face complex,
    when its CW gate passes."""
    out = [order_complex(p)]
    if triangulation is not None:
        out.append(triangulation)
    try:
        face_acyclicity(p)
    except PreconditionError:
        return out
    return out + [p]


def models(inst):
    """The instance's models, one per base."""
    return [QuotientComplex(base, inst.lam) for base in bases(inst.poset, inst.triangulation)]


def walked_quotient(base, lam):
    """Oracle for the lifted QuotientComplex: the model built by walking
    base's boundaries itself, with a carrier dict and a check that every
    boundary stays inside its cell's carrier.  Returns the cells and the
    boundary rows of each degree."""
    p = base.poset
    levels = base.by_dim()
    carriers = {cell: base.carrier(cell) for level in levels for cell in level}
    quotients, by_labels, group = [], {}, {}
    for f in dict.fromkeys(carriers.values()):
        labels = frozenset(lam.vec(F).bits for F in p.facets_containing(f))
        if labels not in by_labels:
            by_labels[labels] = len(quotients)
            quotients.append(isotropy(p, lam, f).quotient())
        group[f] = by_labels[labels]
    below = below_oracle(p)
    cells, offsets = [], []
    for level in levels:
        out, offset = [], {}
        for cell in level:
            offset[cell] = len(out)
            out += [(cell, r) for r in quotients[group[carriers[cell]]][0]]
        cells.append(out)
        offsets.append(offset)
    rows = [[0] * len(cells[0])] if cells else []
    for d in range(1, len(cells)):
        out = []
        for cell in levels[d]:
            carrier = carriers[cell]
            reps = quotients[group[carrier]][0]
            targets = []
            for face in base.boundary(cell):
                assert carriers[face] in below[carrier]
                drop = _drop_positions(reps, quotients[group[carriers[face]]][1])
                targets.append((offsets[d - 1][face], drop))
            for k in range(len(reps)):
                bits = 0
                for first, drop in targets:
                    bits ^= 1 << (first + drop[k])
                out.append(bits)
        rows.append(out)
    return cells, rows


def padded(b, length):
    return b + (0,) * (length - len(b))


def squared(chain):
    """chain, once its boundary is checked to square to zero, which the
    program trusts of a closed triangulation and a sound face complex."""
    _check_squares(rows(chain))
    return chain


def assert_lift_matches_the_walk(base, lam):
    """The lift of base's whole chain equals the walked model row for row,
    and its boundary and base's square to zero, which the program does not
    check.  The facet indices the lift reads are those of each cell's
    boundary, in boundary order.  The model, lifted from the reduced
    chain, has its Betti numbers."""
    chain = squared(base_chain(base))
    got_cells, got_rows = simplicial_model(base, lam)
    cells, want_rows = walked_quotient(base, lam)
    assert got_cells == cells
    assert [list(level) for level in got_rows] == want_rows
    for d in range(1, len(chain.cells)):
        index = {cell: j for j, cell in enumerate(chain.cells[d - 1])}
        assert [list(js) for js in chain.facets[d]] == [
            [index[face] for face in base.boundary(cell)] for cell in chain.cells[d]
        ]
    q = QuotientComplex(base, lam)
    _check_squares(q.rows)
    assert q.betti() == padded(betti_mod2(got_rows), lam.n + 1)


def random_labels(data, p):
    """Any nonzero label on each facet: the model is defined for every one."""
    top = (1 << p.n) - 1
    return CharFunction(
        p.n, {F: Vec(data.draw(st.integers(1, top)), p.n) for F in p.facets()}
    )


def cut_chain(data):
    inst = corpus.BUILDERS[data.draw(st.sampled_from(["triangle", "cube", "square_torus"]))]()
    p, lam = inst.poset, inst.lam
    for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
        cut = cut_face(p, lam, data.draw(st.sampled_from([f for f in p.faces() if p.codim(f) >= 2])))
        p, lam = cut.poset, cut.lam
    return p, lam


def carriers_oracle(c):
    """validate_carriers with each face's subcomplex found by scanning every
    simplex, and each simplex's facets listed again in every face that
    holds it.  The closure lines, then the carrier lines, then the face
    strata lines."""
    closure, carriers, strata = [], [], []
    p = c.poset
    for sx, cf in sorted(c.simplices.items()):
        if cf not in p.codims:
            carriers.append(f"simplex {sx} carried by unknown face {cf!r}")
            continue
        for tau in facets_of(sx) if len(sx) >= 2 else ():
            if tau not in c.simplices:
                closure.append(f"simplex {sx} misses facet {tau}")
            elif c.simplices[tau] in p.codims and not p.leq(c.simplices[tau], cf):
                carriers.append(
                    f"carrier of {tau} ({c.simplices[tau]}) not inside carrier of {sx} ({cf})"
                )
    used = {v for sx in c.simplices for v in sx}
    carriers += [f"point {v} appears in no simplex" for v in range(c.n_points) if v not in used]
    if closure or carriers:
        return closure + carriers
    for f in p.faces():
        sub = sorted(sx for sx, cf in c.simplices.items() if p.leq(cf, f))
        if not sub:
            strata.append(f"face {f} carries no simplex")
            continue
        d = max(len(sx) - 1 for sx in sub)
        if d != p.dim_face(f):
            strata.append(
                f"subcomplex of face {f} has dimension {d}, face has dimension {p.dim_face(f)}"
            )
        cofaces = {sx: 0 for sx in sub}
        for sx in sub:
            for tau in facets_of(sx) if len(sx) >= 2 else ():
                cofaces[tau] += 1
        strata += [
            f"face {f}: simplex {sx} is maximal below dimension {d}"
            for sx in sub
            if len(sx) - 1 < d and cofaces[sx] == 0
        ]
        for sx in sub:
            if len(sx) - 1 == d - 1:
                want = 2 if c.simplices[sx] == f else 1
                if cofaces[sx] != want:
                    strata.append(
                        f"face {f}: wall {sx} lies in {cofaces[sx]} top simplices, wanted {want}"
                    )
    return strata


def carrier_edits(c):
    """Every deletion of one simplex, and every change of one simplex's
    carrier to another face or to an unknown one."""
    faces = c.poset.faces() + ["X"]
    for sx, cf in sorted(c.simplices.items()):
        yield {k: v for k, v in c.simplices.items() if k != sx}
        for f in faces:
            if f != cf:
                yield {**c.simplices, sx: f}


@functools.cache
def carrier_complexes(name):
    """A corpus triangulation, or the barycentric n-cube for "ncube(n)"."""
    if name.startswith("ncube("):
        return order_complex(corpus.ncube(int(name[6:-1])).poset)
    return corpus.BUILDERS[name]().triangulation


def plain(simplices, n_points):
    """Complex with every simplex carried by a single top face."""
    return CarrierComplex(POINT_POSET, n_points, {sx: "Q" for sx in simplices})


def close_down(tops):
    """All faces of the given simplices."""
    out = set()
    for sx in tops:
        m = len(sx)
        for mask in range(1, 1 << m):
            out.add(tuple(v for i, v in enumerate(sx) if (mask >> i) & 1))
    return out


def carried_oracle(chain, p):
    """`_carried` as it read the down-sets, here those of the recursive
    closure: each face with, per degree up to its subcomplex's dimension,
    the set of indices of the cells whose carrier is below f."""
    by_carrier = {}
    for d, carriers in enumerate(chain.carriers):
        for i, carrier in enumerate(carriers):
            by_carrier.setdefault(carrier, []).append((d, i))
    below = below_oracle(p)
    out = []
    for f in p.faces():
        sub = [set() for _ in chain.carriers]
        for g in below[f]:
            for d, i in by_carrier.get(g, ()):
                sub[d].add(i)
        while sub and not sub[-1]:
            sub.pop()
        out.append((f, sub))
    return out


def assert_carried_matches_oracle(chain, p):
    """The faces in order, and each degree's cells as a set, each once:
    `_carried` handing out each cell's index."""
    got = list(_carried(chain, p, [range(len(level)) for level in chain.carriers]))
    assert [(f, [set(level) for level in sub]) for f, sub in got] == carried_oracle(chain, p)
    assert all(len(set(level)) == len(level) for _, sub in got for level in sub)


def gathered_chains(p):
    """The chains `_carried` reads on p: its face complex's, when the walk
    has findings or its boundary squares to zero, and its order complex's,
    when p has one top face."""
    chain = _walk(p)
    try:
        if not chain.findings:
            _check_squares(rows(chain))
    except ValueError:
        pass
    else:
        yield chain
    if len(p.faces_of_codim(0)) == 1:
        yield _walk(order_complex(p))


class TestHomology:
    def test_circle(self):
        c = plain(close_down([(0, 1), (1, 2), (0, 2)]), 3)
        b = betti_mod2(rows(base_chain(c)))
        assert b == (1, 1)
        assert reduced(b) == (0, 1)

    def test_two_points(self):
        c = plain([(0,), (1,)], 2)
        assert betti_mod2(rows(base_chain(c))) == (2,)

    def test_filled_triangle(self):
        c = plain(close_down([(0, 1, 2)]), 3)
        assert betti_mod2(rows(base_chain(c))) == (1, 0, 0)

    def test_octahedron_boundary_is_a_sphere(self):
        # vertices 0/1 = poles, 2,3,4,5 = equator square
        tops = []
        for a, b in ((2, 3), (3, 4), (4, 5), (2, 5)):
            tops.append(tuple(sorted((0, a, b))))
            tops.append(tuple(sorted((1, a, b))))
        c = plain(close_down(tops), 6)
        assert betti_mod2(rows(base_chain(c))) == (1, 0, 1)

    def test_projective_plane(self):
        # 6-vertex triangulation (antipodal icosahedron quotient);
        # every edge lies in exactly two of the ten triangles
        tops = [
            (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
            (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5),
        ]
        c = plain(close_down(tops), 6)
        edges = [sx for sx in c.simplices if len(sx) == 2]
        assert len(edges) == 15
        for e in edges:
            cofaces = [t for t in tops if set(e) <= set(t)]
            assert len(cofaces) == 2, e
        assert betti_mod2(rows(base_chain(c))) == (1, 1, 1)

    def test_empty_complex(self):
        empty = rows(base_chain(CarrierComplex(POINT_POSET, 0, {})))
        assert empty == ()
        assert betti_mod2(empty) == ()

    def test_closure_failure(self):
        c = CarrierComplex(POINT_POSET, 2, {(0, 1): "Q", (0,): "Q"})
        with pytest.raises(ValueError, match="misses facet"):
            base_chain(c)

    def test_non_monotone_carriers_are_refused(self):
        # the edge is carried by a vertex, its endpoint (0,) by Q
        inst = corpus.triangle()
        c = CarrierComplex(inst.poset, 2, {(0,): "Q", (1,): "p12", (0, 1): "p12"})
        with pytest.raises(InputError, match=r"carrier of \(0,\) \(Q\) not inside carrier"):
            base_chain(c)
        with pytest.raises(InputError, match=r"carrier of \(0,\) \(Q\) not inside carrier"):
            QuotientComplex(c, inst.lam)

    def test_boundary_squared_guard(self):
        with pytest.raises(ValueError, match="composite"):
            betti_mod2(((0,), (1,), (1,)))


class TestChainRanks:
    @pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
    def test_corpus_models(self, name):
        for q in models(corpus.BUILDERS[name]()):
            assert_ranks_match_the_oracle(q.rows)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_cut_chains(self, data):
        p, lam = cut_chain(data)
        assert_ranks_match_the_oracle(QuotientComplex(p, lam).rows)
        assert_ranks_match_the_oracle(rows(base_chain(p)))

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_face_acyclicity_of_random_cut_chains(self, data):
        p, _ = cut_chain(data)
        c = order_complex(p)
        rep = is_face_acyclic(c)
        assert (rep.per_face, rep.empty_faces) == rebuilt_acyclicity(c)


class TestLift:
    """QuotientComplex lifts base's chain through the coset drop tables."""

    @pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
    def test_corpus(self, name):
        inst = corpus.BUILDERS[name]()
        for base in bases(inst.poset, inst.triangulation):
            assert_lift_matches_the_walk(base, inst.lam)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ncubes(self, n):
        inst = corpus.ncube(n)
        assert_lift_matches_the_walk(inst.poset, inst.lam)
        if n <= 4:  # the barycentric 5-cube model has about 1.1M cells
            assert_lift_matches_the_walk(order_complex(inst.poset), inst.lam)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_random_cut_chains(self, data):
        p, lam = cut_chain(data)
        for base in bases(p):
            assert_lift_matches_the_walk(base, lam)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_labels(self, data):
        if data.draw(st.booleans()):
            inst = corpus.BUILDERS[data.draw(st.sampled_from(sorted(corpus.BUILDERS)))]()
            p, tri = inst.poset, inst.triangulation
        else:
            p, tri = cut_chain(data)[0], None
        lam = random_labels(data, p)
        for base in bases(p, tri):
            assert_lift_matches_the_walk(base, lam)

    def test_the_chain_is_kept_and_shared(self):
        inst = corpus.square_klein()
        chain = base_chain(inst.triangulation)
        assert base_chain(inst.triangulation) is chain
        assert validate_carriers(inst.triangulation) == [] and base_chain(inst.triangulation) is chain
        assert base_chain(inst.poset) is base_chain(inst.poset)
        assert base_chain(inst.poset) is not chain

    def test_a_face_complex_that_is_not_closed_is_refused(self):
        # Q covers the vertex v across a codim jump: the face complex has no 1-cell
        p = FacePoset(2, {"Q": 0, "v": 2}, {("v", "Q")})
        with pytest.raises(InputError, match="face Q misses facet v"):
            QuotientComplex(p, CharFunction(2, {}))


def assert_reduction_keeps_every_answer(base, lam=None):
    """The gate and the model on base's reduced chain against the same
    gate and lift on its whole chain: each face's reduced Betti numbers,
    the tuple's length included, the empty faces, the witnesses and the
    model's Betti numbers."""
    p = base.poset
    chain = base_chain(base)
    _check_squares(rows(reduced_chain(base)))
    want, got = _acyclicity(chain, p), is_face_acyclic(base)
    assert list(got.per_face.items()) == list(want.per_face.items())
    assert got.empty_faces == want.empty_faces and got.witnesses() == want.witnesses()
    if lam is not None:
        _, model_rows = simplicial_model(base, lam)
        assert QuotientComplex(base, lam).betti() == padded(betti_mod2(model_rows), lam.n + 1)


def assert_quotient_matches_the_oracle(labels, n):
    """`_quotient` on the label ints gives the `Subgroup` oracle's reps and
    positions."""
    assert _quotient(labels, n) == Subgroup(n, [Vec(a, n) for a in labels]).quotient(), labels


class TestQuotient:
    """GF(2)^n / G read off label ints, against the `Subgroup` oracle."""

    def test_empty_repeated_and_dependent_generators(self):
        for n in range(10):
            top = (1 << n) - 1
            assert_quotient_matches_the_oracle([], n)
            assert_quotient_matches_the_oracle([top, top], n)
            assert_quotient_matches_the_oracle([1 << i for i in range(n)], n)
            if n >= 2:
                assert_quotient_matches_the_oracle([1, top, top ^ 1, 0], n)

    def test_seeded_generator_lists(self):
        rng = random.Random(3035)
        for n in range(10):
            for _ in range(300):
                labels = [rng.randrange(1 << n) for _ in range(rng.randrange(n + 3))]
                if len(labels) >= 2 and rng.random() < 0.5:
                    labels += [rng.choice(labels), labels[0] ^ labels[1]]
                assert_quotient_matches_the_oracle(labels, n)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_generator_lists(self, data):
        n = data.draw(st.integers(0, 9))
        labels = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
        if labels:
            pairs = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
            labels += [a ^ b for a, b in data.draw(st.lists(pairs, max_size=4))]
        assert_quotient_matches_the_oracle(labels, n)


class TestReduction:
    """The chain reduced within carriers, which the gate and the model
    read, keeps each face's Betti numbers and the model's."""

    @pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
    def test_corpus_bases(self, name):
        inst = corpus.BUILDERS[name]()
        for base in bases(inst.poset, inst.triangulation):
            assert_reduction_keeps_every_answer(base, inst.lam)
        assert reduced_chain(inst.poset) is base_chain(inst.poset)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ncube_bases(self, n):
        inst = corpus.ncube(n)
        for base in bases(inst.poset):
            assert_reduction_keeps_every_answer(base, inst.lam)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_barycentric_cubes_keep_one_cell_per_face(self, n):
        # each face's interior is an open ball: one cell of its dimension
        c = carrier_complexes(f"ncube({n})")
        assert_reduction_keeps_every_answer(c, corpus.ncube(n).lam)
        p = c.poset
        assert [len(level) for level in reduced_chain(c).cells] == [
            len(level) for level in p.by_dim()
        ]
        assert [set(level) for level in reduced_chain(c).carriers] == [
            set(level) for level in p.by_dim()
        ]

    @pytest.mark.parametrize("name", ["square_torus", "square_klein", "annulus", "cut_triangle"])
    def test_every_one_simplex_edit(self, name):
        # the walk refuses some edits; the gate still reads the others,
        # whose carriers need not hold a relative cycle in their top degree
        inst = corpus.BUILDERS[name]()
        c = inst.triangulation
        read = 0
        for simplices in carrier_edits(c):
            edited = CarrierComplex(c.poset, c.n_points, simplices)
            try:
                base_chain(edited)
            except InputError:
                continue
            assert_reduction_keeps_every_answer(edited, inst.lam)
            read += 1
        assert read

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_random_cut_chains_with_random_labels(self, data):
        p, _ = cut_chain(data)
        lam = random_labels(data, p)
        for base in bases(p):
            assert_reduction_keeps_every_answer(base, lam)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=4), min_size=1, max_size=8))
    def test_random_complexes_in_one_carrier(self, tops):
        # one carrier: the reduction is coreduction of the whole complex
        simplices = close_down([tuple(sorted(t)) for t in tops])
        used = sorted({v for sx in simplices for v in sx})
        number = {v: i for i, v in enumerate(used)}
        c = plain([tuple(number[v] for v in sx) for sx in simplices], len(used))
        assert_reduction_keeps_every_answer(c)

    def test_a_moebius_band_over_the_square(self, mobius_square_data):
        inst = parse_instance(mobius_square_data)
        assert_reduction_keeps_every_answer(inst.triangulation, inst.lam)
        assert is_face_acyclic(inst.triangulation).witnesses() == [
            "face Q has reduced mod-2 Betti (0, 1, 0)"
        ]

    def test_a_carrier_keeps_a_cell_of_its_top_degree(self):
        # Q's edge would pair with Q's point, leaving Q's subcomplex a point
        p = FacePoset(1, {"Q": 0, "v0": 1, "v1": 1}, {("v0", "Q"), ("v1", "Q")})
        c = CarrierComplex(p, 2, {(0,): "v0", (1,): "Q", (0, 1): "Q"})
        assert_reduction_keeps_every_answer(c)
        assert is_face_acyclic(c).per_face["Q"] == (0, 0)
        assert reduced_chain(c).cells == (((0,), (1,)), ((0, 1),))

    def test_the_annulus_stays_non_formal_with_the_same_witnesses(self):
        inst = corpus.annulus()
        tri = inst.triangulation
        v = formality_verdict(tri, inst.lam)
        assert not v.hsiang and not v.criterion and v.agree
        assert v.acyclicity_witnesses == tuple(_acyclicity(base_chain(tri), tri.poset).witnesses())
        assert v.acyclicity_witnesses == (
            "face F1 has reduced mod-2 Betti (0, 1)",
            "face F2 has reduced mod-2 Betti (0, 1)",
            "face Q has reduced mod-2 Betti (0, 1, 0)",
        )

    def test_the_gate_and_the_model_share_one_kept_reduction(self, monkeypatch):
        inst = corpus.square_klein()
        tri = inst.triangulation
        reductions = []

        def counted(chain, p):
            reductions.append(chain)
            return _reduce(chain, p)

        monkeypatch.setattr(complexes, "_reduce", counted)
        v = formality_verdict(tri, inst.lam)
        assert len(reductions) == 1 and reduced_chain(tri) is reduced_chain(tri)
        assert v.betti == (1, 2, 1)


class TestCarried:
    """`_carried` puts each carrier's cells into the faces above it, read
    off the up-set masks; the down-set gather it replaced must give every
    face the same cells in each degree."""

    @pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
    def test_corpus(self, name):
        inst = corpus.BUILDERS[name]()
        p = inst.poset
        for chain in gathered_chains(p):
            assert_carried_matches_oracle(squared(chain), p)
        if inst.triangulation is not None:
            assert_carried_matches_oracle(squared(base_chain(inst.triangulation)), p)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_ncubes(self, n):
        p = corpus.ncube(n).poset
        assert_carried_matches_oracle(squared(base_chain(p)), p)

    @pytest.mark.parametrize("name", ["ncube(2)", "ncube(3)"])
    def test_barycentric_cubes(self, name):
        c = carrier_complexes(name)
        assert_carried_matches_oracle(squared(base_chain(c)), c.poset)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_cut_chains(self, data):
        p, _ = cut_chain(data)
        for chain in gathered_chains(p):
            assert_carried_matches_oracle(squared(chain), p)

    @pytest.mark.parametrize("name", ["triangle", "square_torus", "cube", "annulus"])
    def test_every_single_edit(self, name):
        p = corpus.BUILDERS[name]().poset
        for e in edits(p):
            q = apply_edit(p, e)
            for chain in gathered_chains(q):
                assert_carried_matches_oracle(chain, q)

    def test_seeded_edits_of_a_cut_cube(self):
        inst = corpus.cube()
        p = cut_face(inst.poset, inst.lam, inst.poset.vertices()[0]).poset
        for e in random.Random(18).sample(edits(p), 40):
            q = apply_edit(p, e)
            for chain in gathered_chains(q):
                assert_carried_matches_oracle(chain, q)


class TestCarrierComplex:
    def test_dim_and_levels(self):
        tri = corpus.square_torus().triangulation
        assert [len(level) for level in tri.by_dim()] == [4, 5, 2]
        assert all(level == sorted(level) for level in tri.by_dim())

    def test_boundary_lists_facets_in_vertex_order(self):
        tri = corpus.square_torus().triangulation
        for sx in [(0,), (0, 1), (0, 1, 3), (2, 5, 7, 9)]:
            assert tri.boundary(sx) == facets_of(sx)


class TestFaceSubcomplex:
    def test_square_facet(self):
        tri = corpus.square_torus().triangulation
        sub = face_subcomplex(tri, "B")
        assert sub.n_points == 2
        assert set(sub.simplices) == {(0,), (1,), (0, 1)}
        assert betti_mod2(rows(base_chain(sub))) == (1, 0)

    def test_annulus_facet_is_a_circle(self):
        tri = corpus.annulus().triangulation
        sub = face_subcomplex(tri, "F1")
        assert betti_mod2(rows(base_chain(sub))) == (1, 1)


class TestFaceAcyclicity:
    def test_square_is_acyclic(self):
        rep = is_face_acyclic(corpus.square_torus().triangulation)
        assert rep.verdict and not rep.witnesses()

    def test_annulus_fails_with_witnesses(self):
        rep = is_face_acyclic(corpus.annulus().triangulation)
        assert not rep.verdict
        assert rep.per_face["F1"] == (0, 1)
        assert rep.per_face["F2"] == (0, 1)
        assert rep.per_face["Q"] == (0, 1, 0)
        assert len(rep.witnesses()) == 3

    def test_empty_face_is_a_failure(self):
        p = FacePoset(1, {"Q": 0, "v0": 1, "v1": 1}, {("v0", "Q"), ("v1", "Q")})
        c = CarrierComplex(p, 2, {(0,): "v0", (1,): "Q", (0, 1): "Q"})
        rep = is_face_acyclic(c)
        assert not rep.verdict and "v1" in rep.empty_faces

    def test_surrogate_models_are_always_acyclic(self):
        for name in ("triangle", "cube", "annulus", "bigon"):
            p = corpus.BUILDERS[name]().poset
            assert is_face_acyclic(order_complex(p)).verdict, name


    @pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
    def test_matches_per_face_rebuilds(self, name):
        inst = corpus.BUILDERS[name]()
        complexes = [order_complex(inst.poset)]
        if inst.triangulation is not None:
            complexes.append(inst.triangulation)
        for c in complexes:
            rep = is_face_acyclic(c)
            assert (rep.per_face, rep.empty_faces) == rebuilt_acyclicity(c)


class TestValidateCarriers:
    def test_mode_b_corpus_passes_strict(self):
        for name in ("square_torus", "square_klein", "annulus", "cut_triangle"):
            inst = corpus.BUILDERS[name]()
            found = validate_carriers(inst.triangulation)
            assert found == [], (name, found)

    def test_surrogate_passes_weak_fails_strict(self):
        # the surrogate fails only the check that each face's subcomplex
        # has the face's dimension
        assert validate_carriers(order_complex(corpus.annulus().poset)) == [
            "subcomplex of face Q has dimension 1, face has dimension 2",
            "subcomplex of face F1 has dimension 0, face has dimension 1",
            "subcomplex of face F2 has dimension 0, face has dimension 1",
        ]

    def test_unknown_carrier(self):
        assert validate_carriers(CarrierComplex(POINT_POSET, 1, {(0,): "X"})) == [
            "simplex (0,) carried by unknown face 'X'"
        ]

    def test_unknown_carrier_of_a_later_facet(self):
        # (1, 2) sorts after (0, 1, 2), whose carrier is checked against it
        simplices = {sx: "Q" for sx in close_down([(0, 1, 2)])}
        simplices[(1, 2)] = "X"
        found = validate_carriers(CarrierComplex(POINT_POSET, 3, simplices))
        assert found == ["simplex (1, 2) carried by unknown face 'X'"]

    def test_unused_point(self):
        found = validate_carriers(CarrierComplex(POINT_POSET, 2, {(0,): "Q"}))
        assert found == ["point 1 appears in no simplex"]

    def test_carrier_monotonicity(self):
        p = corpus.triangle().poset
        c = CarrierComplex(p, 2, {(0,): "Q", (1,): "p12", (0, 1): "p12"})
        assert validate_carriers(c) == ["carrier of (0,) (Q) not inside carrier of (0, 1) (p12)"]

    def test_missing_facet_simplex(self):
        c = CarrierComplex(POINT_POSET, 2, {(0, 1): "Q", (0,): "Q"})
        assert validate_carriers(c) == ["simplex (0, 1) misses facet (1,)"]

    @pytest.mark.parametrize("name", ["square_torus", "square_klein", "annulus", "cut_triangle",
                                      "ncube(2)", "ncube(3)", "ncube(4)"])
    def test_matches_the_per_face_oracle(self, name):
        c = carrier_complexes(name)
        assert validate_carriers(c) == carriers_oracle(c)

    @pytest.mark.parametrize("name", ["square_torus", "square_klein", "annulus", "cut_triangle",
                                      "ncube(2)"])
    def test_every_one_simplex_edit_matches_the_oracle(self, name):
        c = carrier_complexes(name)
        failed = 0
        for simplices in carrier_edits(c):
            edited = CarrierComplex(c.poset, c.n_points, simplices)
            found = validate_carriers(edited)
            assert found == carriers_oracle(edited), simplices
            failed += found != []
        assert failed

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_edits_of_barycentric_cubes(self, data):
        c = carrier_complexes(data.draw(st.sampled_from(["ncube(3)", "ncube(4)"])))
        simplices = dict(c.simplices)
        sx = data.draw(st.sampled_from(sorted(simplices)))
        if data.draw(st.booleans()):
            del simplices[sx]
        else:
            simplices[sx] = data.draw(st.sampled_from(c.poset.faces() + ["X"]))
        edited = CarrierComplex(c.poset, c.n_points, simplices)
        assert validate_carriers(edited) == carriers_oracle(edited)

    def test_wall_count_failure(self):
        # a square's facet triangulated with a dangling extra edge
        tri = dict(corpus.square_torus().triangulation.simplices)
        tri[(1, 3)] = "B"
        found = validate_carriers(CarrierComplex(corpus.square_torus().poset, 4, tri))
        assert found == ["carrier of (3,) (TL) not inside carrier of (1, 3) (B)"]
