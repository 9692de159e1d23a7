"""The instance writer against json.dumps(indent=1), byte for byte, and
the parser's entry checks against the per-entry oracle."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from parse_oracle import parse_instance_oracle

from z2torus import corpus
from z2torus.blowup import cut_face
from z2torus.charfunc import CharFunction
from z2torus.errors import InputError
from z2torus.instance import (
    Instance,
    instance_text,
    load_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)
from z2torus.poset import FacePoset, order_complex

DATA = corpus.bundled_path("triangle").parent


def oracle_dict(inst):
    """The instance as a dict, built field by field as save_instance built
    it before it wrote the layout itself."""
    p = inst.poset
    out = {
        "name": inst.name,
        "dim": p.n,
        "faces": [
            {"id": f, "codim": p.codim(f)} for f in sorted(p.codims, key=lambda f: (p.codims[f], f))
        ],
        "inclusions": sorted([c, q] for c, q in p.covers),
    }
    if inst.lam is not None:
        out["lambda"] = {F: inst.lam.vec(F).to_bits() for F in sorted(inst.lam.values)}
    if inst.triangulation is not None:
        tri = inst.triangulation
        out["triangulation"] = {
            "points": tri.n_points,
            "simplices": [
                {"verts": list(sx), "carrier": tri.simplices[sx]}
                for sx in sorted(tri.simplices, key=lambda s: (len(s), s))
            ],
        }
    return out


def assert_writes_oracle(inst):
    want = json.dumps(oracle_dict(inst), indent=1) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        save_instance(inst, path)
        assert path.read_bytes() == want.encode("ascii")
    assert instance_text(inst) == want
    assert serialize_instance(inst) == oracle_dict(inst)


def barycentric_cube():
    """The 3-cube in mode B, on the cone over its order complex."""
    inst = corpus.cube()
    return Instance("cube_barycentric", inst.poset, inst.lam, order_complex(inst.poset))


INSTANCES = {name: build for name, build in corpus.BUILDERS.items()}
INSTANCES.update({f"ncube({n})": (lambda n=n: corpus.ncube(n)) for n in range(5)})
INSTANCES["cube_barycentric"] = barycentric_cube


def renamed(inst, rename):
    """inst with every face id and its name passed through rename."""
    p = inst.poset
    poset = FacePoset(
        p.n,
        {rename(f): k for f, k in p.codims.items()},
        {(rename(c), rename(q)) for c, q in p.covers},
    )
    lam = CharFunction(inst.lam.n, {rename(F): v for F, v in inst.lam.values.items()})
    return Instance(rename(inst.name), poset, lam, None)


# strings json.dumps escapes: quote, backslash, newline, other control
# characters, non-ASCII, non-BMP, and a lone surrogate
AWKWARD = ['"', "\\", "\n", "\x00\x1f\x7f", "é", "\U0001d53d", "\ud800"]


class TestWriterAgainstJsonDumps:
    @pytest.mark.parametrize("name", list(INSTANCES))
    def test_builders(self, name):
        assert_writes_oracle(INSTANCES[name]())

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_cut_chains(self, data):
        inst = data.draw(st.sampled_from([corpus.triangle, corpus.square_torus, corpus.cube]))()
        p, lam = inst.poset, inst.lam
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            cuttable = [f for f in p.faces() if p.codim(f) >= 2]
            cut = cut_face(p, lam, data.draw(st.sampled_from(cuttable)))
            p, lam = cut.poset, cut.lam
            assert_writes_oracle(Instance("chain", p, lam, None))

    @pytest.mark.parametrize("s", AWKWARD)
    def test_names_and_ids_that_need_escaping(self, s):
        assert_writes_oracle(renamed(corpus.triangle(), lambda x: x + s))
        assert_writes_oracle(renamed(corpus.triangle(), lambda x: s + x))

    @settings(max_examples=50, deadline=None)
    @given(st.text(
        alphabet=st.one_of(
            st.characters(codec=None, exclude_categories=()), st.sampled_from("".join(AWKWARD))
        ),
        max_size=6,
    ))
    def test_drawn_names(self, s):
        inst = corpus.triangle()
        assert_writes_oracle(Instance(s, inst.poset, inst.lam, inst.triangulation))

    def test_empty_lists_and_absent_lambda(self):
        point = FacePoset(0, {"Q": 0}, set())
        assert_writes_oracle(Instance("point", point, CharFunction(0, {}), None))
        assert '"lambda": {}' in instance_text(Instance("point", point, CharFunction(0, {}), None))
        assert_writes_oracle(Instance("point", point, None, None))
        assert_writes_oracle(Instance("nothing", FacePoset(0, {}, set()), None, None))
        inst = corpus.triangle()
        assert_writes_oracle(Instance("triangle", inst.poset, None, None))


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.name)
def test_bundled_files_round_trip_byte_for_byte(path, tmp_path):
    out = tmp_path / path.name
    save_instance(load_instance(path), out)
    assert out.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("name", corpus.BUNDLED)
def test_builders_write_the_bundled_files(name):
    # the builders are the source of truth for the files under data/
    text = instance_text(corpus.BUILDERS[name]())
    assert text.encode() == corpus.bundled_path(name).read_bytes()


# JSON values that are no id, codim, vertex or list of them
SCALARS = [True, False, 1.0, -0.5, 1e300, None, "0", ""]
JUNK = [*SCALARS, [], [0], [[0]], [True], {}, {"id": "Q"}]


def malformed(data, draw):
    """One edit of a serialised instance's faces, inclusions, simplices or
    lambda: an entry replaced by junk, a key dropped or added, a field
    given junk, a key renamed, an id or carrier made unknown or repeated,
    or a simplex's verts given junk, a bool or a float, a wrong order, a
    repeated, negative or too large point, or too many points.  It edits
    only entries that no earlier edit made malformed."""
    kinds = ["face", "inclusion"]
    if "triangulation" in data:
        kinds += ["simplex", "verts"]
    if "lambda" in data:
        kinds.append("lambda")
    kind = draw(st.sampled_from(kinds))
    junk = draw(st.sampled_from(SCALARS) | st.sampled_from(JUNK))  # a bool one time in five
    if kind == "lambda":
        whole = [F for F, bits in data["lambda"].items() if type(bits) is list and len(bits) > 1]
        if not whole:
            return
        facet = draw(st.sampled_from(sorted(whole)))
        bits = list(data["lambda"][facet])
        edit = draw(st.sampled_from(["junk", "bit", "length"]))
        if edit == "junk":
            bits = junk
        elif edit == "bit":
            j = draw(st.integers(0, len(bits) - 1))
            bits[j] = draw(st.sampled_from([2, -1, True, False, 1.0]))
        else:
            bits.append(0)
        data["lambda"][facet] = bits
        return
    if kind == "inclusion":
        pairs = data["inclusions"]
        whole = [i for i, pair in enumerate(pairs) if type(pair) is list and len(pair) == 2]
        if not whole:
            return
        i = draw(st.sampled_from(whole))
        pair = list(pairs[i])
        edit = draw(st.sampled_from(["junk", "short", "long", "end", "unknown"]))
        if edit == "junk":
            pair = junk
        elif edit == "short":
            pair = pair[:1]
        elif edit == "long":
            pair.append(pair[0])
        else:
            pair[draw(st.integers(0, 1))] = junk if edit == "end" else "nowhere"
        pairs[i] = pair
        return
    entries = data["faces"] if kind == "face" else data["triangulation"]["simplices"]
    keys = ["id", "codim"] if kind == "face" else ["verts", "carrier"]
    whole = [
        i for i, entry in enumerate(entries)
        if type(entry) is dict and list(entry) == keys
        and (kind == "face" or type(entry["verts"]) is list and entry["verts"])
        and (kind != "verts" or all(type(v) is int for v in entry["verts"]))
    ]
    if not whole:
        return
    i = draw(st.sampled_from(whole))
    entry = dict(entries[i])
    if kind == "verts":
        verts = list(entry["verts"])
        points = data["triangulation"]["points"]
        edit = draw(st.sampled_from(
            ["junk", "empty", "insert", "bool", "float", "swap", "repeat", "negative", "past",
             "long"]
        ))
        if edit == "junk":
            verts = junk
        elif edit == "bool":  # in order, and equal to a point as a Python int
            if verts[0] > 1:
                verts.insert(0, True)
            else:
                verts[0] = bool(verts[0])
        elif edit == "float":
            j = draw(st.integers(0, len(verts) - 1))
            verts[j] = float(verts[j])
        elif edit == "empty":
            verts = []
        elif edit == "insert":
            verts.insert(draw(st.integers(0, len(verts))), draw(st.sampled_from(SCALARS)))
        elif edit == "swap" and len(verts) > 1:
            j = draw(st.integers(0, len(verts) - 2))
            verts[j], verts[j + 1] = verts[j + 1], verts[j]
        elif edit == "repeat":
            j = draw(st.integers(0, len(verts) - 1))
            verts.insert(j, verts[j])
        elif edit == "negative":
            verts[0] = -1 - verts[0]
        elif edit == "past":
            verts[-1] = points + draw(st.integers(0, 2))
        elif edit == "long":
            verts += range(verts[-1] + 1, verts[-1] + 1 + data["dim"] + 1)
        entry["verts"] = verts
    else:
        edit = draw(st.sampled_from(
            ["junk", "drop", "extra", "rename", "field", "unknown", "repeat"]
        ))
        if edit == "junk":
            entry = junk
        elif edit == "drop":
            del entry[draw(st.sampled_from(keys))]
        elif edit == "rename":  # two keys, one of them wrong
            entry["extra"] = entry.pop(draw(st.sampled_from(keys)))
        elif edit == "extra":
            entry["extra"] = junk
        elif edit == "field":
            entry[draw(st.sampled_from(keys))] = junk
        elif edit == "unknown":
            entry[keys[kind != "face"]] = "nowhere"  # an id, or a carrier
        else:
            other = entries[draw(st.sampled_from(whole))]
            entry[keys[0]] = other[keys[0]]  # an id, or verts, listed twice
    entries[i] = entry


def parsed(parse, data):
    """The instance file parse makes of data, or its InputError's messages."""
    try:
        return instance_text(parse(data))
    except InputError as exc:
        return exc.messages


class TestEntryChecksAgainstTheOracle:
    @settings(max_examples=600, deadline=None)
    @given(st.data())
    def test_malformed_entries_get_the_oracles_witnesses(self, data):
        name = data.draw(st.sampled_from(
            ["square_torus", "annulus", "cut_triangle", "triangle", "cube_barycentric"]
        ))
        text = instance_text(INSTANCES[name]())
        mutated = json.loads(text)
        for _ in range(data.draw(st.integers(1, 4))):
            malformed(mutated, data.draw)
        mutated = json.loads(json.dumps(mutated))  # values json.loads produces
        assert parsed(parse_instance, mutated) == parsed(parse_instance_oracle, mutated)


class TestSimplexEntries:
    """The parser refuses a simplex that is not a nonempty sorted tuple of
    distinct points in range; `CarrierComplex` trusts what it passes."""

    @pytest.mark.parametrize("verts, witness", [
        ([1, 0], "simplex verts [1, 0] must be a sorted list of distinct ints"),
        ([0, 0], "simplex verts [0, 0] must be a sorted list of distinct ints"),
        ([0, 5], "simplex [0, 5] uses points outside 0..3"),
        ([], "simplex verts [] must be a sorted list of distinct ints"),
    ], ids=["unsorted", "repeated", "out_of_range", "empty"])
    def test_refused_with_its_witness(self, verts, witness):
        data = json.loads(instance_text(corpus.square_torus()))
        data["triangulation"]["simplices"].append({"verts": verts, "carrier": "Q"})
        with pytest.raises(InputError) as err:
            parse_instance(data)
        assert err.value.messages == [witness]
