"""The instance writer against json.dumps(indent=1), byte for byte."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2torus import corpus
from z2torus.blowup import cut_face
from z2torus.charfunc import CharFunction
from z2torus.instance import (
    Instance,
    instance_text,
    load_instance,
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
