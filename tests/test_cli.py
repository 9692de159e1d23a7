"""End-to-end command-line behavior: formats, exit codes, round trips."""

import copy
import io
import json
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2torus import corpus
from z2torus.cli import COMMANDS, main
from z2torus.instance import MAX_DIM, load_instance, save_instance, serialize_instance


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def bundled(name):
    return str(corpus.bundled_path(name))


class TestBundledData:
    def test_files_parse_and_match_builders(self):
        for name in corpus.BUNDLED:
            inst = corpus.bundled(name)
            built = corpus.BUILDERS[name]()
            assert inst.poset == built.poset, name
            assert serialize_instance(inst) == serialize_instance(built), name


class TestValidate:
    def test_triangle(self, capsys):
        rc, out, _ = run(capsys, "validate", bundled("triangle"))
        assert rc == 0
        assert "name=triangle dim=2 faces=7 facets=3 vertices=3" in out
        assert "mode: A (face-coset cell model)" in out

    def test_annulus_findings(self, capsys):
        rc, out, _ = run(capsys, "validate", bundled("annulus"))
        assert rc == 1
        assert "has_vertex=fail" in out
        assert "gorenstein_quick: pseudo_manifold=false euler_ok=false" in out
        assert "mode: B points=6 simplices=24 carriers=ok" in out


class TestFormality:
    def test_triangle_line(self, capsys):
        rc, out, _ = run(capsys, "formality", bundled("triangle"))
        assert rc == 0
        assert "hsiang=true criterion=surrogate-true h_identity=true" in out
        assert "agree=true" in out

    def test_square_torus_mode_b(self, capsys):
        rc, out, _ = run(capsys, "formality", bundled("square_torus"))
        assert rc == 0
        assert "hsiang=true criterion=true h_identity=true agree=true" in out

    def test_annulus(self, capsys):
        rc, out, _ = run(capsys, "formality", bundled("annulus"))
        assert rc == 0
        assert "hsiang=false criterion=false h_identity=false agree=true" in out


class TestNumericFragments:
    def test_hvector(self, capsys):
        rc, out, _ = run(capsys, "hvector", bundled("cube"))
        assert rc == 0 and out == "f=(6, 12, 8) h=(1, 3, 3, 1)\n"

    def test_betti(self, capsys):
        rc, out, _ = run(capsys, "betti", bundled("cube"))
        assert rc == 0 and out == "mode=A betti=(1, 3, 3, 1) sum=8\n"

    def test_gkm_default_degree(self, capsys):
        rc, out, _ = run(capsys, "gkm", bundled("triangle"))
        assert rc == 0
        assert "equivariant_dims=(1, 3, 6, 9, 12)" in out
        assert "match=true" in out

    def test_gkm_max_deg(self, capsys):
        rc, out, _ = run(capsys, "gkm", bundled("triangle"), "--max-deg", "3")
        assert rc == 0
        assert "equivariant_dims=(1, 3, 6, 9) face_ring_dims=(1, 3, 6, 9)" in out

    def test_gkm_negative_max_deg(self, capsys):
        rc, out, err = run(capsys, "gkm", bundled("cube"), "--max-deg", "-3")
        assert rc == 1 and out == ""
        assert err == "error: --max-deg must be at least 0, got -3\n"

    def test_gkm_annulus_skipped(self, capsys):
        rc, out, _ = run(capsys, "gkm", bundled("annulus"))
        assert rc == 2 and out.startswith("gkm: skipped")


class TestCode:
    def test_cube_block(self, capsys):
        rc, out, _ = run(capsys, "code", bundled("cube"))
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "m_involution=true g=111"
        assert lines[1:7] == [
            "11110000",
            "00001111",
            "11001100",
            "00110011",
            "10101010",
            "01010101",
        ]
        assert lines[7] == "[8,4,4] self_dual=true"

    def test_triangle(self, capsys):
        rc, out, _ = run(capsys, "code", bundled("triangle"))
        assert rc == 0
        assert out.splitlines()[0].startswith("m_involution=false")
        assert out.splitlines()[-1] == "[3,2,2] self_dual=false"

    def test_annulus_skipped(self, capsys):
        rc, out, _ = run(capsys, "code", bundled("annulus"))
        assert rc == 2
        assert "code: skipped" in out


class TestFixedLocus:
    def test_cube_diagonal(self, capsys):
        rc, out, _ = run(capsys, "fixed-locus", bundled("cube"), "--g", "111")
        assert rc == 0
        assert "discrete=true count=8" in out

    def test_cube_coordinate(self, capsys):
        rc, out, _ = run(capsys, "fixed-locus", bundled("cube"), "--g", "100")
        assert rc == 0
        assert "faces=X0,X1 discrete=false count=none" in out

    def test_zero_rejected(self, capsys):
        rc, _, err = run(capsys, "fixed-locus", bundled("cube"), "--g", "000")
        assert rc == 1 and "error:" in err

    def test_wrong_width(self, capsys):
        rc, _, err = run(capsys, "fixed-locus", bundled("cube"), "--g", "10")
        assert rc == 1 and "3" in err

    @pytest.mark.parametrize("g", ["\u0661\u0660\u0660", "1\u0660\u0661", "\uff11\uff10\uff10"])
    def test_only_ascii_bits(self, capsys, g):
        rc, out, err = run(capsys, "fixed-locus", bundled("cube"), "--g", g)
        assert rc == 1 and out == ""
        assert err.startswith("error: bad --g value")


class TestBlowup:
    def test_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "quad.json"
        rc, out, _ = run(
            capsys, "blowup", bundled("triangle"), "--face", "p12", "--out", str(out_file)
        )
        assert rc == 0
        assert "new_facet=p12|F1,F2 label=11" in out
        assert f"wrote {out_file}" in out

        rc, out, _ = run(capsys, "betti", str(out_file))
        assert rc == 0 and out == "mode=A betti=(1, 2, 1) sum=4\n"

        rc, out, _ = run(capsys, "validate", str(out_file))
        assert rc == 0

    def test_iterated_cut_through_files(self, capsys, tmp_path):
        quad = tmp_path / "quad.json"
        penta = tmp_path / "penta.json"
        run(capsys, "blowup", bundled("triangle"), "--face", "p12", "--out", str(quad))
        rc, out, _ = run(capsys, "blowup", str(quad), "--face", "p13", "--out", str(penta))
        assert rc == 0
        rc, out, _ = run(capsys, "hvector", str(penta))
        assert out == "f=(5, 5) h=(1, 3, 1)\n"

    def test_facet_rejected(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "blowup", bundled("triangle"), "--face", "F1",
            "--out", str(tmp_path / "x.json"),
        )
        assert rc == 2 and "codimension" in err

    def test_unknown_face(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "blowup", bundled("triangle"), "--face", "zz",
            "--out", str(tmp_path / "x.json"),
        )
        assert rc == 1 and "unknown face" in err


class TestReport:
    @pytest.mark.parametrize("name", list(corpus.BUNDLED))
    def test_report_is_the_concatenation(self, capsys, name):
        parts = []
        for cmd in ("validate", "hvector", "betti", "formality", "gkm", "code"):
            _, out, _ = run(capsys, cmd, bundled(name))
            parts.append(out)
        rc, whole, _ = run(capsys, "report", bundled(name))
        assert whole == "".join(parts)
        expected_rc = 2 if name == "annulus" else 0
        assert rc == expected_rc


class TestParseErrors:
    def test_not_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        rc, _, err = run(capsys, "validate", str(bad))
        assert rc == 1 and "not valid JSON" in err

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
        assert rc == 1 and "cannot read" in err

    def test_unknown_key(self, capsys, tmp_path):
        data = json.loads(corpus.bundled_path("triangle").read_text())
        data["extra"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc, _, err = run(capsys, "validate", str(bad))
        assert rc == 1 and "unknown key" in err

    def test_dependent_lambda(self, capsys, tmp_path):
        data = json.loads(corpus.bundled_path("triangle").read_text())
        data["lambda"]["F2"] = [1, 0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc, _, err = run(capsys, "validate", str(bad))
        assert rc == 1 and "dependent" in err

    def test_bad_carrier(self, capsys, tmp_path):
        data = json.loads(corpus.bundled_path("square_torus").read_text())
        data["triangulation"]["simplices"][0]["carrier"] = "nope"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc, _, err = run(capsys, "validate", str(bad))
        assert rc == 1 and "unknown face" in err

    def test_missing_lambda_for_betti(self, capsys, tmp_path):
        data = json.loads(corpus.bundled_path("triangle").read_text())
        del data["lambda"]
        f = tmp_path / "nolam.json"
        f.write_text(json.dumps(data))
        rc, out, _ = run(capsys, "hvector", str(f))
        assert rc == 0
        rc, _, err = run(capsys, "betti", str(f))
        assert rc == 1 and "no lambda" in err

    def test_broken_poset(self, capsys, tmp_path):
        # dropping one vertex-facet inclusion leaves p23 inside a single
        # facet, so the poset is neither nice nor simplicial
        data = json.loads(corpus.bundled_path("triangle").read_text())
        data["inclusions"] = [
            pair for pair in data["inclusions"] if pair != ["p23", "F2"]
        ]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc, _, err = run(capsys, "validate", str(bad))
        assert rc == 1 and "p23" in err


class TestMalformedInput:
    """Malformed input exits 1 with error lines, never a traceback."""

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("faces", 5, "faces must be a list"),
            ("inclusions", {"F1": "Q"}, "inclusions must be a list"),
            ("lambda", [[1, 0]], "lambda must be an object"),
            ("dim", True, "dim must be a non-negative integer"),
        ],
    )
    def test_wrong_top_level_types(self, capsys, tmp_path, key, value, message):
        data = json.loads(corpus.bundled_path("triangle").read_text())
        data[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc, out, err = run(capsys, "report", str(bad))
        assert rc == 1 and out == "" and f"error: {message}" in err

    def test_bool_codim_and_bits_rejected(self, capsys, tmp_path):
        for edit, message in (
            (lambda d: d["faces"][0].update(codim=False), "has wrong types"),
            (lambda d: d["lambda"].update(F1=[True, False]), "must be a list of 2 bits"),
        ):
            data = json.loads(corpus.bundled_path("triangle").read_text())
            edit(data)
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(data))
            rc, _, err = run(capsys, "validate", str(bad))
            assert rc == 1 and message in err

    def test_unhashable_carrier(self, capsys, tmp_path):
        data = json.loads(corpus.bundled_path("square_torus").read_text())
        data["triangulation"]["simplices"][0]["carrier"] = ["Q"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc, _, err = run(capsys, "validate", str(bad))
        assert rc == 1 and "unknown face" in err

    def test_huge_dim_is_refused_at_once(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "dim": 1000000,
                                   "faces": [{"id": "Q", "codim": 0}], "inclusions": []}))
        start = time.perf_counter()
        rc, out, err = run(capsys, "report", str(bad))
        assert time.perf_counter() - start < 1.0
        assert rc == 1 and out == ""
        assert err == f"error: dim 1000000 exceeds the maximum {MAX_DIM}\n"

    def test_more_points_than_simplices_is_refused_at_once(self, capsys, tmp_path):
        data = json.loads(corpus.bundled_path("square_torus").read_text())
        data["triangulation"]["points"] = 3000000
        data["triangulation"]["simplices"] = data["triangulation"]["simplices"][:1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        start = time.perf_counter()
        rc, out, err = run(capsys, "validate", str(bad))
        assert time.perf_counter() - start < 1.0
        assert rc == 1 and out == ""
        assert err == "error: triangulation points=3000000 exceeds the number of listed simplices (1)\n"

    def test_blowup_into_a_missing_directory(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "x.json"
        rc, out, err = run(
            capsys, "blowup", bundled("triangle"), "--face", "p12", "--out", str(out_file)
        )
        assert rc == 1 and out == ""
        assert err.startswith(f"error: cannot write {out_file}")


    def test_zero_dimensional_instance(self, capsys, tmp_path):
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"name": "x", "dim": 0, "faces": [{"id": "Q", "codim": 0}],
                                     "inclusions": [], "lambda": {}}))
        rc, out, err = run(capsys, "gkm", str(point))
        assert rc == 0 and err == ""
        assert out == "equivariant_dims=(1,) face_ring_dims=(1,) max_deg=0 match=true\n"
        rc, out, err = run(capsys, "report", str(point))
        assert rc == 2 and err == ""  # the zero code has no minimum distance
        assert "(min distance skipped: zero code has no minimum distance)" in out

    def test_zero_dimensional_code_has_no_involution(self, capsys, tmp_path):
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"name": "x", "dim": 0, "faces": [{"id": "Q", "codim": 0}],
                                     "inclusions": [], "lambda": {}}))
        rc, out, err = run(capsys, "code", str(point))
        assert rc == 2 and err == ""
        assert out.splitlines() == [
            "m_involution=false (dimension 0: the only element of GF(2)^0 is the identity, "
            "no involution)",
            "[1,0,?] self_dual=false (min distance skipped: zero code has no minimum distance)",
        ]


def mutate(data, draw):
    """One edit of a serialised instance: a face (with the inclusions and
    the lambda entry naming it), an inclusion, a lambda entry or a simplex
    dropped, a codim, a lambda entry or a carrier changed, or dim set to 0."""
    d = copy.deepcopy(data)
    kinds = ["drop face", "drop inclusion", "codim", "dim 0"]
    if d.get("lambda"):
        kinds += ["change lambda", "drop lambda"]
    if "triangulation" in d:
        kinds += ["drop simplex", "carrier"]
    kind = draw(st.sampled_from(kinds))

    def pick(seq):
        return draw(st.integers(min_value=0, max_value=len(seq) - 1))

    if kind == "drop face" and d["faces"]:
        face = d["faces"].pop(pick(d["faces"]))["id"]
        d["inclusions"] = [pair for pair in d["inclusions"] if face not in pair]
        d.get("lambda", {}).pop(face, None)
    elif kind == "drop inclusion" and d["inclusions"]:
        del d["inclusions"][pick(d["inclusions"])]
    elif kind == "codim" and d["faces"]:
        d["faces"][pick(d["faces"])]["codim"] = draw(st.integers(-1, d["dim"] + 1))
    elif kind == "dim 0":
        d["dim"] = 0
    elif kind == "change lambda":
        facet = draw(st.sampled_from(sorted(d["lambda"])))
        d["lambda"][facet] = draw(st.lists(st.integers(0, 1), min_size=d["dim"], max_size=d["dim"]))
    elif kind == "drop lambda":
        del d["lambda"][draw(st.sampled_from(sorted(d["lambda"])))]
    elif kind == "drop simplex":
        del d["triangulation"]["simplices"][pick(d["triangulation"]["simplices"])]
    elif kind == "carrier":
        simplex = d["triangulation"]["simplices"][pick(d["triangulation"]["simplices"])]
        simplex["carrier"] = draw(st.sampled_from([f["id"] for f in data["faces"]]))
    return d


SERIALISED = {name: serialize_instance(build()) for name, build in corpus.BUILDERS.items()}
SERIALISED.update({f"ncube({n})": serialize_instance(corpus.ncube(n)) for n in (0, 1, 2)})


def arguments(cmd, d, draw):
    """Drawn options for cmd: a --max-deg around its range, a --g of
    bits, stray characters and non-ASCII digits, or any --face text."""
    dim = d["dim"]
    if cmd == "gkm":
        return [f"--max-deg={draw(st.integers(-3, 2 * dim + 2))}"]
    if cmd == "fixed-locus":
        return ["--g=" + draw(st.text(alphabet="01x\u0661 ", max_size=dim + 1))]
    if cmd == "blowup":
        ids = [f["id"] for f in d["faces"]] or ["Q"]
        return ["--face=" + draw(st.one_of(st.sampled_from(ids), st.text()))]
    return []


class TestFuzz:
    """Edited instances and drawn options never crash the CLI: it exits
    0, 1 or 2, and on 1 every line it prints on standard error is an
    `error:` line."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_edited_instances(self, data):
        d = SERIALISED[data.draw(st.sampled_from(sorted(SERIALISED)))]
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            d = mutate(d, data.draw)
        cmd = data.draw(st.sampled_from(sorted(COMMANDS)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edited.json"
            path.write_text(json.dumps(d))
            argv = [cmd, str(path), *arguments(cmd, d, data.draw)]
            if cmd == "blowup":
                argv += ["--out", str(Path(tmp) / "cut.json")]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = main(argv)
        assert rc in (0, 1, 2)
        if rc == 1:
            assert all(line.startswith("error:") for line in err.getvalue().splitlines())


class TestModeAGate:
    def test_annulus_without_triangulation_is_refused(self, capsys, tmp_path):
        data = json.loads(corpus.bundled_path("annulus").read_text())
        del data["triangulation"]
        f = tmp_path / "annulus_a.json"
        f.write_text(json.dumps(data))
        for cmd in ("report", "betti", "formality", "code"):
            rc, out, err = run(capsys, cmd, str(f))
            assert rc == 2 and out == "", cmd
            assert err.startswith("error: mode A needs a CW poset"), cmd
            assert "F1, F2, Q" in err and "triangulation" in err, cmd

    def test_split_annulus_is_refused_at_q(self, capsys, tmp_path, split_annulus_data):
        f = tmp_path / "split_annulus.json"
        f.write_text(json.dumps(split_annulus_data))
        rc, out, err = run(capsys, "validate", str(f))
        assert rc == 1 and "skeleton_connected=fail" in out
        rc, out, err = run(capsys, "report", str(f))
        assert rc == 2 and out == ""
        assert err == (
            "error: mode A needs a CW poset, where the boundary of every face is a mod-2 "
            "homology sphere; it fails at Q; supply a triangulation to use mode B\n"
        )


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        inst = corpus.cut_triangle()
        path = tmp_path / "cut.json"
        save_instance(inst, path)
        back = load_instance(path)
        assert back.poset == inst.poset
        assert back.lam.values == inst.lam.values
        assert back.triangulation.simplices == inst.triangulation.simplices
