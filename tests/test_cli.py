"""End-to-end command-line behavior: formats, exit codes, round trips."""

import argparse
import copy
import io
import json
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2torus import cli, complexes, corpus, model
from z2torus.cli import COMMANDS, main
from z2torus.instance import (
    MAX_DEG,
    MAX_DIM,
    load_instance,
    save_instance,
    serialize_instance,
)


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

    def test_a_face_over_many_apart_children(self, capsys, tmp_path):
        # a top face covering 12,000 vertices, no two joined: its children's
        # components are merged without rescanning those merged so far
        ids = [f"v{i}" for i in range(12000)]
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({
            "name": "flat", "dim": 1,
            "faces": [{"id": "Q", "codim": 0}] + [{"id": v, "codim": 1} for v in ids],
            "inclusions": [[v, "Q"] for v in ids],
        }))
        start = time.perf_counter()
        rc, out, _ = run(capsys, "validate", str(flat))
        assert time.perf_counter() - start < 10.0
        assert rc == 1
        assert "has_vertex=ok skeleton_connected=fail\n  - 1-skeleton of face Q is disconnected\n" in out


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

    def test_gkm_max_deg_is_bounded(self, capsys):
        rc, out, err = run(capsys, "gkm", bundled("cube"), "--max-deg", str(MAX_DEG))
        assert rc == 0 and err == "" and f"max_deg={MAX_DEG} match=true" in out
        start = time.perf_counter()
        rc, out, err = run(capsys, "gkm", bundled("cube"), "--max-deg", "3000000")
        assert time.perf_counter() - start < 1.0
        assert rc == 1 and out == ""
        assert err == f"error: --max-deg must be at most {MAX_DEG}, got 3000000\n"

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
        rc, out, err = run(capsys, "fixed-locus", bundled("cube"), "--g", "10")
        assert rc == 1 and out == ""
        assert err == "error: g has 2 bits, lambda has width 3\n"

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

    @pytest.mark.parametrize("name", ["segment", "point"])
    def test_below_dimension_two_no_face_can_be_cut(self, capsys, tmp_path, name):
        small = tmp_path / f"{name}.json"
        if name == "segment":
            save_instance(corpus.segment(), small)
        else:
            small.write_text(json.dumps({"name": "x", "dim": 0, "faces": [{"id": "Q", "codim": 0}],
                                         "inclusions": [], "lambda": {}}))
        inst = load_instance(small)
        for face in inst.poset.faces():
            rc, out, err = run(
                capsys, "blowup", str(small), "--face", face, "--out", str(tmp_path / "x.json")
            )
            assert rc == 2 and out == ""
            assert err == (
                "error: cut face must have codimension 2 or more; "
                f"dimension {inst.poset.n} has no such face\n"
            )
        assert not (tmp_path / "x.json").exists()


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

    @pytest.mark.parametrize("name", ["cube", "square_klein"])  # mode A, mode B
    def test_one_gate_and_one_model_per_report(self, capsys, monkeypatch, name):
        calls = Counter()

        def count(module, attr):
            fn = getattr(module, attr)

            def counted(*args):
                calls[attr] += 1
                return fn(*args)

            monkeypatch.setattr(module, attr, counted)

        count(complexes, "is_face_acyclic")
        count(model, "build_quotient")
        count(complexes, "_walk")
        parts = []
        for cmd in ("validate", "hvector", "betti", "formality", "gkm", "code"):
            _, out, _ = run(capsys, cmd, bundled(name))
            parts.append(out)
        # every subcommand loads its own instance, so each computes afresh;
        # mode B walks its triangulation while loading, to validate the carriers
        walks = 6 if name == "square_klein" else 4
        assert calls == {"is_face_acyclic": 4, "build_quotient": 3, "_walk": walks}
        calls.clear()
        rc, whole, _ = run(capsys, "report", bundled(name))
        # the loader, the gate and the model share one walk of the base complex
        assert calls == {"is_face_acyclic": 1, "build_quotient": 1, "_walk": 1}
        assert rc == 0 and whole == "".join(parts)

    def test_six_cube(self, capsys, tmp_path):
        # the real torus T^6 from 4,096 model cells, one rung past the corpus
        path = tmp_path / "cube6.json"
        save_instance(corpus.ncube(6), path)
        rc, out, err = run(capsys, "report", str(path))
        betti = tuple(comb(6, k) for k in range(7))
        assert rc == 0 and err == ""
        assert f"mode=A betti={betti} sum=64" in out
        assert "agree=true" in out and "match=true" in out


def captured(argv):
    """stdout, stderr and exit code of one in-process `main` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return out.getvalue(), err.getvalue(), rc


class TestParserReuse:
    """`main` builds its parser once per process; a reused parser must
    print what a freshly built one prints, call after call."""

    def test_same_output_as_a_fresh_parser(self, monkeypatch):
        cube = bundled("cube")
        calls = [
            ["blowup", cube],
            ["nosuch", cube],
            ["gkm", cube, "--max-deg", "3"],
            ["gkm", cube],
            ["report", cube],
            ["fixed-locus", cube, "--g", "1x1"],
            ["--help"],
        ]
        shared = [captured(argv) for argv in calls]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert [captured(argv) for argv in calls] == shared
        blowup, unknown, gkm3, gkm, report, bad_g, help_ = shared
        assert blowup[2] == 2 and blowup[1].startswith("usage: z2torus blowup")
        assert "required: --face, --out" in blowup[1]
        assert unknown[2] == 2 and "invalid choice: 'nosuch'" in unknown[1]
        assert "max_deg=3 " in gkm3[0] and "max_deg=6 " in gkm[0]
        assert report[2] == 0 and gkm[0] in report[0]
        assert bad_g[2] == 1 and "error: bad --g value '1x1'" in bad_g[1]
        assert help_[2] == 0 and help_[0].startswith("usage: z2torus")

    def test_main_reuses_one_parser(self, monkeypatch):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(self, *args, **kwargs):
            parsers.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        captured(["hvector", bundled("cube")])
        captured(["hvector", bundled("triangle")])
        assert len(parsers) == 2 and parsers[0] is parsers[1]


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


class TestGkmWarning:
    def test_the_warning_follows_the_model(self, capsys, tmp_path, mobius_square_data):
        path = tmp_path / "mobius.json"
        path.write_text(json.dumps(mobius_square_data))
        rc, out, err = run(capsys, "gkm", str(path))
        assert rc == 0 and err == ""
        assert out.splitlines() == [
            "equivariant_dims=(1, 4, 8, 12, 16) face_ring_dims=(1, 4, 8, 12, 16) "
            "max_deg=4 match=true",
            "warning: model not formal; equivariant dims are the restriction image only",
        ]
        rc, whole, _ = run(capsys, "report", str(path))
        assert rc == 0 and out in whole
        assert "hsiang=false criterion=false h_identity=false agree=true" in whole


class TestOutOfMemory:
    def test_memory_error_is_an_error_line(self, capsys, monkeypatch):
        def exhaust(inst, args):
            raise MemoryError

        monkeypatch.setitem(COMMANDS, "report", exhaust)
        rc, out, err = run(capsys, "report", bundled("cube"))
        assert rc == 1 and out == ""
        assert err.splitlines() == [f"error: out of memory in report {bundled('cube')}"]


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

    def test_simplex_past_dim_plus_one_points_is_one_error_line(self, capsys, tmp_path):
        data = json.loads(corpus.bundled_path("square_torus").read_text())
        data["triangulation"]["simplices"].append({"verts": [0, 1, 2, 3], "carrier": "Q"})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc, out, err = run(capsys, "validate", str(bad))
        assert rc == 1 and out == ""
        assert err == "error: simplex [0, 1, 2, 3] has 4 points, more than dim + 1 = 3\n"

    def test_huge_simplex_is_refused_at_once(self, capsys, tmp_path):
        # _walk would list its 4,000 facets, each missing
        points = list(range(4000))
        simplices = [{"verts": [i], "carrier": "Q"} for i in points]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "x", "dim": 2, "faces": [{"id": "Q", "codim": 0}], "inclusions": [],
            "triangulation": {
                "points": len(points),
                "simplices": simplices + [{"verts": points, "carrier": "Q"}],
            },
        }))
        start = time.perf_counter()
        rc, out, err = run(capsys, "validate", str(bad))
        assert time.perf_counter() - start < 2.0
        assert rc == 1 and out == ""
        assert err == f"error: simplex {points} has 4000 points, more than dim + 1 = 3\n"

    def test_negative_points_is_one_error_line(self, capsys, tmp_path):
        data = json.loads(corpus.bundled_path("square_torus").read_text())
        data["triangulation"]["points"] = -1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc, out, err = run(capsys, "validate", str(bad))
        assert rc == 1 and out == ""
        assert err == "error: triangulation points must be a non-negative integer\n"

    def test_zero_points_with_simplices_is_one_error_line(self, capsys, tmp_path):
        data = json.loads(corpus.bundled_path("square_torus").read_text())
        data["triangulation"]["points"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc, out, err = run(capsys, "validate", str(bad))
        assert rc == 1 and out == ""
        assert err == "error: triangulation has no points (points=0) for its simplices to use\n"

    def test_non_utf8_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(bytes.fromhex("fffe00626164"))
        rc, out, err = run(capsys, "validate", str(bad))
        assert rc == 1 and out == ""
        assert err.startswith(f"error: {bad} is not UTF-8 text: ")
        assert len(err.splitlines()) == 1

    def test_lone_surrogates_are_refused(self, capsys, tmp_path):
        # JSON admits "\ud800"; printing it as text would raise
        bad = tmp_path / "bad.json"
        data = json.loads(corpus.bundled_path("square_torus").read_text())
        data["name"] = "\ud800x"
        bad.write_text(json.dumps(data))
        rc, out, err = run(capsys, "validate", str(bad))
        assert rc == 1 and out == ""
        assert err == "error: string '\\ud800x' is not valid Unicode: it holds a lone surrogate\n"
        rename = {"B": "B\udc00", "TR": "\udbff"}
        data["faces"] = [{**f, "id": rename.get(f["id"], f["id"])} for f in data["faces"]]
        data["inclusions"] = [[rename.get(x, x) for x in pair] for pair in data["inclusions"]]
        bad.write_text(json.dumps(data))
        rc, out, err = run(capsys, "validate", str(bad))
        assert rc == 1 and out == ""
        assert [line.split("'")[1] for line in err.splitlines()] == [
            "\\ud800x", "B\\udc00", "\\udbff"
        ]
        data = json.loads(corpus.bundled_path("square_torus").read_text())
        data["lambda"]["\ud800"] = [0, 1]
        bad.write_text(json.dumps(data))
        rc, out, err = run(capsys, "validate", str(bad))
        assert rc == 1 and out == ""
        assert err == "error: string '\\ud800' is not valid Unicode: it holds a lone surrogate\n"

    def test_lone_surrogate_in_an_unknown_endpoint(self, capsys, tmp_path):
        # both lines for each such endpoint, one witness per distinct string
        bad = tmp_path / "bad.json"
        data = json.loads(corpus.bundled_path("square_torus").read_text())
        data["name"] = "\ud800"
        data["faces"][1]["id"] = "B\udc00"
        data["inclusions"] = [["B\udc00", "Q"], ["\ud800", "Q"], ["L", "\udbff"],
                              ["\ud800", "Q"], ["\udbff", "B\udc00"]] + data["inclusions"][1:]
        bad.write_text(json.dumps(data))
        rc, out, err = run(capsys, "validate", str(bad))
        assert rc == 1 and out == ""
        assert err.splitlines()[:9] == [
            "error: inclusion ['\\ud800', 'Q'] names unknown face '\\ud800'",
            "error: inclusion ['L', '\\udbff'] names unknown face '\\udbff'",
            "error: inclusion ['\\ud800', 'Q'] names unknown face '\\ud800'",
            "error: inclusion ['\\udbff', 'B\\udc00'] names unknown face '\\udbff'",
            "error: inclusion ['BL', 'B'] names unknown face 'B'",
            "error: inclusion ['BR', 'B'] names unknown face 'B'",
            "error: string '\\ud800' is not valid Unicode: it holds a lone surrogate",
            "error: string 'B\\udc00' is not valid Unicode: it holds a lone surrogate",
            "error: string '\\udbff' is not valid Unicode: it holds a lone surrogate",
        ]
        assert len(err.splitlines()) == 9

    def test_deeply_nested_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[" * 100000 + "]" * 100000)
        rc, out, err = run(capsys, "validate", str(bad))
        assert rc == 1 and out == ""
        assert err == f"error: {bad} is nested too deeply\n"

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
    dropped, a codim, a lambda entry or a carrier changed, dim set to 0, or
    a name, face id, inclusion end, lambda key or carrier given characters
    that may be lone surrogates."""
    d = copy.deepcopy(data)
    kinds = ["drop face", "drop inclusion", "codim", "dim 0", "surrogate"]
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
    elif kind == "surrogate":
        spoil_string(d, draw)
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


def spoil_string(d, draw):
    """Prefix the name, a face id, an inclusion end, a lambda key or a
    carrier of d, in place, with characters that may be lone surrogates:
    JSON admits them, Unicode text does not."""
    prefix = draw(st.text(alphabet="x\ud800\udfff", min_size=1, max_size=3))

    def pick(seq):
        return seq[draw(st.integers(min_value=0, max_value=len(seq) - 1))]

    where = draw(st.sampled_from(["name", "face id", "inclusion", "lambda key", "carrier"]))
    if where == "name":
        d["name"] = prefix + d["name"]
    elif where == "face id" and d["faces"]:
        entry = pick(d["faces"])
        entry["id"] = prefix + entry["id"]
    elif where == "inclusion" and d["inclusions"]:
        pair = pick(d["inclusions"])
        pair[1] = prefix + pair[1]
    elif where == "lambda key" and d.get("lambda"):
        facet = pick(sorted(d["lambda"]))
        d["lambda"][prefix + facet] = d["lambda"].pop(facet)
    elif where == "carrier" and "triangulation" in d:
        simplex = pick(d["triangulation"]["simplices"])
        simplex["carrier"] = prefix + simplex["carrier"]


SERIALISED = {name: serialize_instance(build()) for name, build in corpus.BUILDERS.items()}
SERIALISED.update({f"ncube({n})": serialize_instance(corpus.ncube(n)) for n in (0, 1, 2)})


def arguments(cmd, d, draw):
    """Drawn options for cmd: a --max-deg around its default or past its
    bound, a --g of bits, stray characters and non-ASCII digits, or any
    --face text."""
    dim = d["dim"]
    if cmd == "gkm":
        deg = st.one_of(st.integers(-3, 2 * dim + 2), st.integers(MAX_DEG + 1, 10**12))
        return [f"--max-deg={draw(deg)}"]
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
        self.assert_cli_survives(d, data.draw)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_unprintable_strings(self, data):
        # one edit alone, so the instance is often otherwise sound and its
        # strings reach standard output
        d = copy.deepcopy(SERIALISED[data.draw(st.sampled_from(sorted(SERIALISED)))])
        spoil_string(d, data.draw)
        self.assert_cli_survives(d, data.draw)

    @staticmethod
    def assert_cli_survives(d, draw):
        cmd = draw(st.sampled_from(sorted(COMMANDS)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edited.json"
            path.write_text(json.dumps(d))
            argv = [cmd, str(path), *arguments(cmd, d, draw)]
            if cmd == "blowup":
                argv += ["--out", str(Path(tmp) / "cut.json")]
            # encoding streams, as sys.stdout and sys.stderr are: a StringIO
            # would take text that cannot be printed
            out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
            err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
            with redirect_stdout(out), redirect_stderr(err):
                rc = main(argv)
            err.seek(0)
            err_lines = err.read().splitlines()
        assert rc in (0, 1, 2)
        if rc == 1:
            assert all(line.startswith("error:") for line in err_lines)


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


    def test_gkm_stops_at_the_gate_without_a_model(self, capsys, monkeypatch, tmp_path,
                                                   rp2_dual_data):
        # the labels pass and the 1-skeleton is a GKM graph, so gkm reaches the gate
        f = tmp_path / "rp2_dual.json"
        f.write_text(json.dumps(rp2_dual_data))
        rc, out, _ = run(capsys, "validate", str(f))
        assert rc == 0 and "lambda: ok" in out

        def no_model(*args):
            raise AssertionError("gkm lifted a model")

        monkeypatch.setattr(complexes, "_lift", no_model)
        rc, out, err = run(capsys, "gkm", str(f))
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
