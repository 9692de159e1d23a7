"""Tests of the benchmark's own checkers, tracer and output contract.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import checks
import instances
import speed
from run import CORPUS_BETTI, Op, Runner, torus_betti
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from z2torus import cli, corpus, instance, model  # noqa: E402


def cli_run(argv: list[str]) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return out.getvalue(), rc


def write(tmp_path: Path, data: dict) -> Path:
    path = tmp_path / f"{data['name']}.json"
    path.write_text(json.dumps(data))
    return path


@pytest.fixture
def cube2(tmp_path):
    data = instances.ncube(2, [1, 0])
    text, rc = cli_run(["report", str(write(tmp_path, data))])
    return data, text, rc


def test_cube_report_passes(cube2):
    data, text, rc = cube2
    exp = checks.expect_report(data, torus_betti(2), torus=True)
    assert checks.check_report(text, rc, exp) == []


@pytest.mark.parametrize("name", ["annulus", "triangle", "bigon", "square_klein"])
def test_corpus_report_passes(tmp_path, name):
    data = instance.serialize_instance(corpus.BUILDERS[name]())
    text, rc = cli_run(["report", str(write(tmp_path, data))])
    exp = checks.expect_report(data, CORPUS_BETTI[name])
    assert checks.check_report(text, rc, exp) == []
    if name == "annulus":
        assert rc == 2 and "hsiang=false" in text


def test_barycentric_cube_runs_in_mode_b(tmp_path):
    data = instances.barycentric(instances.ncube(2))
    text, rc = cli_run(["report", str(write(tmp_path, data))])
    assert "mode=B" in text
    assert checks.check_report(text, rc, checks.expect_report(data, torus_betti(2), True)) == []


def test_corrupted_outputs_count_as_failed(cube2):
    data, text, rc = cube2
    exp = checks.expect_report(data, torus_betti(2), torus=True)
    wrong_betti = text.replace("betti=(1, 2, 1)", "betti=(1, 1, 1)", 1)
    wrong_code = text.replace("[4,3,2]", "[4,3,1]")
    # reordering the code rows is presentation, not an error
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines) if set(line) <= {"0", "1"}]
    for i, j in zip(rows, reversed(rows)):
        lines[i] = text.splitlines()[j]
    reordered = "\n".join(lines)
    assert reordered != text

    def op(out: str, code: int) -> Op:
        return Op("report cube2", lambda: (out, code),
                  lambda result: checks.check_report(*result, exp))

    runner = Runner([op(text, rc), op(reordered, rc), op(wrong_betti, rc), op(text, 1),
                     op(wrong_code, rc), op("", rc)], tracer=None)
    runner.run_pass(traced=False)
    assert (runner.attempted, runner.failed) == (6, 4)


def test_raising_operation_counts_as_failed():
    def boom():
        raise ValueError("boom")

    runner = Runner([Op("boom", boom, lambda r: [])], tracer=None)
    runner.run_pass(traced=False)
    assert runner.failed == 1


def test_speed_probe_reads_the_kernel_as_its_reference_time():
    probe = speed.SpeedProbe(period=0.005)
    probe.start()
    try:
        reads = []
        for _ in range(9):
            w0, c0 = probe.mark()
            speed.kernel()
            w1, c1 = probe.mark()
            reads.append((w1 - w0, c1 - c0))
    finally:
        probe.stop()
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    for clock in (0, 1):
        ratio = sorted(r[clock] for r in reads)[4] / speed.REF_KERNEL_S
        assert 0.5 < ratio < 2, ratio


def test_blowup_checker(tmp_path):
    src = write(tmp_path, instances.ncube(3))
    before = checks.load_facts(src)
    out = tmp_path / "cut.json"
    for face in ("000", "00*"):
        text, rc = cli_run(["blowup", str(src), "--face", face, "--out", str(out)])
        assert checks.check_blowup(text, rc, before, face, out) == []
        # vertices_after = before + (k-1) * vertices(f): 8 + 2*1 and 8 + 1*2
        assert "vertices=10" in text
    bad = text.replace("vertices=10", "vertices=9")
    assert checks.check_blowup(bad, rc, before, "00*", out)


def test_gkm_closed_forms_agree():
    for n in range(1, 7):
        h = tuple(comb(n, i) for i in range(n + 1))
        assert checks.torus_gkm_dims(n, 10) == checks.series(h, n, 10)
    data = instances.ncube(3)
    dims = checks.torus_gkm_dims(3, 6)
    assert checks.check_gkm(dims, 12, data, 6, torus=True) == []
    assert checks.check_gkm(dims[:-1] + (dims[-1] + 1,), 12, data, 6, torus=True)
    assert checks.check_gkm(dims, 11, data, 6, torus=True)


def test_symmetry_maps_faces_to_faces_of_the_same_codim():
    faces = set(instances.cube_faces(4))
    sym = ([2, 0, 3, 1], [1, 0, 0, 1])
    image = {instances.apply_symmetry(w, sym) for w in faces}
    assert image == faces
    assert instances.apply_symmetry("01**", sym).count("*") == 2


def test_tracer_records_spans_and_restores(cube2, tmp_path):
    data, _, _ = cube2
    path = write(tmp_path, data)
    original = model.build_quotient
    tracer = Tracer()
    tracer.install()
    try:
        cli_run(["report", str(path)])
    finally:
        tracer.uninstall()
    assert model.build_quotient is original
    m = {k: v for k, (v, _) in tracer.metrics().items()}
    assert m["cli.main.calls"] == 1
    assert m["model.formality_verdict.calls"] == 3
    assert m["gf2.Matrix.rank.calls"] > 0 and m["model.cells"] > 0
    # top-level spans cover everything below them
    assert m["trace.spans_s"] * 1e3 == pytest.approx(m["cli.main.total_ms"])
    assert m["model.formality_verdict.self_ms"] < m["model.formality_verdict.total_ms"]
    assert m["trace.absent"] == 0


def test_tracer_survives_a_missing_name(cube2, tmp_path, monkeypatch):
    data, _, _ = cube2
    path = write(tmp_path, data)
    monkeypatch.delattr(model, "formality_verdict")
    tracer = Tracer()
    tracer.install()
    try:
        text, rc = cli_run(["report", str(path)])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert tracer.absent == ["model.formality_verdict"]
    m = {k: v for k, (v, _) in tracer.metrics().items()}
    assert m["trace.absent"] == 1 and m["model.formality_verdict.calls"] == 0


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_matches_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(ROOT, "--workload", "triangulated-report", "--seed", "1",
                     "--seconds", "0.3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(tmp_path, "--workload", "cube-report", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
