"""z2torus benchmark: four fixed workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload cube-report --seed 1 --seconds 30 --trace 0

Run from a checkout's root; the program is imported from its `src/`.
One process runs one workload, closed loop with one caller and no
threads: it repeats passes over the workload's operation list until
`--seconds` is spent, checks every output, and prints every metric by
name with its unit.  The last stdout line is one JSON object with keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer ones with `--trace 1`.  Untraced runs
time on the speed-normalised clocks of speed.py.  A traced run
alternates untraced and traced passes; its untraced passes only give
`trace.overhead_s`.  README.md beside this file says why each workload
exists and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from math import comb
from pathlib import Path
from statistics import median
from types import SimpleNamespace
from typing import Callable

import checks
import instances
from speed import SpeedProbe
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
SETUP_REPEATS = 5
GKM_DEGREE = 8

# modules of src/z2torus whose line counts are reported; others count in loc.total
LOC_MODULES = (
    "__init__", "blowup", "charfunc", "cli", "codes", "complexes", "corpus",
    "errors", "gf2", "gkm", "instance", "model", "poset",
)

# Known mod-2 Betti numbers of the models of the corpus instances.
CORPUS_BETTI = {
    "triangle": (1, 1, 1),  # RP^2
    "segment": (1, 1),  # circle
    "bigon": (1, 0, 1),  # S^2
    "cube": (1, 3, 3, 1),  # T^3
    "cut_cube_vertex": (1, 4, 4, 1),  # T^3 # RP^3: a point blow-up adds (0,1,1,0)
    "cut_cube_edge": (1, 4, 4, 1),  # blow-up along a circle adds (k-1)*(1,1) in degrees 1, 2
    "square_torus": (1, 2, 1),  # T^2
    "square_klein": (1, 2, 1),  # Klein bottle
    "annulus": (1, 2, 1),  # a closed surface with no fixed point: not formal
    "cut_triangle": (1, 2, 1),  # RP^2 # RP^2
}
MODE_A_CORPUS = ("triangle", "cube", "segment", "bigon", "cut_cube_vertex", "cut_cube_edge")
MODE_B_CORPUS = ("square_torus", "square_klein", "annulus", "cut_triangle")


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]


def import_program() -> SimpleNamespace:
    """Import z2torus afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "z2torus" or m.startswith("z2torus.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("z2torus")
    if Path(pkg.__file__).resolve().parent != SRC / "z2torus":
        raise SystemExit(f"error: z2torus imported from {pkg.__file__}, not from {SRC}")
    names = ("cli", "charfunc", "gkm", "corpus", "instance", "blowup")
    return SimpleNamespace(**{n: importlib.import_module(f"z2torus.{n}") for n in names})


def write_json(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data))
    return path


def cli_op(z, name: str, argv: list[str], check: Callable[[str, int], list[str]]) -> Op:
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = z.cli.main(argv)
        return out.getvalue(), rc

    return Op(name, call, lambda result: check(*result))


def report_op(z, work: Path, data: dict, betti, torus: bool = False) -> Op:
    path = write_json(work / f"{data['name']}.json", data)
    exp = checks.expect_report(data, betti, torus)
    return cli_op(z, f"report {data['name']}", ["report", str(path)],
                  lambda text, rc: checks.check_report(text, rc, exp))


def basis_perm(n: int, rng: random.Random) -> list[int]:
    return rng.sample(range(n), n)


def torus_betti(n: int) -> tuple[int, ...]:
    return tuple(comb(n, k) for k in range(n + 1))


def corpus_data(z, name: str) -> dict:
    return z.instance.serialize_instance(z.corpus.BUILDERS[name]())


# -- workloads -------------------------------------------------------------
# Each builds its instance files under `work` and returns its operations.
# The seed only relabels: it picks a cube symmetry or a permutation of the
# label basis, so every seed asks for the same work.


def cube_report(z, work: Path, rng: random.Random) -> list[Op]:
    ops = [
        report_op(z, work, instances.ncube(n, basis_perm(n, rng)), torus_betti(n), torus=True)
        for n in (2, 3, 4)
    ]
    ops += [report_op(z, work, corpus_data(z, name), CORPUS_BETTI[name]) for name in MODE_A_CORPUS]
    return ops


def triangulated_report(z, work: Path, rng: random.Random) -> list[Op]:
    ops = [report_op(z, work, corpus_data(z, name), CORPUS_BETTI[name]) for name in MODE_B_CORPUS]
    cube = instances.barycentric(instances.ncube(3, basis_perm(3, rng)))
    ops.append(report_op(z, work, cube, torus_betti(3), torus=True))
    return ops


BLOWUP_CHAIN = ("000000", "00****", "***111")  # vertex, codim-2, codim-3 faces of the 6-cube


def blowup_chain(z, work: Path, rng: random.Random) -> list[Op]:
    sym = instances.random_symmetry(6, rng)
    src = write_json(work / "cube6.json", instances.ncube(6))
    ops = []
    for i, canonical in enumerate(BLOWUP_CHAIN):
        face = instances.apply_symmetry(canonical, sym)
        out = work / f"blowup{i}.json"

        def check(text, rc, src=src, face=face, out=out):
            return checks.check_blowup(text, rc, checks.load_facts(src), face, out)

        ops.append(cli_op(z, f"blowup {face}", ["blowup", str(src), "--face", face,
                                                "--out", str(out)], check))
        src = out
    return ops


GKM_CUTS = ("00000", "11***")  # a vertex, then a codim-2 face (an edge of the dual complex)


def gkm_hilbert(z, work: Path, rng: random.Random) -> list[Op]:
    sym = instances.random_symmetry(5, rng)
    cube_path = write_json(work / "cube5.json", instances.ncube(5, basis_perm(5, rng)))
    inst = z.instance.load_instance(cube_path)
    p, lam = inst.poset, inst.lam
    for canonical in GKM_CUTS:
        cut = z.blowup.cut_face(p, lam, instances.apply_symmetry(canonical, sym))
        p, lam = cut.poset, cut.lam
    cut_path = work / "cube5_cut.json"
    z.instance.save_instance(z.instance.Instance("cube5_cut", p, lam, None), cut_path)
    ops = []
    for path, torus in ((cube_path, True), (cut_path, False)):
        data = json.loads(path.read_text())
        inst = z.instance.load_instance(path)

        def call(inst=inst):
            g = z.charfunc.axial_function(inst.poset, inst.lam)
            return z.gkm.equivariant_hilbert(g, GKM_DEGREE), len(g.edges)

        def check(result, data=data, torus=torus):
            dims, edges = result
            return checks.check_gkm(dims, edges, data, GKM_DEGREE, torus)

        ops.append(Op(f"gkm {data['name']}", call, check))
    return ops


WORKLOADS = {
    "cube-report": cube_report,
    "triangulated-report": triangulated_report,
    "blowup-chain": blowup_chain,
    "gkm-hilbert": gkm_hilbert,
}


# -- measuring -------------------------------------------------------------


@dataclass
class Pass:
    wall: float  # speed-normalised when a SpeedProbe runs
    cpu: float
    raw_wall: float
    traced: bool


class Runner:
    def __init__(self, ops: list[Op], tracer: Tracer | None, probe: SpeedProbe | None = None):
        self.ops = ops
        self.tracer = tracer
        self.probe = probe
        self.attempted = 0
        self.failed = 0

    def run_pass(self, traced: bool) -> Pass:
        wall = cpu = raw_wall = 0.0
        for i, op in enumerate(self.ops):
            if traced:
                self.tracer.request = i
            w0, c0 = self.probe.mark() if self.probe else (time.perf_counter(), time.process_time())
            r0 = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception:  # a raising operation is a failed one; keep measuring
                result, error = None, traceback.format_exc()
            raw_wall += time.perf_counter() - r0
            w1, c1 = self.probe.mark() if self.probe else (time.perf_counter(), time.process_time())
            wall += w1 - w0
            cpu += c1 - c0
            self.attempted += 1
            if error is None:
                try:
                    problems = op.check(result)
                except Exception:  # output too malformed to check
                    problems = [traceback.format_exc()]
            else:
                problems = [error]
            if problems:
                self.failed += 1
                print(f"FAILED {op.name}:", *problems[:5], sep="\n  ", file=sys.stderr)
        return Pass(wall, cpu, raw_wall, traced)


def measure(ops: list[Op], seconds: float, trace: bool, probe: SpeedProbe | None):
    """Passes until the next one would overrun `seconds`; with tracing,
    every second pass is traced.  Returns the runner, passes and the
    per-pass layer metrics of the traced passes."""
    tracer = Tracer() if trace else None
    runner = Runner(ops, tracer, probe)
    passes: list[Pass] = []
    layers: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            passes.append(runner.run_pass(traced))
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layers.append(tracer.metrics())
        elapsed = time.perf_counter() - start
        if len(passes) >= (2 if trace else 1) and elapsed * (1 + 1 / len(passes)) > seconds:
            break
    return runner, passes, layers, (tracer.absent if trace else [])


def source_loc() -> dict[str, int]:
    loc = {name: 0 for name in LOC_MODULES}
    for path in sorted((SRC / "z2torus").glob("*.py")):
        loc[path.stem] = len(path.read_text().splitlines())
    return loc


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # Stay on one CPU: on a shared host the CPUs can run at different
    # speeds, and a pass that migrates between them reads as noise.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    # Untraced runs time on speed-normalised clocks; traced runs on plain
    # ones, so that span times and pass times are comparable.
    probe = None if args.trace else SpeedProbe()
    clock = probe.mark if probe else lambda: (time.perf_counter(), 0.0)
    try:
        if probe:
            probe.start()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()[0]
            z = import_program()
            ops = WORKLOADS[args.workload](z, work, random.Random(args.seed))
            setup_times.append(clock()[0] - t0)
        runner, passes, layers, absent = measure(ops, args.seconds, bool(args.trace), probe)
    finally:
        if probe:
            probe.stop()
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in passes if not p.traced]
    loc = source_loc()
    print(f"loc: total={sum(loc.values())} " + " ".join(f"{k}={v}" for k, v in loc.items()))
    print(f"passes: {len(plain)} untraced, {len(passes) - len(plain)} traced; "
          f"ops per pass: {len(ops)}; wall s: " + " ".join(f"{p.raw_wall:.3f}" for p in passes))
    if probe:
        print(f"speed: {len(probe.kernel_s)} kernel samples, median {median(probe.kernel_s) * 1e3:.3f} ms; "
              "normalised pass s: " + " ".join(f"{p.wall:.3f}" for p in passes))
    if absent:
        print("trace: absent " + " ".join(absent))
    if args.trace:
        metrics = {k: (median([m[k][0] for m in layers]), unit) for k, (_, unit) in layers[0].items()}
        metrics["trace.overhead_s"] = (
            median([p.wall for p in passes if p.traced]) - median([p.wall for p in plain]), "s"
        )
        metrics["fail_rate"] = (runner.failed / runner.attempted, "ratio")
        metrics.update({f"loc.{k}": (v, "lines") for k, v in loc.items() if k in LOC_MODULES})
        metrics["loc.total"] = (sum(loc.values()), "lines")
    else:
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "pass_s": (median([p.wall for p in plain]), "s"),
            "pass_cpu_s": (median([p.cpu for p in plain]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
