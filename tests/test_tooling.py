"""The pytest configuration itself: a failing test must not end the run;
the package's export list; and a guard that the package holds only what
a command runs, with the stages each subcommand enters."""

import ast
import contextlib
import io
import os
import subprocess
import sys
from inspect import CO_NEWLOCALS
from pathlib import Path
from types import CodeType

import z2torus
from z2torus import charfunc, cli, codes, complexes, corpus, model
from z2torus.instance import Instance, save_instance
from z2torus.poset import order_complex

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def test_export_list_matches_the_imports():
    # a stale __all__ entry makes `from z2torus import *` raise
    tree = ast.parse(Path(z2torus.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert z2torus.__all__ == sorted(z2torus.__all__)
    assert set(z2torus.__all__) == imported
    for name in z2torus.__all__:
        getattr(z2torus, name)


# a kept result's owner: the poset, or a triangulation
KEPT_OWNERS = {"FacePoset", "CarrierComplex", "CarrierComplex | FacePoset", "FacePoset | CarrierComplex"}


def test_every_kept_function_keeps_on_a_first_argument_with_no_defaults():
    # `kept` keeps a result on the call's first argument and compares the
    # rest by identity, one slot per function: a defaulted parameter would
    # give one result two slots, f(p, a) and f(p, a, default)
    found = {}
    for path in sorted(Path(z2torus.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                ast.unparse(d) == "kept" for d in node.decorator_list
            ):
                args = node.args
                first = (args.posonlyargs + args.args)[0].annotation
                found[f"{path.stem}.{node.name}"] = (
                    ast.unparse(first) if first else None,
                    bool(args.defaults or any(args.kw_defaults)),
                )
    assert {"complexes.face_acyclicity", "model.formality_verdict"} <= found.keys()
    for name, (owner, defaults) in found.items():
        assert owner in KEPT_OWNERS and not defaults, name


# Why each function of the package that no command enters may stay there.
# "A test uses it" is no reason: such code belongs in tests/.
PERFBENCH = "held by perfbench/"
ELIMINATION = "elimination only, reached once a GKM graph with no flow-up basis runs from the CLI"
CORPUS = "corpus builder"
IMPORT = "kept, which runs at import"
DUNDER = "__repr__ / __str__ / __eq__"
ERROR = "error path only"

NEVER_ENTERED = {
    "complexes.CarrierComplex.__repr__": DUNDER,
    "complexes.CarrierReport.witnesses": ERROR,
    "complexes.QuotientComplex.cell_count": PERFBENCH,
    "complexes._check_squares": PERFBENCH,  # read only by betti_mod2
    "complexes.betti_mod2": PERFBENCH,
    "corpus._lam": CORPUS,
    "corpus._renamed": CORPUS,
    "corpus._square_poset": CORPUS,
    "corpus._square_triangulation": CORPUS,
    "corpus.annulus": CORPUS,
    "corpus.bigon": CORPUS,
    "corpus.bundled": CORPUS,
    "corpus.bundled_path": CORPUS,
    "corpus.cube": CORPUS,
    "corpus.cube.name": CORPUS,
    "corpus.cut_cube_edge": CORPUS,
    "corpus.cut_cube_vertex": CORPUS,
    "corpus.cut_triangle": CORPUS,
    "corpus.ncube": CORPUS,
    "corpus.segment": CORPUS,
    "corpus.square_klein": CORPUS,
    "corpus.square_torus": CORPUS,
    "corpus.triangle": CORPUS,
    "errors.InputError.__init__": ERROR,
    "gf2.Matrix.__str__": DUNDER,
    "gf2.Matrix.nrows": PERFBENCH,  # read by perfbench/tracer.py
    "gf2.Vec.__repr__": DUNDER,
    "gf2.Vec.support": ELIMINATION,
    "gf2.Vec.unit": CORPUS,
    "gkm._image": ELIMINATION,
    "gkm._pivot_rest": ELIMINATION,
    "gkm.eliminated_hilbert": ELIMINATION,
    "gkm.monomials": ELIMINATION,
    "instance.serialize_instance": PERFBENCH,
    "poset.FacePoset.__eq__": DUNDER,
    "poset.FacePoset.__repr__": DUNDER,
    "poset.FacePoset.top": PERFBENCH,
    "poset.kept": IMPORT,
    "poset.order_complex": PERFBENCH,
}


def package_functions():
    """Each named function and method of the package, by its dotted name,
    keyed as its code object reports it: (file, first line, name).
    Lambdas, comprehensions and class bodies are left out."""
    out = {}

    def walk(code, prefix):
        for c in code.co_consts:
            if isinstance(c, CodeType):
                name = prefix if c.co_name.startswith("<") else f"{prefix}.{c.co_name}"
                if name != prefix and c.co_flags & CO_NEWLOCALS:
                    out[(c.co_filename, c.co_firstlineno, c.co_name)] = name
                walk(c, name)

    for path in sorted(Path(z2torus.__file__).resolve().parent.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem)
    return out


def command_runs(tmp_path):
    """Every subcommand on the bundled files, the 5-cube and the
    barycentric 4-cube; two chained cuts of the 5-cube; and variants of
    fixed-locus and gkm."""
    cube5 = tmp_path / "cube5.json"
    save_instance(corpus.ncube(5), cube5)
    cube4 = corpus.ncube(4)
    bary4 = tmp_path / "bary4.json"
    save_instance(Instance("bary4", cube4.poset, cube4.lam, order_complex(cube4.poset)), bary4)
    files = [corpus.bundled_path(name) for name in corpus.BUNDLED] + [cube5, bary4]
    read_only = ["validate", "hvector", "betti", "formality", "gkm", "code", "report"]
    runs = [[cmd, str(f)] for f in files for cmd in read_only]
    for name in corpus.BUNDLED:
        inst = corpus.bundled(name)
        path = str(corpus.bundled_path(name))
        runs.append(["fixed-locus", path, "--g", "1" * inst.poset.n])
        cuttable = [f for f in inst.poset.faces() if inst.poset.codim(f) >= 2]
        if cuttable:
            out = str(tmp_path / "cut.json")
            runs.append(["blowup", path, "--face", cuttable[0], "--out", out])
    cut1, cut2 = tmp_path / "cut1.json", tmp_path / "cut2.json"
    runs += [
        ["blowup", str(cube5), "--face", "00000", "--out", str(cut1)],
        ["blowup", str(cut1), "--face", "11***", "--out", str(cut2)],
        ["report", str(cut2)],
        ["fixed-locus", str(cube5), "--g", "11111"],
        ["fixed-locus", str(cube5), "--g", "10000"],
        ["gkm", str(cut1), "--max-deg", "3"],
    ]
    return runs


# The stages each subcommand enters on the runs of `command_runs`: a
# command that starts to pay for a stage it does not print fails here.
STAGES = {
    "_lift": complexes._lift,  # the model
    "_reduce": complexes._reduce,  # a triangulation's chain, reduced within carriers
    "is_face_acyclic": complexes.is_face_acyclic,  # the gate
    "axial_function": charfunc.axial_function,
    "facet_code": codes.facet_code,
    "fixed_locus": model.fixed_locus,
}
MODEL = {"_lift", "_reduce", "is_face_acyclic"}
ENTERED_STAGES = {
    "validate": set(),
    "hvector": set(),
    "betti": MODEL,
    "formality": MODEL,
    "gkm": MODEL | {"axial_function"},
    "code": {"_reduce", "is_face_acyclic", "facet_code"},
    "report": MODEL | {"axial_function", "facet_code"},
    "fixed-locus": {"fixed_locus"},
    "blowup": set(),
}


def test_every_package_function_a_command_skips_is_pinned(tmp_path):
    runs = command_runs(tmp_path)
    assert {argv[0] for argv in runs} == set(cli.COMMANDS) == ENTERED_STAGES.keys()
    cli.build_parser.cache_clear()  # so the parser is built under the profiler
    entered = set()
    stages = {fn.__code__: name for name, fn in STAGES.items()}
    by_command = {cmd: set() for cmd in ENTERED_STAGES}
    before = sys.getprofile()
    for argv in runs:
        ran = set()

        def record(frame, event, arg):
            if event == "call":
                ran.add(frame.f_code)

        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(record)
            try:
                rc = cli.main(argv)
            finally:
                sys.setprofile(before)
        assert rc in (0, 1, 2), argv
        entered |= ran
        by_command[argv[0]] |= {stages[c] for c in ran if c in stages}
    assert by_command == ENTERED_STAGES
    seen = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in entered}
    functions = package_functions()
    never = {name for key, name in functions.items() if key not in seen}
    assert sorted(never - NEVER_ENTERED.keys()) == []  # move these to tests/
    assert sorted(NEVER_ENTERED.keys() - never) == []  # a command runs these now
