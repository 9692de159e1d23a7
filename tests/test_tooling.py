"""The pytest configuration itself: a failing test must not end the run;
and the package's export list."""

import ast
import subprocess
import sys
from pathlib import Path

import z2torus

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
