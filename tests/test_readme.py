"""The `$ z2torus ...` examples in README.md, run on the bundled instances.

Each fenced block holding a `$ z2torus` line is one session: its commands
run in order in a fresh directory holding the bundled JSON files, and
each command's standard output must equal the lines printed under it in
the README, byte for byte.
"""

import re
import shlex
import shutil
from pathlib import Path

import pytest

from z2torus import corpus
from z2torus.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def sessions() -> list[list[tuple[str, str]]]:
    """Blocks of (command line, expected stdout) pairs."""
    found = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S):
        steps: list[tuple[str, str]] = []
        for line in block.splitlines(keepends=True):
            if line.startswith("$ z2torus "):
                steps.append((line[2:].strip(), ""))
            elif steps:
                steps[-1] = (steps[-1][0], steps[-1][1] + line)
        if steps:
            found.append(steps)
    return found


def test_readme_has_examples():
    assert len(sessions()) == 3


@pytest.mark.parametrize("steps", sessions(), ids=lambda steps: steps[0][0])
def test_readme_example(steps, tmp_path, monkeypatch, capsys):
    for name in corpus.BUNDLED:
        shutil.copy(corpus.bundled_path(name), tmp_path / f"{name}.json")
    monkeypatch.chdir(tmp_path)
    for command, expected in steps:
        main(shlex.split(command)[1:])
        assert capsys.readouterr().out == expected, command
