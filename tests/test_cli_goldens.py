"""Byte-identical CLI JSON output of the polytope commands against goldens.

The goldens in ``goldens/cli_polytope.json`` hold exit code, standard output
and standard error of every command in ``COMMANDS``.  A change that alters
them on purpose regenerates the file with

    PYTHONPATH=src python tests/test_cli_goldens.py

and says why in CHANGES.md.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from spechtkit.cli import main
from spechtkit.combinatorics import partitions_of

GOLDENS = Path(__file__).parent / "goldens" / "cli_polytope.json"

COMMANDS = [
    ["polytope", action, "--lambda", ",".join(map(str, p.parts)), "--format", "json"]
    for n in range(1, 6)
    for p in partitions_of(n)
    for action in ("fvector", "dim", "faces", "lattice-points")
] + [["polytope", "root-check", "--k", str(k), "--format", "json"] for k in (3, 4, 5)]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(argv, goldens):
    assert run(argv) == goldens[" ".join(argv)]


def test_goldens_cover_exactly_the_commands(goldens):
    assert sorted(goldens) == sorted(" ".join(argv) for argv in COMMANDS)


if __name__ == "__main__":
    GOLDENS.parent.mkdir(exist_ok=True)
    data = {" ".join(argv): run(argv) for argv in COMMANDS}
    GOLDENS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
