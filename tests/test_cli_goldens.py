"""Byte-identical CLI output of the polytope, matroid and chow commands
against goldens.

Each golden file maps a command line to its exit code, standard output and
standard error.  ``goldens/cli_polytope.json`` holds the polytope commands,
``goldens/cli_matroid.json`` the matroid and chow commands; an output longer
than ``DIGEST_OVER`` characters (the larger Chow presentations run to
megabytes) is held as the SHA-256 of its UTF-8 bytes.  Commands run from the
repository root, so ``--matrix`` paths are relative to it.  A change that
alters the outputs on purpose regenerates both files with

    PYTHONPATH=src python tests/test_cli_goldens.py

and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from spechtkit.cli import main
from spechtkit.combinatorics import partitions_of

ROOT = Path(__file__).parent.parent
GOLDENS = ROOT / "tests" / "goldens"
DIGEST_OVER = 65536

SHAPES = [",".join(map(str, p.parts)) for n in range(1, 6) for p in partitions_of(n)]

POLYTOPE = [
    ["polytope", action, "--lambda", lam, "--format", "json"]
    for lam in SHAPES
    for action in ("fvector", "dim", "faces", "lattice-points")
] + [["polytope", "root-check", "--k", str(k), "--format", "json"] for k in (3, 4, 5)]

# a loop, a parallel pair and a rank-3 frame, as a checked-in --matrix file
LOOP_PARALLEL = ["--matrix", "tests/goldens/matrix_loop_parallel.json"]

MATROID = [
    [family, action, *source, "--format", fmt]
    for source in [["--lambda", lam] for lam in SHAPES] + [LOOP_PARALLEL]
    for family, action, fmt in [
        ("matroid", "flats", "json"),
        ("matroid", "tutte", "json"),
        ("matroid", "charpoly", "json"),
        ("matroid", "bases", "json"),
        ("chow", "dims", "json"),
        ("chow", "presentation", "json"),
        ("chow", "presentation", "macaulay2-text"),
    ]
] + [
    ["matroid", "tutte", *LOOP_PARALLEL, "--strategy", strategy, "--format", "json"]
    for strategy in ("subsets", "flats")
]

FILES = {"cli_polytope.json": POLYTOPE, "cli_matroid.json": MATROID}
CASES = [(name, argv) for name, commands in FILES.items() for argv in commands]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    stdout = out.getvalue()
    if len(stdout) > DIGEST_OVER:
        stdout = "sha256:" + hashlib.sha256(stdout.encode()).hexdigest()
    return {"exit": code, "stdout": stdout, "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def goldens():
    return {name: json.loads((GOLDENS / name).read_text()) for name in FILES}


@pytest.mark.parametrize("name,argv", CASES, ids=[" ".join(argv) for _, argv in CASES])
def test_cli_output_matches_golden(name, argv, goldens, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run(argv) == goldens[name][" ".join(argv)]


def test_goldens_cover_exactly_the_commands(goldens):
    for name, commands in FILES.items():
        assert sorted(goldens[name]) == sorted(" ".join(argv) for argv in commands)


if __name__ == "__main__":
    os.chdir(ROOT)
    for name, commands in FILES.items():
        data = {" ".join(argv): run(argv) for argv in commands}
        (GOLDENS / name).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
