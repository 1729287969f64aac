"""Byte-identical CLI output of the specht-matrix, polytope, matroid, chow
and coeff commands against goldens.

Each golden file maps a command line to its exit code, standard output and
standard error.  ``goldens/cli_specht.json`` holds the pairing matrices in
every format, ``goldens/cli_polytope.json`` the polytope commands,
``goldens/cli_matroid.json`` the matroid and chow commands and
``goldens/cli_coeff.json`` the coefficient commands and
``goldens/cli_check.json`` the cyclic-orbit checks; an output longer than
``DIGEST_OVER`` characters (the larger Chow presentations run to megabytes)
is held as the SHA-256 of its UTF-8 bytes.  Commands run from the repository
root, so ``--matrix`` paths are relative to it.  An ``--emit-matrix`` file is
written into a temporary directory instead of the path on the command line,
and its record gains ``emitted``, the SHA-256 of the file's bytes.  A change
that alters the outputs on purpose regenerates the files with

    PYTHONPATH=src python tests/test_cli_goldens.py

and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from spechtkit.cli import main
from spechtkit.combinatorics import partitions_of
from test_coefficients import triples_up_to_4

ROOT = Path(__file__).parent.parent
GOLDENS = ROOT / "tests" / "goldens"
DIGEST_OVER = 65536

SHAPES = [",".join(map(str, p.parts)) for n in range(1, 6) for p in partitions_of(n)]

SPECHT = [
    ["specht-matrix", "--lambda", lam, "--format", fmt]
    for lam in SHAPES
    for fmt in ("text", "json", "csv")
]

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

EMIT = "--emit-matrix"

# the seven triples whose matrices the coeff benchmark workload emits
MATRIX_TRIPLES = [
    ("kronecker", ("2,1", "2,1", "2,1")),
    ("kronecker", ("2,2", "2,1,1", "3,1")),
    ("kronecker", ("3,1", "2,1,1", "2,1,1")),
    ("lr", ("2,1", "1", "3,1")),
    ("lr", ("2", "1,1", "3,1")),
    ("plethysm", ("2", "2", "2,2")),
    ("plethysm", ("2", "1,1", "3,1")),
]


def coeff_argv(kind, triple, *extra):
    lam, mu, nu = map(str, triple)
    return ["coeff", kind, "--lambda", lam, "--mu", mu, "--nu", nu, *extra, "--format", "json"]


COEFF = [
    coeff_argv(kind, triple)
    for kind in ("kronecker", "lr", "plethysm")
    for triple in triples_up_to_4(kind)
] + [coeff_argv(kind, triple, EMIT, "matrix.json") for kind, triple in MATRIX_TRIPLES]

# every hook size up to 8 with every valid k, and the n = 9 pair CI runs
CHECK = [
    ["check", "orbits", "--n", str(n), "--k", str(k), "--format", fmt]
    for n in range(2, 9)
    for k in range(n - 1)
    for fmt in ("text", "json")
] + [["check", "orbits", "--n", "9", "--k", str(k), "--format", "json"] for k in (3, 4)]

FILES = {
    "cli_specht.json": SPECHT,
    "cli_polytope.json": POLYTOPE,
    "cli_matroid.json": MATROID,
    "cli_coeff.json": COEFF,
    "cli_check.json": CHECK,
}
CASES = [(name, argv) for name, commands in FILES.items() for argv in commands]


def digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def run(argv):
    argv = list(argv)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        emitted = Path(tmp, "emitted.json")
        if EMIT in argv:
            argv[argv.index(EMIT) + 1] = str(emitted)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        stdout = out.getvalue()
        if len(stdout) > DIGEST_OVER:
            stdout = digest(stdout.encode())
        record = {"exit": code, "stdout": stdout, "stderr": err.getvalue()}
        if emitted.exists():
            record["emitted"] = digest(emitted.read_bytes())
    return record


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
