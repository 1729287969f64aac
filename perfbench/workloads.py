"""The four workloads as plain-data job plans.

A plan is a list of jobs in a fixed order.  Each job names a kind (see
``jobs.py``), its parameters, the argv that reproduces it, the guard
overrides it runs with, and the input group it shares with other jobs.
Random inputs are drawn from ``random.Random`` seeded by the workload seed,
so one seed always gives the same plan; only the values change with the
seed, never the sizes or the job order, so the work per pass stays level.

This module uses the standard library only: the parent process builds and
hashes the plan without importing the program.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import factorial, prod

WORKLOADS = ("pairing", "lattice", "hull", "coeff")

# Pass sizes: each workload's plan takes 3 to 5 s here, so a run repeats it
# in several fresh processes and reports per-job medians.

# lattice and hull: Specht shapes with n <= 3 finish in microseconds and would
# only pull the median job down to interpreter overhead.
SHAPE_SIZES = (4, 5)

# pairing: every shape up to n = 6, and three n = 7 shapes with a square-ish,
# a tall and a single-column matrix (the hook is the one conjecture 2 uses
# at n = 7).  All fifteen n = 7 shapes take about 13 s.
PAIRING_N7 = ((4, 2, 1), (2, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1))

# lattice: random column configurations as (|E|, rank), entries drawn from
# a wide range so they sit in general position (few or no parallel columns,
# flat counts nearly fixed).  The subset-sum Tutte path costs 2^|E| ranks.
MATRIX_SHAPES = ((12, 4), (14, 4), (13, 5))
MATRIX_ENTRY_RANGE = 9

# lattice: the three flat-heavy n = 5 shapes take 1 to 2.5 s per job, since
# every job kind re-closes the same flats; (3,1,1), the one with the most
# flats, runs its flats job only.  Its characteristic polynomial alone takes
# the 2^20 subset path (about a minute).
HEAVY_SHAPE_KINDS = {(4, 1): (), (3, 2): (), (3, 1, 1): ("flats",)}
MATROID_KINDS = ("flats", "chow_dims", "chow_presentation", "charpoly")

# hull: random point sets as (points, dimension), coordinates in a box.
POINT_SET_SHAPES = ((14, 5), (16, 5), (14, 6))
POINT_RANGE = 4

# hull: the hull of (3,1,1) tries C(20, 6) point subsets (about 2 s); it is
# built once, for its f-vector, not again for origin membership.
ORIGIN_SKIP = ((3, 1, 1),)

# hull: lattice-point polytopes as (shape, dimension, scale).  Each is a
# unimodular image of a cube or simplex, so its lattice-point count is known
# in closed form and its bounding box has a size fixed by the shape alone.
LATTICE_BODIES = (("cube", 3, 3), ("cube", 4, 2), ("simplex", 4, 4))

# coeff: one in KRONECKER_N5_STRIDE of the 84 sorted n = 5 Kronecker triples,
# and two of the 242 plethysm triples that use S_6 (l*m = 6 with a single
# slot or a single row; up to 2 s each).  All other triples run in full.
KRONECKER_N5_STRIDE = 8
PLETHYSM_S6 = (
    ((1,), (2, 2, 1, 1), (3, 1, 1, 1)),
    ((3, 1, 1, 1), (1,), (5, 1)),
)


def partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n, largest first part first (reverse lexicographic)."""
    out: list[tuple[int, ...]] = []

    def gen(remaining: int, maxpart: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(maxpart, remaining), 0, -1):
            prefix.append(part)
            gen(remaining - part, part, prefix)
            prefix.pop()

    gen(n, n, [])
    return out


def text(parts) -> str:
    return ",".join(map(str, parts))


def _arrangements(counts) -> int:
    """Number of distinct words with the given letter multiplicities."""
    return factorial(sum(counts)) // prod(factorial(c) for c in counts)


def pairing_shape(parts) -> tuple[int, int]:
    """Rows and columns of the pairing matrix of a partition: arrangements
    of its row word (letter i once per box of row i) and of its column word
    (letter j once per box of column j)."""
    conjugate = [sum(1 for x in parts if x > j) for j in range(parts[0])]
    return _arrangements(parts), _arrangements(conjugate)


def exact_rank(vectors) -> int:
    """Rank over Q by Fraction elimination, independent of the program."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class _Plan:
    def __init__(self):
        self.jobs: list[dict] = []

    def add(self, kind: str, params: dict, argv: list[str], group: str | None = None):
        self.jobs.append(
            {
                "id": len(self.jobs),
                "kind": kind,
                "params": params,
                "argv": argv,
                "limits": {},  # guard overrides: every job runs at the defaults
                "group": group,
            }
        )


def _api_argv(snippet: str) -> list[str]:
    """argv for a computation that no CLI subcommand performs."""
    return ["python3", "-c", "from spechtkit import *; " + snippet]


def _matrix_file(group: str) -> str:
    return f"{group}.json"


def _pairing(plan: _Plan, rng: random.Random) -> None:
    for p in [q for n in range(1, 7) for q in partitions(n)] + list(PAIRING_N7):
        plan.add(
            "specht_rank",
            {"lam": list(p)},
            _api_argv(f"m = specht_matrix(Partition({p!r})); print(m.shape, m.rank())"),
        )
    for n in (2, 3, 4):
        plan.add(
            "conjecture1",
            {"n": n, "mode": "full"},
            ["spechtkit", "check", "conjecture1", "--n", str(n)],
        )
    sample_seed = rng.randrange(2**31)
    plan.add(
        "conjecture1",
        {"n": 5, "mode": "sampled", "samples": 200, "seed": sample_seed},
        ["spechtkit", "check", "conjecture1", "--n", "5", "--mode", "sampled",
         "--samples", "200", "--seed", str(sample_seed)],
    )
    for n in range(2, 8):
        plan.add("conjecture2", {"n": n}, ["spechtkit", "check", "conjecture2", "--n", str(n)])
    plan.add("orbits", {"n": 6, "k": 2}, ["spechtkit", "check", "orbits", "--n", "6", "--k", "2"])


def random_configuration(rng: random.Random, size: int, rank: int) -> list[list[int]]:
    """Columns of a rank-`rank` integer matrix with no zero column."""
    while True:
        cols = [
            [rng.randint(-MATRIX_ENTRY_RANGE, MATRIX_ENTRY_RANGE) for _ in range(rank)]
            for _ in range(size)
        ]
        if all(any(c) for c in cols) and exact_rank(cols) == rank:
            return cols


def _lattice(plan: _Plan, rng: random.Random) -> None:
    cli = {
        "flats": ["matroid", "flats"],
        "chow_dims": ["chow", "dims"],
        "chow_presentation": ["chow", "presentation"],
        "charpoly": ["matroid", "charpoly"],
    }
    for n in SHAPE_SIZES:
        for p in partitions(n):
            kinds = HEAVY_SHAPE_KINDS.get(p, MATROID_KINDS)
            for kind in kinds:
                plan.add(
                    kind,
                    {"lam": list(p)},
                    ["spechtkit", *cli[kind], "--lambda", text(p)],
                    group=f"shape-{text(p)}",
                )
    for i, (size, rank) in enumerate(MATRIX_SHAPES):
        cols = random_configuration(rng, size, rank)
        group = f"config-{i}"
        matrix = ["--matrix", _matrix_file(group)]
        plan.add("tutte_subsets", {"columns": cols},
                 ["spechtkit", "matroid", "tutte", "--strategy", "subsets", *matrix], group)
        plan.add("tutte_flats", {"columns": cols},
                 ["spechtkit", "matroid", "tutte", "--strategy", "flats", *matrix], group)
        plan.add("flats", {"columns": cols}, ["spechtkit", *cli["flats"], *matrix], group)
        plan.add("chow_dims", {"columns": cols}, ["spechtkit", *cli["chow_dims"], *matrix], group)


def random_point_set(rng: random.Random, count: int, dim: int) -> list[list[int]]:
    """Distinct integer points whose affine hull has dimension `dim`."""
    while True:
        pts = {
            tuple(rng.randint(-POINT_RANGE, POINT_RANGE) for _ in range(dim))
            for _ in range(count)
        }
        if len(pts) < count:
            continue
        pts = sorted(pts)
        base = pts[0]
        if exact_rank([[a - b for a, b in zip(p, base)] for p in pts[1:]]) == dim:
            rng.shuffle(pts)
            return [list(p) for p in pts]


def lattice_body(rng: random.Random, shape: str, dim: int, scale: int):
    """Vertices of a seeded unimodular image of a cube or simplex.

    Returns (vertices, lattice point count).  The map adds coordinate j to
    coordinate i once, then permutes, negates and translates coordinates;
    all of these preserve the lattice-point count, and the bounding box has
    the same size whatever the seed picks.
    """
    if shape == "cube":
        verts = [list(v) for v in itertools.product((0, scale), repeat=dim)]
        count = (scale + 1) ** dim
    else:
        verts = [[0] * dim] + [[scale * (i == j) for j in range(dim)] for i in range(dim)]
        count = factorial(scale + dim) // (factorial(scale) * factorial(dim))
    i, j = rng.sample(range(dim), 2)
    for v in verts:
        v[i] += v[j]
    perm = list(range(dim))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(dim)]
    shift = [rng.randint(-3, 3) for _ in range(dim)]
    return [[signs[k] * v[perm[k]] + shift[k] for k in range(dim)] for v in verts], count


def _hull(plan: _Plan, rng: random.Random) -> None:
    for n in SHAPE_SIZES:
        for p in partitions(n):
            group = f"shape-{text(p)}"
            plan.add("fvector", {"lam": list(p)},
                     ["spechtkit", "polytope", "fvector", "--lambda", text(p)], group)
            if p in ORIGIN_SKIP:
                continue
            plan.add(
                "origin",
                {"lam": list(p)},
                _api_argv(
                    f"print(polytope_from_columns(specht_matrix(Partition({p!r}))"
                    ".columns()).contains_origin())"
                ),
                group,
            )
    for i, (count, dim) in enumerate(POINT_SET_SHAPES):
        group = f"points-{i}"
        pts = random_point_set(rng, count, dim)
        plan.add("fvector", {"columns": pts},
                 ["spechtkit", "polytope", "fvector", "--matrix", _matrix_file(group)], group)
    for k in (3, 4, 5):
        plan.add("root_check", {"k": k}, ["spechtkit", "polytope", "root-check", "--k", str(k)])
    for i, (shape, dim, scale) in enumerate(LATTICE_BODIES):
        group = f"body-{i}"
        verts, count = lattice_body(rng, shape, dim, scale)
        plan.add(
            "lattice_points",
            {"columns": verts, "expected_count": count},
            ["spechtkit", "polytope", "lattice-points", "--matrix", _matrix_file(group)],
            group,
        )


def _coefficient_argv(kind: str, triple, emit: bool = False) -> list[str]:
    lam, mu, nu = (text(p) for p in triple)
    argv = ["spechtkit", "coeff", kind, "--lambda", lam, "--mu", mu, "--nu", nu]
    return argv + ["--emit-matrix", "matrix.json"] if emit else argv


MATRIX_TRIPLES = (
    ("kronecker", ((2, 1), (2, 1), (2, 1))),
    ("kronecker", ((2, 2), (2, 1, 1), (3, 1))),
    ("kronecker", ((3, 1), (2, 1, 1), (2, 1, 1))),
    ("lr", ((2, 1), (1,), (3, 1))),
    ("lr", ((2,), (1, 1), (3, 1))),
    ("plethysm", ((2,), (2,), (2, 2))),
    ("plethysm", ((2,), (1, 1), (3, 1))),
)


def _coeff(plan: _Plan, rng: random.Random) -> None:
    def add(kind, triple):
        plan.add(kind, {"triple": [list(p) for p in triple]}, _coefficient_argv(kind, triple))

    for n in range(1, 5):
        for triple in itertools.combinations_with_replacement(partitions(n), 3):
            add("kronecker", triple)
    for l in range(1, 5):
        for m in range(1, 6 - l):
            for triple in itertools.product(partitions(l), partitions(m), partitions(l + m)):
                add("lr", triple)
    for l in range(1, 7):
        for m in range(1, 7):
            if l * m > 6 or (l * m == 6 and 1 in (l, m)):
                continue
            for triple in itertools.product(partitions(l), partitions(m), partitions(l * m)):
                add("plethysm", triple)
    for kind, triple in MATRIX_TRIPLES:
        plan.add(
            kind + "_matrix",
            {"triple": [list(p) for p in triple]},
            _coefficient_argv(kind, triple, emit=True),
        )
    n5 = list(itertools.combinations_with_replacement(partitions(5), 3))
    for triple in n5[::KRONECKER_N5_STRIDE]:
        add("kronecker", triple)
    for triple in PLETHYSM_S6:
        add("plethysm", triple)


_PLANS = {"pairing": _pairing, "lattice": _lattice, "hull": _hull, "coeff": _coeff}


def build_plan(workload: str, seed: int) -> dict:
    """The job plan of *workload* for *seed*, as JSON-ready data."""
    plan = _Plan()
    _PLANS[workload](plan, random.Random(f"{workload}:{seed}"))
    return {"workload": workload, "seed": seed, "jobs": plan.jobs}


def smoke_plan(workload: str, seed: int) -> dict:
    """One job of every kind: the first of each kind in the full plan."""
    full = build_plan(workload, seed)
    seen: set[str] = set()
    jobs = []
    for job in full["jobs"]:
        if job["kind"] not in seen:
            seen.add(job["kind"])
            jobs.append(dict(job, id=len(jobs)))
    return dict(full, jobs=jobs)


def inputs_hash(plan: dict) -> str:
    """sha256 of the canonical JSON of the plan: inputs, argv and guards."""
    blob = json.dumps(plan["jobs"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def matrix_file_payload(columns) -> dict:
    """The ``--matrix`` file that reproduces a job given by columns."""
    return {"entries": [list(row) for row in zip(*columns)]}


_CALIBRATION_RNG = random.Random(1)
_CALIBRATION_ROWS = [[_CALIBRATION_RNG.randint(-5, 5) for _ in range(9)] for _ in range(9)]


def calibration_kernel() -> int:
    """Fixed exact-arithmetic work that gauges the machine's current speed.

    It runs no program code, so a change to the program cannot change its
    time; see ``run.py`` for how the time is used.
    """
    return exact_rank(_CALIBRATION_ROWS)
