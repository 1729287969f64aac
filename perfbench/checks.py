"""Reference checks on a pass's answers, run after its timed region.

Every job's answer is compared with a value the benchmark obtains without
the code path under test: the character-theoretic oracles for coefficients,
the hook-length dimension for pairing ranks, goldens copied from the
acceptance tests, closed forms, and identities that hold for any input
(T(2,2) = 2^|E|, the Euler relation, palindromic Chow dimensions, the two
Tutte strategies agreeing).  Where two jobs of a pass share an input group,
their answers are also checked against each other.
"""

from __future__ import annotations

import itertools
import json
import os
from math import factorial, prod

from workloads import pairing_shape, text

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")) as fh:
    GOLDENS = json.load(fh)


def oracle_value(kind: str, triple) -> int:
    """Coefficient from spechtkit.oracles, which share no code with the engine."""
    from spechtkit import oracles
    from spechtkit.combinatorics import Partition

    lam, mu, nu = (Partition(tuple(p)) for p in triple)
    fn = {
        "kronecker": oracles.kronecker_oracle,
        "lr": oracles.lr_oracle,
        "plethysm": oracles.plethysm_oracle,
    }[kind]
    return fn(lam, mu, nu)


def hook_dimension(parts) -> int:
    from spechtkit.combinatorics import Partition

    return Partition(tuple(parts)).dimension()


def derangement_excedances(n: int) -> list[int]:
    """counts[k] = derangements of 1..n with k + 1 excedances."""
    counts: dict[int, int] = {}
    for g in itertools.permutations(range(n)):
        if any(g[i] == i for i in range(n)):
            continue
        exc = sum(1 for i in range(n) if g[i] > i)
        counts[exc - 1] = counts.get(exc - 1, 0) + 1
    return [counts.get(k, 0) for k in range(max(counts) + 1)] if counts else []


def _golden(table: str, params):
    if "lam" not in params:
        return None
    return GOLDENS[table].get(text(params["lam"]))


def _second(dims) -> int:
    """Degree-1 Chow dimension: the flats of rank at least 2."""
    return dims[1] if len(dims) > 1 else 0


class PassContext:
    """Answers of one pass, indexed for checks that compare jobs."""

    def __init__(self, jobs: list[dict], answers: dict[int, dict]):
        self.by_group: dict[tuple, dict] = {}
        self.coefficients: dict[tuple, int] = {}
        for job in jobs:
            answer = answers.get(job["id"])
            if answer is None:
                continue
            if job["group"] is not None:
                self.by_group[(job["group"], job["kind"])] = answer
            if job["kind"] in ("kronecker", "lr", "plethysm"):
                key = (job["kind"], json.dumps(job["params"]["triple"]))
                self.coefficients[key] = answer["value"]

    def sibling(self, job: dict, kind: str):
        return self.by_group.get((job["group"], kind))


def _specht_rank(job, a, ctx):
    lam = job["params"]["lam"]
    yield "rank", a["rank"], hook_dimension(lam)
    yield "shape", a["shape"], list(pairing_shape(lam))


def _conjecture1(job, a, ctx):
    p = job["params"]
    yield "passed", a["passed"], True
    want = factorial(p["n"]) ** 2 if p["mode"] == "full" else p["samples"]
    yield "pairs", a["pairs"], want


def _conjecture2(job, a, ctx):
    n = job["params"]["n"]
    table = derangement_excedances(n)
    yield "passed", a["passed"], True
    yield "chow_dims", a["chow_dims"], table
    yield "excedance", a["excedance"], table
    golden = GOLDENS["hook_chow_dims"].get(str(n))
    if golden is not None:
        yield "hook_golden", a["chow_dims"], golden


def _orbits(job, a, ctx):
    yield "derangements", a["derangements"], GOLDENS["orbits_6_2"]
    yield "chain_basis", a["chain_basis"], GOLDENS["orbits_6_2"]


def _rank_two_flats(job, ctx):
    """Count of flats of rank >= 2 from a golden, else from the Chow sibling."""
    golden = _golden("chow_dims", job["params"])
    if golden is not None:
        return _second(golden)
    dims = ctx.sibling(job, "chow_dims")
    return None if dims is None else _second(dims["dims"])


def _flats(job, a, ctx):
    yield "bottom_empty", a["bottom_empty"], True
    yield "top_full", a["top_full"], True
    yield "atoms", a["atoms"], a["classes"]
    upper = _rank_two_flats(job, ctx)
    if upper is not None:
        yield "count", a["count"], 1 + len(a["classes"]) + upper


def _chow_dims(job, a, ctx):
    dims = a["dims"]
    yield "degree0", dims[0], 1
    yield "palindromic", dims, dims[::-1]
    yield "length", len(dims), max(a["rank"], 1)
    golden = _golden("chow_dims", job["params"])
    if golden is not None:
        yield "golden", dims, golden
    flats = ctx.sibling(job, "flats")
    if flats is not None:
        yield "flats_rank2", _second(dims), flats["count"] - 1 - len(flats["classes"])


def _chow_presentation(job, a, ctx):
    classes = a["classes"]
    yield "quadratic", a["quadratic"], a["incomparable_pairs"]
    if classes:
        first = min(min(c) for c in classes)
        own = next(len(c) for c in classes if first in c)
        yield "linear", a["linear"], sum(len(c) for c in classes) - own
    upper = _rank_two_flats(job, ctx)
    if upper is not None:
        yield "generators", a["generators"], len(classes) + upper - 1


def _charpoly(job, a, ctx):
    coeffs = a["coefficients"]
    yield "degree", len(coeffs) - 1, a["rank"]
    yield "leading", coeffs[0], 1
    if sum(len(c) for c in a["classes"]) == a["size"]:  # loopless
        yield "chi(1)", sum(coeffs), 0
        yield "atoms", coeffs[1], -len(a["classes"])
    golden = _golden("charpoly", job["params"])
    if golden is not None:
        yield "golden", coeffs, golden


def _tutte(job, a, ctx):
    t22 = sum(c * 2 ** (i + j) for i, j, c in a["tutte"])
    yield "T(2,2)", t22, 2 ** a["size"]
    if job["kind"] == "tutte_flats":
        other = ctx.sibling(job, "tutte_subsets")
        if other is not None:
            yield "strategies_agree", a["tutte"], other["tutte"]


def _fvector(job, a, ctx):
    f = a["f_vector"]
    yield "euler", sum((-1) ** i * c for i, c in enumerate(f)), 0
    yield "ends", [f[0], f[-1]], [1, 1]
    yield "length", len(f), a["dim"] + 2
    golden = _golden("f_vector", job["params"])
    if golden is not None:
        yield "golden", f, golden
    if "columns" in job["params"]:
        yield "dim", a["dim"], len(job["params"]["columns"][0])


def _origin(job, a, ctx):
    lam = job["params"]["lam"]
    yield "contains", a["contains"], any(x != 1 for x in lam)


def _root_check(job, a, ctx):
    k = job["params"]["k"]
    yield "vertices", a["vertices"], k * (k - 1)
    yield "edges", a["edges"], (k - 2) * (k - 1) * k
    yield "facets", a["facets"], 2**k - 2
    yield "lattice_points", a["lattice_points"], k * (k - 1) + 1
    yield "facet_grids", a["facet_grids_ok"], True


def _lattice_points(job, a, ctx):
    p = job["params"]
    pts = a["points"]
    verts = p["columns"]
    yield "count", len(pts), p["expected_count"]
    yield "distinct", len({tuple(x) for x in pts}), len(pts)
    yield "vertices_found", all(v in pts for v in verts), True
    in_box = all(
        min(v[k] for v in verts) <= x[k] <= max(v[k] for v in verts)
        for x in pts
        for k in range(len(verts[0]))
    )
    yield "in_box", in_box, True


def _coefficient(job, a, ctx):
    yield "oracle", a["value"], oracle_value(job["kind"], job["params"]["triple"])


def _coefficient_matrix(job, a, ctx):
    kind = job["kind"][: -len("_matrix")]
    triple = job["params"]["triple"]
    yield "oracle", a["rank"], oracle_value(kind, triple)
    value = ctx.coefficients.get((kind, json.dumps(triple)))
    if value is not None:
        yield "coefficient", a["rank"], value
    shapes = [pairing_shape(p) for p in triple]
    if kind == "plethysm":
        shapes[0] = tuple(x ** sum(triple[1]) for x in shapes[0])
    yield "shape", a["shape"], [prod(s[0] for s in shapes), prod(s[1] for s in shapes)]


CHECKS = {
    "specht_rank": _specht_rank,
    "conjecture1": _conjecture1,
    "conjecture2": _conjecture2,
    "orbits": _orbits,
    "flats": _flats,
    "chow_dims": _chow_dims,
    "chow_presentation": _chow_presentation,
    "charpoly": _charpoly,
    "tutte_subsets": _tutte,
    "tutte_flats": _tutte,
    "fvector": _fvector,
    "origin": _origin,
    "root_check": _root_check,
    "lattice_points": _lattice_points,
    "kronecker": _coefficient,
    "lr": _coefficient,
    "plethysm": _coefficient,
    "kronecker_matrix": _coefficient_matrix,
    "lr_matrix": _coefficient_matrix,
    "plethysm_matrix": _coefficient_matrix,
}


def check_pass(jobs: list[dict], answers: dict[int, dict]) -> dict[int, list[str]]:
    """Mismatches per job id; an empty list means the answer is correct."""
    ctx = PassContext(jobs, answers)
    problems: dict[int, list[str]] = {}
    for job in jobs:
        answer = answers.get(job["id"])
        if answer is None:
            continue
        try:
            problems[job["id"]] = [
                f"{label}: got {got!r}, want {want!r}"
                for label, got, want in CHECKS[job["kind"]](job, answer, ctx)
                if got != want
            ]
        except Exception as exc:  # a malformed answer is a failed job
            problems[job["id"]] = [f"check raised {exc!r}"]
    return problems
