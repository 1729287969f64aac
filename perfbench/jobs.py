"""Job kinds: the program calls a job times, and the answer kept for checks.

``run(job, limits)`` performs the computation of one CLI invocation through
the public Python entry points, looking each one up on its module at call
time so that a traced pass sees its wrappers.  ``summarize(job, raw)`` turns
the raw result into a small JSON-ready answer; it runs outside the timed
region and uses only the benchmark's own code, so the raw result can be
dropped before the next job starts.
"""

from __future__ import annotations

from math import gcd

from spechtkit import chow, coefficients, conjectures, matroid, polytope, specht
from spechtkit.combinatorics import Partition
from workloads import exact_rank


def _partition(parts) -> Partition:
    return Partition(tuple(parts))


def _matroid(params, limits):
    """A fresh matroid per job, built the way the CLI builds one."""
    if "lam" in params:
        base = matroid.specht_matroid(_partition(params["lam"]))
        return matroid.LinearMatroid(base.labels, base.columns, limits)
    cols = params["columns"]
    return matroid.LinearMatroid(tuple(range(len(cols))), tuple(map(tuple, cols)), limits)


def _polytope(params, limits):
    if "lam" in params:
        cols = specht.specht_matrix(_partition(params["lam"]), limits).columns()
    else:
        cols = params["columns"]
    return polytope.polytope_from_columns(cols, limits)


def _triple(params):
    return tuple(_partition(p) for p in params["triple"])


def _specht_rank(p, limits):
    mat = specht.specht_matrix(_partition(p["lam"]), limits)
    return mat.shape, mat.rank()


def _on_matroid(method):
    def runner(p, limits):
        m = _matroid(p, limits)
        return m, method(m)

    return runner


def _on_polytope(method):
    def runner(p, limits):
        return method(_polytope(p, limits), limits)

    return runner


def _coefficient(name):
    def runner(p, limits):
        return getattr(coefficients, name)(*_triple(p), limits)

    return runner


def _coefficient_matrix(name):
    def runner(p, limits):
        mat = getattr(coefficients, name)(*_triple(p), limits)
        return mat.shape, mat.rank()

    return runner


RUNNERS = {
    "specht_rank": _specht_rank,
    "conjecture1": lambda p, limits: conjectures.check_conjecture1(
        p["n"], p["mode"], samples=p.get("samples", 200), seed=p.get("seed", 0), limits=limits
    ),
    "conjecture2": lambda p, limits: conjectures.check_conjecture2(p["n"], limits),
    "orbits": lambda p, limits: conjectures.cyclic_orbit_structures(p["n"], p["k"], limits),
    "flats": _on_matroid(lambda m: m.flats()),
    "chow_dims": _on_matroid(lambda m: chow.chow_graded_dimensions(m)),
    "chow_presentation": _on_matroid(lambda m: chow.chow_presentation(m)),
    "charpoly": _on_matroid(lambda m: m.characteristic_polynomial()),
    "tutte_subsets": _on_matroid(lambda m: m.tutte_polynomial("subsets")),
    "tutte_flats": _on_matroid(lambda m: m.tutte_polynomial("flats")),
    "fvector": _on_polytope(lambda poly, limits: (poly, poly.f_vector())),
    "origin": _on_polytope(lambda poly, limits: poly.contains_origin()),
    "lattice_points": _on_polytope(lambda poly, limits: poly.lattice_points(limits)),
    "root_check": lambda p, limits: polytope.root_polytope_structure_check(p["k"], limits),
    "kronecker": _coefficient("kronecker_coefficient"),
    "lr": _coefficient("lr_coefficient"),
    "plethysm": _coefficient("plethysm_coefficient"),
    "kronecker_matrix": _coefficient_matrix("kronecker_matrix"),
    "lr_matrix": _coefficient_matrix("lr_matrix"),
    "plethysm_matrix": _coefficient_matrix("plethysm_matrix"),
}


def run(job: dict, limits):
    return RUNNERS[job["kind"]](job["params"], limits)


# ---------------------------------------------------------------------------
# answers


def direction(col) -> tuple[int, ...] | None:
    """Primitive integer direction of a column; None for a zero column."""
    g = 0
    for x in col:
        g = gcd(g, x)
    if g == 0:
        return None
    lead = next(x for x in col if x)
    if lead < 0:
        g = -g
    return tuple(x // g for x in col)


def parallel_classes(columns) -> list[tuple[int, ...]]:
    """Element indices grouped by direction, loops left out, sorted."""
    classes: dict[tuple, list[int]] = {}
    for i, col in enumerate(columns):
        d = direction(col)
        if d is not None:
            classes.setdefault(d, []).append(i)
    return sorted(tuple(c) for c in classes.values())


def _matroid_facts(m) -> dict:
    classes = parallel_classes(m.columns)
    return {
        "size": m.size,
        "rank": exact_rank(m.columns),
        "classes": [list(c) for c in classes],
    }


def _flats_answer(m, flats) -> dict:
    index = {lab: i for i, lab in enumerate(m.labels)}
    dirs = [direction(c) for c in m.columns]
    atoms = sorted(
        sorted(index[x] for x in f)
        for f in flats
        if f and len({dirs[index[x]] for x in f}) == 1
    )
    return dict(
        _matroid_facts(m),
        count=len(flats),
        bottom_empty=not flats[0],
        top_full=len(flats[-1]) == m.size,
        atoms=atoms,
    )


def _presentation_answer(m, pres) -> dict:
    gens = list(pres.generators)
    incomparable = sum(
        1
        for i, a in enumerate(gens)
        for b in gens[i + 1:]
        if not (a <= b or b <= a)
    )
    return dict(
        _matroid_facts(m),
        generators=len(gens),
        quadratic=len(pres.quadratic_relations),
        linear=len(pres.linear_relations),
        incomparable_pairs=incomparable,
    )


def _poly1_list(poly: dict) -> list[int]:
    """Coefficients from the top degree down to the constant term."""
    top = max(poly) if poly else 0
    return [poly.get(k, 0) for k in range(top, -1, -1)]


def _multiset(orbit) -> dict[str, int]:
    return {str(k): v for k, v in sorted(orbit.multiset().items())}


def summarize(job: dict, raw) -> dict:
    kind = job["kind"]
    if kind == "specht_rank":
        shape, rank = raw
        return {"shape": list(shape), "rank": rank}
    if kind == "conjecture1":
        return {"passed": raw.passed, "pairs": raw.pairs_checked}
    if kind == "conjecture2":
        return {
            "passed": raw.passed,
            "chow_dims": list(raw.chow_dims),
            "excedance": list(raw.excedance_counts),
        }
    if kind == "orbits":
        return {"derangements": _multiset(raw[0]), "chain_basis": _multiset(raw[1])}
    if kind == "flats":
        return _flats_answer(*raw)
    if kind == "chow_dims":
        m, dims = raw
        return dict(_matroid_facts(m), dims=list(dims))
    if kind == "chow_presentation":
        return _presentation_answer(*raw)
    if kind == "charpoly":
        m, poly = raw
        return dict(_matroid_facts(m), coefficients=_poly1_list(poly))
    if kind in ("tutte_subsets", "tutte_flats"):
        m, poly = raw
        return dict(_matroid_facts(m), tutte=sorted([i, j, c] for (i, j), c in poly.items()))
    if kind == "fvector":
        poly, fvec = raw
        return {"f_vector": list(fvec), "dim": poly.dim, "points": len(poly.ambient_points)}
    if kind == "origin":
        return {"contains": bool(raw)}
    if kind == "root_check":
        return {
            "vertices": raw.n_vertices,
            "edges": raw.n_edges,
            "facets": raw.n_facets,
            "lattice_points": raw.n_lattice_points,
            "facet_grids_ok": raw.facet_grids_ok,
        }
    if kind == "lattice_points":
        return {"points": sorted(list(p) for p in raw)}
    if kind in ("kronecker", "lr", "plethysm"):
        return {"value": int(raw)}
    if kind.endswith("_matrix"):
        shape, rank = raw
        return {"shape": list(shape), "rank": int(rank)}
    raise ValueError(f"unknown job kind {kind!r}")
