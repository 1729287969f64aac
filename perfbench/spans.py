"""Spans around the program's layer calls, recorded from outside the program.

A traced pass wraps the entry point of every layer (below, ``TARGETS``) and
records one span per call: name, start, end, parent span and job id.  Spans
stay in memory and are written out with the pass.  ``layer_metrics`` turns
them into the per-layer metrics; a layer's time is its self time, the span's
duration minus the spans nested in it, so a coefficient call does not count
the pairing builds it triggers.

Wrapping happens at layer boundaries only; splitting a layer further needs
spans inside the program.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from math import factorial, prod

from workloads import pairing_shape

# (module, attribute path, span name, info recorded from (args, result))
TARGETS = (
    ("spechtkit.specht", "specht_matrix", "specht.build",
     lambda args, out: [list(out.partition.parts), out.shape[0] * out.shape[1]]),
    ("spechtkit.specht", "SpechtMatrix.rank", "specht.rank", None),
    ("spechtkit.matroid", "LinearMatroid._flat_masks", "matroid.flats",
     lambda args, out: [args[0].size, len(out)]),
    ("spechtkit.matroid", "LinearMatroid.tutte_polynomial", "matroid.tutte", None),
    ("spechtkit.matroid", "LinearMatroid.characteristic_polynomial", "matroid.charpoly", None),
    ("spechtkit.chow", "chow_graded_dimensions", "chow.dims", lambda args, out: sum(out)),
    ("spechtkit.chow", "chow_presentation", "chow.presentation",
     lambda args, out: len(out.quadratic_relations) + len(out.linear_relations)),
    ("spechtkit.polytope", "polytope_from_columns", "polytope.hull",
     lambda args, out: [len(out.ambient_points), len(out.facets)]),
    ("spechtkit.polytope", "Polytope.f_vector", "polytope.fvector", lambda args, out: sum(out)),
    ("spechtkit.polytope", "Polytope.contains_point", "polytope.contains", None),
    ("spechtkit.polytope", "Polytope.lattice_points", "polytope.lattice",
     lambda args, out: len(out)),
    ("spechtkit.coefficients", "kronecker_coefficient", "coefficients.kronecker",
     lambda args, out: [list(p.parts) for p in args[:3]]),
    ("spechtkit.coefficients", "lr_coefficient", "coefficients.lr",
     lambda args, out: [list(p.parts) for p in args[:3]]),
    ("spechtkit.coefficients", "plethysm_coefficient", "coefficients.plethysm",
     lambda args, out: [list(p.parts) for p in args[:3]]),
    ("spechtkit.coefficients", "kronecker_matrix", "coefficients.kronecker_matrix",
     lambda args, out: [list(p.parts) for p in args[:3]]),
    ("spechtkit.coefficients", "lr_matrix", "coefficients.lr_matrix",
     lambda args, out: [list(p.parts) for p in args[:3]]),
    ("spechtkit.coefficients", "plethysm_matrix", "coefficients.plethysm_matrix",
     lambda args, out: [list(p.parts) for p in args[:3]]),
    ("spechtkit.coefficients", "LabeledCoefficientMatrix.rank", "coefficients.matrix_rank", None),
    ("spechtkit.conjectures", "check_conjecture1", "conjectures.check1",
     lambda args, out: out.pairs_checked),
    ("spechtkit.conjectures", "check_conjecture2", "conjectures.check2", None),
    ("spechtkit.conjectures", "cyclic_orbit_structures", "conjectures.orbits", None),
)

# span record fields
NAME, START, END, PARENT, JOB, INFO = range(6)
_ABSENT = object()


class Recorder:
    """In-memory span store; ``job`` is the id of the job being run."""

    def __init__(self):
        self.spans: list[list] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.missing: list[str] = []

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, out)
            return out

        return traced

    def run_job(self, job_id: int, fn):
        """Run *fn* inside a root span for one job."""
        self.job = job_id
        try:
            return self.wrap("job", fn)()
        finally:
            self.job = None

    def install(self) -> None:
        """Wrap every target on its class, or wherever a module bound it."""
        for module_name, path, name, info in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapped = self.wrap(name, original, info)
            if owner_name:
                self._patch(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "spechtkit" and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics


def _coefficient_size(kind: str, triple) -> tuple[int, int]:
    """(product of factor column counts, group order) of one coefficient call."""
    lam, mu, nu = triple
    cols = [pairing_shape(p)[1] for p in triple]
    l, m = sum(lam), sum(mu)
    if kind == "kronecker":
        return prod(cols), factorial(l)
    if kind == "lr":
        return prod(cols), factorial(l) * factorial(m)
    return cols[0] ** m * cols[1] * cols[2], factorial(l) ** m * factorial(m)


UNITS = {
    "specht.build_s": "s", "specht.cells": "count", "specht.us_per_cell": "us",
    "specht.calls": "count", "specht.repeat_calls": "count", "specht.rank_s": "s",
    "matroid.flats_s": "s", "matroid.flats": "count", "matroid.flats_per_s": "1/s",
    "matroid.ground": "count", "matroid.tutte_s": "s", "matroid.charpoly_s": "s",
    "chow.dims_s": "s", "chow.monomials": "count", "chow.presentation_s": "s",
    "chow.relations": "count",
    "polytope.hull_s": "s", "polytope.points": "count", "polytope.facets": "count",
    "polytope.fvector_s": "s", "polytope.faces": "count", "polytope.contains_s": "s",
    "polytope.box_points": "count", "polytope.lattice_hit_ratio": "ratio",
    "coefficients.kronecker_s": "s", "coefficients.lr_s": "s", "coefficients.plethysm_s": "s",
    "coefficients.matrix_s": "s", "coefficients.calls": "count",
    "coefficients.tensor_cols": "count", "coefficients.group_order": "count",
    "conjectures.check1_s": "s", "conjectures.check2_s": "s", "conjectures.pairs": "count",
    "trace.overhead_frac": "ratio",
}

_SELF_TIME = {
    "specht.build": "specht.build_s",
    "specht.rank": "specht.rank_s",
    "matroid.flats": "matroid.flats_s",
    "matroid.tutte": "matroid.tutte_s",
    "matroid.charpoly": "matroid.charpoly_s",
    "chow.dims": "chow.dims_s",
    "chow.presentation": "chow.presentation_s",
    "polytope.hull": "polytope.hull_s",
    "polytope.fvector": "polytope.fvector_s",
    "polytope.contains": "polytope.contains_s",
    "coefficients.kronecker": "coefficients.kronecker_s",
    "coefficients.lr": "coefficients.lr_s",
    "coefficients.plethysm": "coefficients.plethysm_s",
    "coefficients.kronecker_matrix": "coefficients.matrix_s",
    "coefficients.lr_matrix": "coefficients.matrix_s",
    "coefficients.plethysm_matrix": "coefficients.matrix_s",
    "coefficients.matrix_rank": "coefficients.matrix_s",
    "conjectures.check1": "conjectures.check1_s",
    "conjectures.check2": "conjectures.check2_s",
}


def pass_layer_metrics(spans: list[list], factors: dict[int, float]) -> dict[str, float]:
    """Per-layer totals of one traced pass; times scaled by their job's factor."""
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_ns[rec[PARENT]] += rec[END] - rec[START]
    out = dict.fromkeys(UNITS, 0.0)
    seen_partitions: set[tuple] = set()
    for i, rec in enumerate(spans):
        name, info = rec[NAME], rec[INFO]
        key = _SELF_TIME.get(name)
        if key is not None:
            out[key] += (rec[END] - rec[START] - child_ns[i]) * factors[rec[JOB]] / 1e9
        if name == "specht.build":
            out["specht.calls"] += 1
            parts = tuple(info[0])
            if parts in seen_partitions:
                out["specht.repeat_calls"] += 1
            else:
                seen_partitions.add(parts)
                out["specht.cells"] += info[1]
        elif name == "matroid.flats":
            out["matroid.ground"] += info[0]
            out["matroid.flats"] += info[1]
        elif name == "chow.dims":
            out["chow.monomials"] += info
        elif name == "chow.presentation":
            out["chow.relations"] += info
        elif name == "polytope.hull":
            out["polytope.points"] += info[0]
            out["polytope.facets"] += info[1]
        elif name == "polytope.fvector":
            out["polytope.faces"] += info
        elif name == "polytope.contains":
            if rec[PARENT] >= 0 and spans[rec[PARENT]][NAME] == "polytope.lattice":
                out["polytope.box_points"] += 1
        elif name == "polytope.lattice":
            out["polytope.lattice_hit_ratio"] += info  # points found; divided below
        elif name.startswith("coefficients.") and name != "coefficients.matrix_rank":
            kind = name.split(".")[1].replace("_matrix", "")
            cols, order = _coefficient_size(kind, info)
            out["coefficients.calls"] += 1
            out["coefficients.tensor_cols"] += cols
            out["coefficients.group_order"] += order
        elif name == "conjectures.check1":
            out["conjectures.pairs"] += info
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(passes, factors, traced_s: list[float], plain_s: list[float]):
    """Per-layer metrics: medians over traced passes of each pass's totals.

    *factors* maps, per traced pass, job id to the job's speed factor;
    *traced_s* and *plain_s* are the scaled job-time totals of the traced
    and untraced passes.
    """
    per_pass = [pass_layer_metrics(s, f) for s, f in zip(passes, factors)]
    out = {k: statistics.median(p[k] for p in per_pass) for k in UNITS}
    out["specht.us_per_cell"] = _ratio(out["specht.build_s"] * 1e6, out["specht.cells"])
    out["matroid.flats_per_s"] = _ratio(out["matroid.flats"], out["matroid.flats_s"])
    out["polytope.lattice_hit_ratio"] = _ratio(
        out["polytope.lattice_hit_ratio"], out["polytope.box_points"]
    )
    out["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1
    return out
