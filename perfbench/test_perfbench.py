"""Self-tests of the benchmark.

Run from the root of a checkout:  python3 -m pytest perfbench -q
(about ten seconds; the repository's own test suite does not collect them).
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args], capture_output=True, text=True, cwd=cwd, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_checks_every_job_kind_and_prints_the_declared_metrics(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_plan_has_one_job_of_every_kind(workload):
    full = {j["kind"] for j in workloads.build_plan(workload, 3)["jobs"]}
    smoke = [j["kind"] for j in workloads.smoke_plan(workload, 3)["jobs"]]
    assert sorted(smoke) == sorted(full)


def test_workload_names_match_the_benchmark_file():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_the_same_inputs(workload):
    a = workloads.inputs_hash(workloads.build_plan(workload, 5))
    assert a == workloads.inputs_hash(workloads.build_plan(workload, 5))
    if workload != "coeff":  # the coefficient triples are fixed, not drawn
        assert a != workloads.inputs_hash(workloads.build_plan(workload, 6))


def _run_pass(tmp_path, workload, edit_plan=lambda plan: None):
    plan = workloads.smoke_plan(workload, 3)
    edit_plan(plan)
    plan_path, out_path = tmp_path / "plan.json", tmp_path / "pass.json"
    plan_path.write_text(json.dumps(plan))
    assert worker.main([str(plan_path), str(out_path)]) == 0
    attempted, failed = run.outcomes([json.loads(out_path.read_text())])
    return plan["jobs"], attempted, failed


def _plus_one(fn):
    return lambda *args: fn(*args) + 1


def _bumped_goldens():
    tampered = copy.deepcopy(checks.GOLDENS)
    for table in ("charpoly", "chow_dims", "hook_chow_dims", "f_vector"):
        for values in tampered[table].values():
            values[-1] += 1
    tampered["orbits_6_2"]["1"] += 1
    return tampered


def _bump_expected_counts(plan):
    """Tamper the closed-form lattice-point counts that the plan records."""
    for job in plan["jobs"]:
        if "expected_count" in job["params"]:
            job["params"]["expected_count"] += 1


TAMPERED = {
    "pairing": [("hook_dimension", _plus_one(checks.hook_dimension)), ("GOLDENS", _bumped_goldens())],
    "lattice": [("GOLDENS", _bumped_goldens())],
    "hull": [],  # its smoke jobs are checked against closed forms; see below
    "coeff": [("oracle_value", _plus_one(checks.oracle_value))],
}
PLAN_TAMPERING = {"hull": _bump_expected_counts}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_answers_agree_with_untampered_references(tmp_path, workload):
    _, attempted, failed = _run_pass(tmp_path, workload)
    assert attempted and not failed, [r["problems"] for r in failed]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tampered_reference_is_counted_as_a_failure(tmp_path, monkeypatch, workload):
    for name, value in TAMPERED[workload]:
        monkeypatch.setattr(checks, name, value)
    jobs, attempted, failed = _run_pass(
        tmp_path, workload, PLAN_TAMPERING.get(workload, lambda plan: None)
    )
    assert len(attempted) == len(jobs)
    assert failed, "a wrong reference value must fail the jobs checked against it"
    assert all(r["problems"] for r in failed)


def test_wrong_answer_is_counted_as_a_failure():
    plan = workloads.smoke_plan("lattice", 3)
    job = next(j for j in plan["jobs"] if j["kind"] == "tutte_subsets")
    answer = {"size": 2, "rank": 1, "classes": [[0, 1]], "tutte": [[1, 0, 1], [0, 1, 2]]}
    assert checks.check_pass([job], {job["id"]: answer})[job["id"]]


def test_without_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "pairing", "--seed", "1", "--seconds", "1",
                cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
