"""spechtkit benchmark: four single-process workloads with checked answers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pairing --seed 1 --seconds 24 --trace 0

A run runs whole passes of the workload's fixed job plan, each pass in a
fresh single-threaded interpreter (so process-global caches start empty, as
for a CLI user), one after another, while another pass still fits in
``--seconds``; every run makes at least one pass.  Before each pass it times
one set-up: a fresh interpreter that imports spechtkit and builds the CLI
parser.  With ``--trace 1`` untraced and traced passes alternate; the traced
ones record spans around every layer call and give the per-layer metrics,
the untraced ones give the baseline for ``trace.overhead_frac``.

Every time is reported at reference speed: scaled by how fast a fixed
calibration kernel ran next to it (see ``speed_factors``).  The unscaled
throughput and the median speed factor are printed with the result.

Every job's answer is checked against an independent reference after the
timed region.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
state the same numbers for people, with the job count, the tail percentile,
the failure fraction, the inputs hash, the revision and the versions.  The
full record (plan with argv and guards, per-job times, answers, spans) is
written under ``.perfbench/`` in the checkout.

``--smoke`` runs one job of every kind instead of the full plan.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARD_LIMIT_S = 170.0  # a run ends within 180 s even when a pass overruns
SETUP_SAMPLES = 7
SETUP_PROBE = (
    "import time, spechtkit, spechtkit.cli as cli; cli.build_parser(); "
    "stamp = time.clock_gettime_ns(time.CLOCK_MONOTONIC); "
    f"import sys; sys.path.insert(0, {HERE!r}); from worker import calibrate; "
    "print(stamp, calibrate(), spechtkit.__file__)"
)
# Time of the calibration kernel (workloads.calibration_kernel) on the 2-CPU
# Xeon VM the plans were sized on, when nothing else slowed it down.
REFERENCE_KERNEL_NS = 2_200_000
SPEED_WINDOW_NS = 500_000_000


class BenchError(Exception):
    """The run cannot produce a result."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPECHTKIT_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"  # same set and dict orders in every pass
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run one child to completion, killing it if the run's deadline passes."""
    proc = subprocess.Popen(
        argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child exceeded the {HARD_LIMIT_S:.0f} s run limit: {argv[1:3]}")
    if proc.returncode != 0:
        raise BenchError(f"child {argv[1:3]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return subprocess.CompletedProcess(argv, 0, out, err)


def setup_time(deadline: float) -> float:
    """Seconds from spawning an interpreter to a built CLI parser, at
    reference speed (see ``speed_factors``)."""
    source = os.path.join(ROOT, "src", "spechtkit", "__init__.py")
    start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    done = run_child([sys.executable, "-c", SETUP_PROBE], deadline)
    stamp, kernel_ns, path = done.stdout.split(maxsplit=2)
    if os.path.abspath(path.strip()) != source:
        raise BenchError(f"setup probe imported {path.strip()}, not {source}")
    return (int(stamp) - start) / 1e9 * REFERENCE_KERNEL_NS / int(kernel_ns)


def speed_factors(pass_: dict) -> list[float]:
    """Per job of a pass, reference kernel time over the local kernel time.

    Other tenants of a shared machine slow it by up to 1.8 times, in phases
    that last from seconds to minutes, and slow all Python code nearly
    alike.  The calibration kernel, timed between jobs, gauges
    the current speed: the local kernel time of a job is the median of the
    kernel times within half a second of it, or of the two around it when
    none is that close.  A job's time times its factor is its time at the
    reference speed.  The kernel runs no program code, so a change to the
    program moves scaled times in the same proportion as raw ones.
    """
    cal = pass_["calibration"]
    factors = []
    for position, r in enumerate(pass_["results"]):
        lo, hi = r["start_ns"] - SPEED_WINDOW_NS, r["start_ns"] + r["ns"] + SPEED_WINDOW_NS
        near = [ns for _, start, ns in cal if lo <= start <= hi]
        if len(near) < 2:
            before = max((c for c in cal if c[0] <= position), key=lambda c: c[0])
            after = min((c for c in cal if c[0] > position), key=lambda c: c[0])
            near = [before[2], after[2]]
        factors.append(REFERENCE_KERNEL_NS / statistics.median(near))
    return factors


def run_passes(plan_path, out_dir, seconds, trace, setups, deadline):
    """Whole passes while another fits in *seconds*; alternate modes when tracing.

    Before each pass, and after the last until there are *setups* of them,
    one set-up is timed, so the set-up samples span the run like the passes.
    Returns (passes, set-up times).
    """
    passes: list[dict] = []
    setup_times: list[float] = []
    if setups:
        setup_time(deadline)  # the first start also writes bytecode caches
    started = time.monotonic()
    longest = 0.0
    while True:
        if setups:
            setup_times.append(setup_time(deadline))
        traced = trace and len(passes) % 2 == 1
        out_path = os.path.join(out_dir, f"pass-{len(passes)}.json")
        argv = [sys.executable, os.path.join(HERE, "worker.py"), plan_path, out_path]
        t0 = time.monotonic()
        run_child(argv + (["--trace"] if traced else []), deadline)
        longest = max(longest, time.monotonic() - t0)
        with open(out_path) as fh:
            passes.append(json.load(fh))
        passes[-1]["speed_factors"] = speed_factors(passes[-1])
        need_both = trace and len(passes) < 2
        if not need_both and time.monotonic() - started + longest > seconds:
            break
    while len(setup_times) < setups:
        setup_times.append(setup_time(deadline))
    return passes, setup_times


def outcomes(passes) -> tuple[list[dict], list[dict]]:
    """All job results of a run, and those that failed: an exception, a
    guard refusal or an answer that disagrees with its reference."""
    results = [r for p in passes for r in p["results"]]
    return results, [r for r in results if r["problems"]]


def tail_percentile(jobs_per_pass: int) -> int:
    """Highest whole percentile with at least ten of a pass's jobs beyond it."""
    return max(50, math.floor(100 * (1 - 10 / jobs_per_pass)))


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(passes, setup_times, jobs_per_pass):
    """End-to-end metrics from untraced passes, at reference speed.

    A job's time is the median over the run's passes of its scaled wall
    time; throughput is the plan's job count over the sum of those times.
    """
    scaled: dict[int, list[float]] = {}
    raw: dict[int, list[float]] = {}
    for p in passes:
        for r, f in zip(p["results"], p["speed_factors"]):
            scaled.setdefault(r["id"], []).append(r["ns"] * f / 1e6)
            raw.setdefault(r["id"], []).append(r["ns"] / 1e6)
    job_ms = [statistics.median(v) for v in scaled.values()]
    raw_ms = [statistics.median(v) for v in raw.values()]
    p_tail = tail_percentile(jobs_per_pass)
    metrics = {
        "jobs_per_s": (len(job_ms) / (sum(job_ms) / 1e3), "1/s"),
        "job_p50_ms": (statistics.median(job_ms), "ms"),
        "job_tail_ms": (percentile(job_ms, p_tail), "ms"),
        "peak_rss_mb": (max(p["maxrss_kb"] for p in passes) / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    notes = {
        "jobs_timed": len(job_ms),
        "tail_percentile": p_tail,
        "unscaled_jobs_per_s": len(raw_ms) / (sum(raw_ms) / 1e3),
        "median_speed_factor": statistics.median(f for p in passes for f in p["speed_factors"]),
    }
    return metrics, notes


def per_layer(passes):
    def scaled_total(p):
        return sum(r["ns"] * f for r, f in zip(p["results"], p["speed_factors"])) / 1e9

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    values = spans.layer_metrics(
        [p["spans"] for p in traced],
        [dict(zip((r["id"] for r in p["results"]), p["speed_factors"])) for p in traced],
        [scaled_total(p) for p in traced],
        [scaled_total(p) for p in plain],
    )
    return {k: (v, spans.UNITS[k]) for k, v in values.items()}


def revision() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def write_inputs(plan: dict, out_dir: str) -> None:
    """The --matrix files that the recorded argv of a job refer to."""
    for job in plan["jobs"]:
        if "--matrix" in job["argv"] and "columns" in job["params"]:
            name = job["argv"][job["argv"].index("--matrix") + 1]
            with open(os.path.join(out_dir, name), "w") as fh:
                json.dump(workloads.matrix_file_payload(job["params"]["columns"]), fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one job of every kind")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    deadline = time.monotonic() + HARD_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "spechtkit", "__init__.py")):
        print(f"error: no program source at {os.path.join(ROOT, 'src', 'spechtkit')}", file=sys.stderr)
        return 2

    build = workloads.smoke_plan if args.smoke else workloads.build_plan
    plan = build(args.workload, args.seed)
    digest = workloads.inputs_hash(plan)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    out_dir = os.path.join(ROOT, ".perfbench", name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    plan_path = os.path.join(out_dir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    write_inputs(plan, out_dir)

    try:
        setups = 0 if args.trace else 1 if args.smoke else SETUP_SAMPLES
        passes, setup_times = run_passes(
            plan_path, out_dir, args.seconds, bool(args.trace), setups, deadline
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results, failed = outcomes(passes)
    jobs_per_pass = len(plan["jobs"])
    if args.trace:
        metrics, notes = per_layer(passes), {}
    else:
        metrics, notes = end_to_end(passes, setup_times, jobs_per_pass)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": digest,
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "jobs_per_pass": jobs_per_pass,
        "attempted": len(results),
        "failed": len(failed),
        "fail_frac": len(failed) / len(results),
        **notes,
        "revision": revision(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **passes[0]["versions"],
        "untraced_targets": sorted({t for p in passes for t in p["untraced_targets"]}),
    }
    by_id = {j["id"]: j for j in plan["jobs"]}
    record = dict(
        info,
        setup_s_samples=setup_times,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        default_limits=passes[0]["default_limits"],
        plan=plan["jobs"],
        passes=passes,
    )
    with open(os.path.join(out_dir, "record.json"), "w") as fh:
        json.dump(record, fh)

    for r in failed[:10]:
        job = by_id[r["id"]]
        print(f"FAILED job {r['id']} {' '.join(job['argv'])}: {r['problems'][:3]}", file=sys.stderr)
    for key, value in info.items():
        print(f"# {key}: {value}")
    for key, (value, unit) in metrics.items():
        print(f"# {key} = {value:.6g} {unit}")
    print(f"# record: {os.path.relpath(os.path.join(out_dir, 'record.json'), ROOT)}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(results),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
