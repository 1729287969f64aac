"""One pass of a workload plan, in a fresh interpreter.

Usage: python3 perfbench/worker.py PLAN_JSON OUT_JSON [--trace]

Runs every job of the plan in order, one after another, timing each call.
Between jobs, outside the timed region, it times the calibration kernel at
least every 150 ms of job time.  After the last job it reads the process's
peak resident memory, removes any span wrappers, checks every answer against
its reference and writes one JSON file with per-job times, calibration
times, answers, problems, spans and versions.  Started by
``run.py`` with PYTHONPATH pointing at the checkout's ``src``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import resource
import sys
import time

from workloads import calibration_kernel

CALIBRATE_EVERY_NS = 150_000_000


def calibrate() -> int:
    """Least time of two runs of the calibration kernel."""
    times = []
    for _ in range(2):
        t0 = time.perf_counter_ns()
        calibration_kernel()
        times.append(time.perf_counter_ns() - t0)
    return min(times)


def main(argv: list[str]) -> int:
    plan_path, out_path = argv[0], argv[1]
    traced = "--trace" in argv[2:]

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    import spechtkit
    from spechtkit import config
    from spechtkit.errors import ResourceLimitError

    source = os.path.join(root, "src", "spechtkit")
    if os.path.dirname(os.path.abspath(spechtkit.__file__)) != source:
        print(f"error: spechtkit imported from {spechtkit.__file__}, not {source}", file=sys.stderr)
        return 2

    import checks
    import jobs
    import spans

    with open(plan_path) as fh:
        plan = json.load(fh)

    recorder = None
    if traced:
        recorder = spans.Recorder()
        recorder.install()

    clock = time.perf_counter_ns
    results = []
    answers: dict[int, dict] = {}
    # [position, start, ns]: a calibration taken before the job at that
    # position, starting *start* ns after the loop did
    loop_start = clock()
    calibration = [[0, 0, calibrate()]]
    since_calibration = 0
    for position, job in enumerate(plan["jobs"]):
        limits = dataclasses.replace(config.DEFAULT_LIMITS, **job["limits"])
        error = None
        t0 = clock()
        try:
            if recorder is None:
                raw = jobs.run(job, limits)
            else:
                raw = recorder.run_job(job["id"], lambda: jobs.run(job, limits))
        except ResourceLimitError as exc:
            error = f"guard refusal: {exc}"
        except Exception as exc:  # counted as a failed job, the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if error is None:
            try:
                answers[job["id"]] = jobs.summarize(job, raw)
            except Exception as exc:
                error = f"answer unreadable: {type(exc).__name__}: {exc}"
            raw = None
        results.append({"id": job["id"], "start_ns": t0 - loop_start, "ns": t1 - t0, "error": error})
        since_calibration += t1 - t0
        if since_calibration >= CALIBRATE_EVERY_NS or position == len(plan["jobs"]) - 1:
            calibration.append([position + 1, clock() - loop_start, calibrate()])
            since_calibration = 0
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if recorder is not None:
        recorder.uninstall()
    problems = checks.check_pass(plan["jobs"], answers)
    for res in results:
        res["problems"] = [res["error"]] if res["error"] else problems.get(res["id"], [])
        res["answer"] = answers.get(res["id"])

    import numpy

    payload = {
        "traced": traced,
        "calibration": calibration,
        "maxrss_kb": maxrss_kb,
        "results": results,
        "spans": recorder.spans if recorder else [],
        "untraced_targets": recorder.missing if recorder else [],
        "default_limits": dataclasses.asdict(config.DEFAULT_LIMITS),
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "spechtkit": spechtkit.__version__,
        },
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
