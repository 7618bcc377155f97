"""One benchmark process: set up a workload, run its jobs, check the outputs.

Started by run.py, never by hand.  Roles:

  setup   import etv and generate the inputs of the first rounds, then exit
          (run.py times this process to get setup_s)
  timed   run the rounds MIN_JOBS needs, then more whole rounds while at
          least half a round of the time budget is left (with --fixed,
          only the rounds MIN_JOBS needs); then check every output
  traced  like timed with --fixed, with every traced etv function wrapped
          (see tracer.py); the wrappers are installed before any workload
          module binds a library name

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

import common

MODULES = {"fan-corpus": "wl_fan", "mixed-products": "wl_mixed",
           "degeneracy": "wl_degeneracy", "cli-batch": "wl_cli"}


def load_workload(name, tracer=None):
    common.import_etv()
    if tracer is not None:
        import tracer as tracing
        tracing.install(tracer)
    module = importlib.import_module(MODULES[name])
    if tracer is not None:
        tracing.verify(tracer, [m for m in list(sys.modules.values())
                                if os.path.dirname(getattr(m, "__file__", None)
                                                   or "") == common.BENCH_DIR])
    return module


def make_round(module, name, seed, rnd):
    return module.make_round(common.round_rng(name, seed, rnd), rnd)


def first_rounds(module, name, seed):
    """As many rounds as MIN_JOBS jobs need.

    Round sizes do not depend on the seed, so this is the same number of
    rounds for every seed.
    """
    rounds = [make_round(module, name, seed, 0)]
    count = -(-common.MIN_JOBS // len(rounds[0]))
    rounds += [make_round(module, name, seed, r) for r in range(1, count)]
    return rounds


def run_round(jobs, durations, tracer=None):
    """Run one round in order; return (results, errors).

    Each job is timed on its own, between two calibrations; `durations`
    gets (kind, seconds, host speed) per job.
    """
    results, errors = {}, {}
    for job in jobs:
        before = common.calibrate()
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            results[job.key] = job.run(results)
        except Exception as exc:  # a failing job is counted, not fatal
            errors[job.key] = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        durations.append((job.kind, wall,
                          common.host_speed(before, common.calibrate())))
    return results, errors


def check_rounds(done, check=True):
    """Check every output outside the timed phase; return failure messages.

    Jobs that raised count as failed even when checks are skipped.
    """
    failures = []
    for jobs, results, errors in done:
        for job in jobs:
            if job.key in errors:
                failures.append(f"{job.key}: raised {errors[job.key]}")
                continue
            if not check:
                continue
            try:
                ok = job.check(results[job.key], results)
            except Exception as exc:
                ok = False
                failures.append(f"{job.key}: check raised "
                                f"{type(exc).__name__}: {exc}")
                continue
            if not ok:
                failures.append(f"{job.key}: wrong output")
    return failures


def execute(module, name, seed, seconds, fixed=False, tracer=None, check=True):
    pending = first_rounds(module, name, seed)
    durations, done = [], []
    timed = 0.0
    rnd = 0
    while True:
        if not pending:
            # whole rounds only, so every run has the same job mix; stop
            # when less than half a round of the time budget is left
            if fixed or seconds - timed < timed / rnd / 2:
                break
            pending = [make_round(module, name, seed, rnd)]
        jobs = pending.pop(0)
        results, errors = run_round(jobs, durations, tracer)
        timed = sum(wall for _, wall, _ in durations)
        done.append((jobs, results, errors))
        rnd += 1
    peak = getattr(module, "peak_rss_kb", None)
    peak_kb = peak() if peak else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    failures = check_rounds(done, check)
    check_s = time.perf_counter() - t0
    # times with a bound are in seconds of the reference machine
    # (common.host_speed); the raw ones are printed beside them
    adjusted = [(kind, wall / speed) for kind, wall, speed in durations]
    ms = sorted(d * 1000.0 for _, d in adjusted)
    raw_ms = sorted(wall * 1000.0 for _, wall, _ in durations)
    kinds = {}
    for kind, d in adjusted:
        kinds.setdefault(kind, []).append(d * 1000.0)
    return {
        "rounds": rnd,
        "jobs": len(durations),
        "failed": len(failures),
        "failures": failures[:20],
        "timed_s": timed,
        "check_s": check_s,
        "host_speed": timed / sum(d for _, d in adjusted),
        "jobs_per_s": len(adjusted) / sum(d for _, d in adjusted),
        "job_ms_p50": statistics.median(ms),
        "job_ms_p90": common.percentile(ms, 0.9),
        "raw_jobs_per_s": len(durations) / timed,
        "raw_job_ms_p50": statistics.median(raw_ms),
        "raw_job_ms_p90": common.percentile(raw_ms, 0.9),
        "peak_rss_mb": peak_kb / 1024.0,
        "kinds": {k: {"jobs": len(v), "ms_p50": statistics.median(v),
                      "ms_max": max(v)} for k, v in sorted(kinds.items())},
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--workload", choices=common.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--fixed", action="store_true")
    ap.add_argument("--no-check", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.role == "traced":
        import tracer as tracing
        tracer = tracing.Tracer()
    module = load_workload(args.workload, tracer)
    try:
        if args.role == "setup":
            first_rounds(module, args.workload, args.seed)
            return 0
        if tracer is not None and hasattr(module, "trace_children"):
            module.trace_children()
        out = execute(module, args.workload, args.seed, args.seconds,
                      fixed=args.fixed or tracer is not None, tracer=tracer,
                      check=not args.no_check)
        if tracer is not None:
            for state in getattr(module, "child_trace_states", list)():
                tracer.merge(state)
            out["trace"] = tracer.summary()
    finally:
        cleanup = getattr(module, "cleanup", None)
        if cleanup:
            cleanup()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
