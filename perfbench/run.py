"""Benchmark of the etv library: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout that has `src/etv`; the benchmark
imports the library from that directory only, and exits with code 2
when it is missing.  Workloads: fan-corpus, mixed-products, degeneracy,
cli-batch (see README.md).

--trace 0 measures the end-to-end metrics:
  setup_s      median wall time of 24 fresh processes that import etv and
               generate the run's first inputs, half of them started
               before the timed phase and half after it
  jobs_per_s   jobs completed per second of the timed phase
  job_ms_p50   median job latency
  job_ms_p90   90th percentile job latency (nearest rank; >= 100 jobs)
Each of these four times (one set-up process, one job) is divided by the
host's speed measured right before and right after it (see
common.host_speed), so they are in seconds of the reference machine; the
raw wall times are printed beside them.
  peak_rss_mb  peak resident memory of the process running the jobs (of
               the largest `etv` child for cli-batch)
  fail_ratio   failed / attempted jobs; printed here, and carried by the
               "failed" and "attempted" fields of the result line
--trace 1 measures the per-layer metrics of tracer.py on the same jobs,
plus `cli.process_ms` and the tracing overhead.

The script and every process it starts run on one CPU.  Every process
this script starts runs in its own session, is killed
with its whole process group if the run overruns its deadline, and is
reaped.  The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import common

SETUP_SAMPLES = 24
CLI_SAMPLES = 5
DEADLINE_S = 170


def declared_units(section):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def with_units(values, section):
    units = declared_units(section)
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(set(values) ^ set(units))} "
                           f"disagree with BENCHMARK.json {section}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


class Runner:
    """Starts child processes against one deadline; every child is reaped."""

    def __init__(self, deadline):
        self.deadline = deadline

    def run(self, argv, capture=False):
        """Run a child to completion; return (wall seconds, stdout text)."""
        left = self.deadline - time.monotonic()
        try:
            wall, code, out, _ = common.run_child(
                argv, left, stdout=subprocess.PIPE if capture
                else subprocess.DEVNULL)
        finally:
            # a killed worker leaves its cli-batch files behind
            shutil.rmtree(common.WORK_DIR, ignore_errors=True)
        if code != 0:
            raise RuntimeError(f"child exited {code}: {argv}")
        return wall, (out.decode() if capture else "")

    def worker(self, role, workload, seed, *extra):
        """Run worker.py to completion; return its result object."""
        _, out = self.run(worker_argv(role, workload, seed, *extra), capture=True)
        return json.loads(out.strip().splitlines()[-1])


def worker_argv(role, workload, seed, *extra):
    return [sys.executable, os.path.join(common.BENCH_DIR, "worker.py"),
            "--role", role, "--workload", workload, "--seed", str(seed), *extra]


def end_to_end(runner, args):
    raw = []

    def setup_samples(count):
        out = []
        for _ in range(count):
            before = common.calibrate()
            wall = runner.run(worker_argv("setup", args.workload, args.seed))[0]
            out.append(wall / common.host_speed(before, common.calibrate()))
            raw.append(wall)
        return out

    # half before and half after the timed phase, so that the samples meet
    # more of the host's slow drift than one burst would
    setup = setup_samples(SETUP_SAMPLES // 2)
    res = runner.worker("timed", args.workload, args.seed,
                        "--seconds", str(args.seconds))
    setup += setup_samples(SETUP_SAMPLES - len(setup))
    metrics = {"setup_s": statistics.median(setup)}
    for name in ("jobs_per_s", "job_ms_p50", "job_ms_p90", "peak_rss_mb"):
        metrics[name] = res[name]
    jobs = res["jobs"]
    print(f"{args.workload} seed {args.seed}: {jobs} jobs in {res['rounds']} "
          f"round(s), {res['timed_s']:.2f} s timed, checks {res['check_s']:.2f} s")
    print(f"  host ran {res['host_speed']:.3f} times slower than the reference; "
          "raw wall times in brackets")
    print(f"  setup_s      {metrics['setup_s']:.4f} s (median of {SETUP_SAMPLES}; "
          f"{statistics.median(raw):.4f})")
    print(f"  jobs_per_s   {metrics['jobs_per_s']:.4f} 1/s "
          f"({res['raw_jobs_per_s']:.4f})")
    print(f"  job_ms_p50   {metrics['job_ms_p50']:.3f} ms (n={jobs}; "
          f"{res['raw_job_ms_p50']:.3f})")
    beyond = jobs - -(-9 * jobs // 10)
    print(f"  job_ms_p90   {metrics['job_ms_p90']:.3f} ms (n={jobs}, "
          f"{beyond} beyond; {res['raw_job_ms_p90']:.3f})")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.2f} MB")
    print(f"  fail_ratio   {res['failed'] / jobs:.4f} ({res['failed']}/{jobs})")
    for kind, k in res["kinds"].items():
        print(f"    {kind:16s} {k['jobs']:4d} jobs  p50 {k['ms_p50']:9.2f} ms"
              f"  max {k['ms_max']:9.2f} ms")
    return res, with_units(metrics, "end_to_end")


def per_layer(runner, args):
    schema = [runner.run([sys.executable, "-m", "etv.cli", "--schema"])[0]
              for _ in range(CLI_SAMPLES)]
    untraced = runner.worker("timed", args.workload, args.seed, "--fixed",
                             "--no-check")
    res = runner.worker("traced", args.workload, args.seed)
    values = dict(res["trace"])
    values["cli.process_ms"] = statistics.median(schema) * 1000.0
    values["trace.untraced_s"] = untraced["timed_s"]
    values["trace.overhead_ratio"] = res["jobs_per_s"] / untraced["jobs_per_s"]
    print(f"{args.workload} seed {args.seed} traced: {res['jobs']} jobs, "
          f"{res['timed_s']:.2f} s traced, {untraced['timed_s']:.2f} s untraced")
    metrics = with_units(values, "per_layer")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    # both passes count: the untraced one for jobs that raised, the traced
    # one for jobs that raised or failed their check
    res = {"jobs": res["jobs"] + untraced["jobs"],
           "failed": res["failed"] + untraced["failed"],
           "failures": res["failures"] + untraced["failures"]}
    return res, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=common.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        common.check_checkout()
    except common.MissingLibrary as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    common.pin_to_one_cpu()
    runner = Runner(time.monotonic() + DEADLINE_S)
    try:
        res, metrics = (per_layer if args.trace else end_to_end)(runner, args)
    except (RuntimeError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["jobs"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
