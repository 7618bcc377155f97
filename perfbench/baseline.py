"""Record the benchmark's numbers for the current commit as one JSON file.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Two sets of untraced runs, one after the other: each set runs every
workload RUNS times, with the seeds FIRST_SEED, FIRST_SEED + 1, ...  For
each set, workload and end-to-end metric it records the median, the
quartiles and the quartile spread (q3 - q1) / median, as
`statistics.quantiles(values, n=4)` gives them.  It then compares the
two sets against the bounds of BENCHMARK.json: every spread but that of
setup_s within its bound, and the second set's median no worse than the
first's by more than the bound.  Last, one traced run and the
determinism check of the traced counts per workload, with FIRST_SEED.
Runs go one at a time through run.py, with the `run_seconds` of
BENCHMARK.json, exactly as a single run would.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import common

RUN = [sys.executable, f"{common.BENCH_DIR}/run.py"]
RUNS = 10
FIRST_SEED = 1
SETS = 2


def run_once(workload, seed, seconds, trace):
    out = subprocess.run([*RUN, "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=common.ROOT, stdout=subprocess.PIPE, check=True)
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def run_set(workload, seconds):
    t0 = time.time()
    results = [run_once(workload, seed, seconds, 0)
               for seed in range(FIRST_SEED, FIRST_SEED + RUNS)]
    metrics = {name: summarize([r["metrics"][name]["value"] for r in results])
               for name in results[0]["metrics"]}
    print(f"{workload}: " + ", ".join(
        f"{k} {v['median']:.4g} (spread {v['spread']:.3f})"
        for k, v in metrics.items()), flush=True)
    return {"attempted": [r["attempted"] for r in results],
            "failed": sum(r["failed"] for r in results),
            "end_to_end": metrics, "wall_s": time.time() - t0}


def compare(sets, spec):
    """Per metric: the worst spread, the drift between sets, within bounds."""
    out = {}
    for m in spec:
        name, bound = m["name"], m["bound"]
        first, second = (s["end_to_end"][name]["median"] for s in sets)
        worse = (second - first) / first
        if m["better"] == "higher":
            worse = -worse
        spread = max(s["end_to_end"][name]["spread"] for s in sets)
        out[name] = {"bound": bound, "max_spread": spread,
                     "second_worse_by": worse,
                     "ok": worse <= bound
                     and (name == "setup_s" or spread <= bound)}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    record = {"python": platform.python_version(), "machine": platform.machine(),
              "cpus": len(os.sched_getaffinity(0)), "run_seconds": seconds,
              "runs": RUNS, "seeds": [FIRST_SEED, FIRST_SEED + RUNS - 1],
              "sets": [], "agreement": {}, "traced": {}}

    def save():
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")

    for _ in range(SETS):
        record["sets"].append({})
        for workload in common.WORKLOADS:
            record["sets"][-1][workload] = run_set(workload, seconds)
            save()
    for workload in common.WORKLOADS:
        record["agreement"][workload] = compare(
            [s[workload] for s in record["sets"]], bench["end_to_end"])
        traced = run_once(workload, FIRST_SEED, seconds, 1)
        det = subprocess.run([sys.executable, f"{common.BENCH_DIR}/determinism.py",
                              "--workload", workload, "--seed", str(FIRST_SEED)],
                             cwd=common.ROOT, stdout=subprocess.PIPE)
        record["traced"][workload] = {
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "failed": traced["failed"],
            "counts_repeat": det.returncode == 0,
        }
        save()
    bad = [f"{w}.{m}" for w, metrics in record["agreement"].items()
           for m, v in metrics.items() if not v["ok"]]
    print("sets agree within bounds" if not bad
          else "outside bounds: " + ", ".join(bad))
    return 0


if __name__ == "__main__":
    sys.exit(main())
