"""Determinism check of the traced counts: two traced runs, one seed.

    python3 perfbench/determinism.py --workload <name> --seed <n>

Runs the traced pass of run.py twice, each in a fresh process, and
compares every per-layer count (names ending in `calls`, `rows_mean`,
`pieces`, `distinct_ratio`, `nonoptimal_ratio` and `lp_per_call`).
These are the numbers a later change may cite as counts, so they must
repeat exactly.  Exits 0 when all agree, 1 when any differs.
"""

from __future__ import annotations

import argparse
import sys
import time

import common
from run import DEADLINE_S, Runner

COUNT_SUFFIXES = ("calls", "rows_mean", "pieces", "distinct_ratio",
                  "nonoptimal_ratio", "lp_per_call")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=common.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    common.check_checkout()
    runner = Runner(time.monotonic() + 2 * DEADLINE_S)
    first, second = (runner.worker("traced", args.workload, args.seed)["trace"]
                     for _ in range(2))
    differ = 0
    for name in sorted(first):
        if not name.endswith(COUNT_SUFFIXES):
            continue
        same = first[name] == second[name]
        differ += not same
        print(f"{'same' if same else 'DIFFERS':8s} {name:42s} "
              f"{first[name]!r} {second[name]!r}")
    print(f"{args.workload} seed {args.seed}: "
          f"{'all counts repeat' if not differ else f'{differ} counts differ'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
