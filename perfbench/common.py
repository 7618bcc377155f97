"""Shared pieces of the benchmark: paths, the job record and input helpers.

Nothing here imports `etv` at module import time; `import_etv` does it
explicitly, from the `src/` directory of the checkout the benchmark sits
in, so that an installed copy of the library can never be measured by
mistake.
"""

from __future__ import annotations

import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench-work")

WORKLOADS = ("fan-corpus", "mixed-products", "degeneracy", "cli-batch")

# every workload runs at least this many jobs, so that ten samples lie
# beyond the 90th percentile
MIN_JOBS = 100


class MissingLibrary(RuntimeError):
    pass


def check_checkout():
    """Raise MissingLibrary unless the library sources sit next to the bench."""
    if not os.path.isfile(os.path.join(SRC, "etv", "__init__.py")):
        raise MissingLibrary(f"no etv sources under {SRC}")


def import_etv():
    """Import `etv` from the checkout's src/ and return the package."""
    check_checkout()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import etv
    where = os.path.dirname(os.path.abspath(etv.__file__))
    if where != os.path.join(SRC, "etv"):
        raise MissingLibrary(f"etv imported from {where}, not from {SRC}")
    return etv


def child_env():
    """Environment for child processes: the checkout's src/ and nothing else."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


class ChildTimeout(RuntimeError):
    pass


def run_child(argv, timeout, env=None, stdout=subprocess.DEVNULL,
              stderr=None):
    """Run a child in its own session; return (wall s, returncode, out, err).

    The wait blocks until the child exits, so the wall time is exact (a
    timed wait would poll).  A timer kills the child's whole process
    group after `timeout` seconds; the child is always reaped.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env or child_env(),
                            stdout=stdout, stderr=stderr,
                            start_new_session=True)
    expired = []

    def kill():
        expired.append(True)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    try:
        out, err = proc.communicate()
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    if expired:
        raise ChildTimeout(f"killed after {timeout:.0f} s: {argv}")
    return wall, proc.returncode, out, err


# The duration of `calibrate()` on the machine the baseline was recorded on
# (2 cores, x86_64, Python 3.11.7) in its fast phases; see `host_speed`.
CALIBRATION_REF_S = 0.00093


def pin_to_one_cpu():
    """Keep this process and every child it starts on one CPU.

    The host's slow phases need not be the same on every CPU, so a
    calibration speaks only for work that runs where it ran.  Only this process's own
    affinity changes; children inherit it.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def calibrate() -> float:
    """Time a fixed piece of pure-Python exact arithmetic; return seconds.

    It does what the library spends its time on (Fraction arithmetic,
    tuples, dicts, sorting) and calls nothing of the library, so no change
    to `etv` can change its cost; only the host's speed can.
    """
    t0 = time.perf_counter()
    for _ in range(5):
        acc = Fraction(0)
        seen = {}
        for i in range(1, 40):
            acc += Fraction(i, i + 7) * Fraction(3, i + 1)
            seen[(i % 5, acc.denominator % 11)] = (acc, i)
        sorted(seen.items())
    return time.perf_counter() - t0


def host_speed(before: float, after: float) -> float:
    """How many times slower than the reference the host ran a piece of work.

    `before` and `after` are `calibrate()` times taken right before and
    right after the work.  The host is shared: the same computation, back
    to back in one process, runs up to twice as long in phases of a
    second to minutes, in CPU time as much as in wall time, and the
    calibrations slow down with it.  A time divided by this factor is in
    seconds of the reference machine in its fast phases; that is how the
    benchmark reports every time that has a bound.
    """
    return (before + after) / 2 / CALIBRATION_REF_S


@dataclass
class Job:
    """One exact computation and the check of its output.

    `run(results)` does the timed work; `results` maps the keys of the
    jobs already run in the same round to their outputs, so that a job
    can consume an earlier job's output (a fan feeding its weighted
    boundary, a CLI report feeding the next command).  `check(output,
    results)` runs after the whole timed phase and returns True when the
    output is exactly right.
    """
    key: str
    kind: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], bool]


def interleave(groups):
    """Merge groups of job units so each group is spread over the round.

    A unit is a list of jobs that must run in order (a producer and the
    jobs that consume its output).  The k-th of m units of a group sits at
    position (k + 1/2) / m, so every kind of job meets the same mix of
    host slow-downs instead of running as one contiguous block.
    """
    placed = [((k + 0.5) / len(units), g, k, unit)
              for g, units in enumerate(groups) for k, unit in enumerate(units)]
    placed.sort(key=lambda entry: entry[:3])
    return [job for *_, unit in placed for job in unit]


def round_rng(workload: str, seed: int, rnd: int) -> random.Random:
    """The generator for one round: a function of workload, seed and round."""
    return random.Random(f"{workload}/{seed}/{rnd}")


def pt(*xs):
    return tuple(Fraction(x) for x in xs)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull2d(points):
    """Vertices of the convex hull of integer points in the plane."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def random_polygon(rng: random.Random, m: int, span: int):
    """Integer points in [-span, span]^2 whose hull has exactly m vertices.

    m = 2 gives a segment.  Only the hull vertices are returned, so the
    size of the input is fixed by m.
    """
    while True:
        if m == 2:
            a = (rng.randint(-span, span), rng.randint(-span, span))
            b = (rng.randint(-span, span), rng.randint(-span, span))
            if a != b:
                return [a, b]
            continue
        pts = [(rng.randint(-span, span), rng.randint(-span, span))
               for _ in range(m + 2)]
        hull = hull2d(pts)
        if len(hull) == m:
            return hull


def random_body(rng: random.Random, size: int, dim: int, span: int):
    """`size` affinely independent lattice points in R^dim, as Fractions."""
    while True:
        pts = {tuple(rng.randint(-span, span) for _ in range(dim))
               for _ in range(size)}
        if len(pts) == size and affine_rank(list(pts)) == size - 1:
            return [tuple(Fraction(x) for x in p) for p in sorted(pts)]


def affine_rank(points) -> int:
    """Dimension of the affine hull of rational points (own elimination)."""
    base = points[0]
    rows = [[Fraction(a) - Fraction(b) for a, b in zip(p, base)]
            for p in points[1:]]
    rank = 0
    ncols = len(base)
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def embed_plane(points2d, n: int, slot: int = 0):
    """Real points of R^2 as dual points of C^n: coordinates (x1, y1, ...).

    The plane is spanned by the real axes of complex coordinates `slot`
    and `slot + 1` when n = 2, or by the real and imaginary axis of C^1.
    """
    out = []
    for x, y in points2d:
        v = [0] * (2 * n)
        if n == 1:
            v[0], v[1] = x, y
        else:
            v[2 * slot], v[2 * ((slot + 1) % n)] = x, y
        out.append(tuple(Fraction(c) for c in v))
    return out


def complex_symmetry(rng: random.Random, n: int):
    """A random complex-linear lattice map of C^n plus a translation.

    Complex coordinates are permuted and each is multiplied by a Gaussian
    integer a + bi with a, b in {-2, -1, 1, 2}: a rotation by no multiple
    of 90 degrees, so even a polytope with lattice symmetries gets new
    dual cones.  Complex-linear maps keep every face and its complex
    type, so the image has the combinatorics of the original.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    factors = [(rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2)))
               for _ in range(n)]
    shift = [rng.randint(-2, 2) for _ in range(2 * n)]

    def apply(points):
        out = []
        for p in points:
            v = [Fraction(0)] * (2 * n)
            for j, (a, b) in enumerate(factors):
                x, y = Fraction(p[2 * j]), Fraction(p[2 * j + 1])
                v[2 * perm[j]], v[2 * perm[j] + 1] = a * x - b * y, b * x + a * y
            out.append(tuple(c + t for c, t in zip(v, shift)))
        return out

    return apply


def unit_symmetry(rng: random.Random, n: int):
    """A random lattice symmetry of C^n that keeps coordinate sizes.

    Complex coordinates are permuted, each is multiplied by a unit (1, i,
    -1 or -i), and the result is translated by a nonzero vector in
    {-1, 0, 1}^2n.  Like `complex_symmetry` it keeps every face and its
    complex type; unlike it, it scales nothing, so the image costs about
    what the original does.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    turns = [rng.randrange(4) for _ in range(n)]
    shift = [0] * (2 * n)
    while not any(shift):
        shift = [rng.randint(-1, 1) for _ in range(2 * n)]

    def apply(points):
        out = []
        for p in points:
            v = [Fraction(0)] * (2 * n)
            for j, turn in enumerate(turns):
                x, y = Fraction(p[2 * j]), Fraction(p[2 * j + 1])
                for _ in range(turn):
                    x, y = -y, x
                v[2 * perm[j]], v[2 * perm[j] + 1] = x, y
            out.append(tuple(c + t for c, t in zip(v, shift)))
        return out

    return apply


def minkowski_points(*bodies):
    """All sums of one point from each body (hull vertices among them)."""
    acc = [tuple(Fraction(x) for x in p) for p in bodies[0]]
    for body in bodies[1:]:
        acc = sorted({tuple(a + Fraction(b) for a, b in zip(p, q))
                      for p in acc for q in body})
    return acc


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list, q in (0, 1]."""
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[idx]
