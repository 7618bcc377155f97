"""fan-corpus: dual fans, corner loci and weighted boundaries, one body at a time.

A round is the 22-polytope corpus of the test suite plus twelve
polygons and Minkowski sums (n = 1 and n = 2).  The twelve shapes are
drawn once, the same for every seed.  The first round uses the corpus as
the tests do and moves each of the twelve by a seeded lattice symmetry
that keeps coordinate sizes, so every seed gets new inputs at the same
cost.  A later round (which runs only once the code is fast enough)
moves all 34 bodies by seeded complex-linear lattice maps and
translations, so that no input repeats within a process.  Every body
gives three jobs:

  fan     V-polytope hull and `dual_fan_etp` at every valid grade
  corner  `corner_locus` of the support function
  dc      `dc_weighted` of the support function on each fan of grade k
          whose grade k - 1 is also valid (uses the fan job's fans)

The point body has no weighted-boundary grade, so a round has 101 jobs.
Checks: every fan is a valid cycle (`is_etp`) with boundary of boundary
zero; the corner locus equals the fan of grade 2n - 1 (or vanishes when
there is none); dc(h X^k) equals (2n - k + 1) X^(k - 1) and not its
negative.
"""

from __future__ import annotations

from fractions import Fraction

import random

from common import (Job, affine_rank, complex_symmetry, embed_plane,
                    interleave, minkowski_points, pt, random_body,
                    random_polygon, unit_symmetry)
from etv.dualfan import dual_fan_etp, valid_k_range
from etv.framed import boundary, equivalent, is_etp, negate, scale
from etv.monge import corner_locus, dc_weighted, support_function
from etv.polyhedra import VPolytope


def corpus():
    """(name, n, points) of the 22-polytope corpus of tests/conftest.py."""
    seg01 = [pt(0, 0), pt(1, 0)]
    triangle = [pt(0, 0), pt(1, 0), pt(0, 1)]
    square = [pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)]
    seg_diag = [pt(0, 0), pt(1, 1)]
    n1 = [
        ("seg01", seg01),
        ("seg03", [pt(0, 0), pt(3, 0)]),
        ("seg-m12", [pt(-1, 0), pt(2, 0)]),
        ("seg-imag", [pt(0, 0), pt(0, 1)]),
        ("seg-diag", seg_diag),
        ("square", square),
        ("triangle", triangle),
        ("hexagon", [pt(2, 0), pt(1, 2), pt(-1, 2), pt(-2, 0), pt(-1, -2),
                     pt(1, -2)]),
        ("quad", [pt(0, 0), pt(2, 0), pt(3, 2), pt(-1, 1)]),
        ("mink-seg-tri", minkowski_points(seg01, triangle)),
        ("mink-sq-diag", minkowski_points(square, seg_diag)),
    ]
    seg_e1 = [pt(0, 0, 0, 0), pt(1, 0, 0, 0)]
    seg_cplx = [pt(0, 0, 0, 0), pt(1, 0, 0, 1)]
    square_real = [pt(0, 0, 0, 0), pt(1, 0, 0, 0), pt(0, 0, 1, 0),
                   pt(1, 0, 1, 0)]
    n2 = [
        ("seg-e1", seg_e1),
        ("seg-e2", [pt(0, 0, 0, 0), pt(0, 0, 1, 0)]),
        ("seg-cplx", seg_cplx),
        ("square-real", square_real),
        ("square-cplx", [pt(0, 0, 0, 0), pt(1, 0, 0, 0), pt(0, 1, 0, 0),
                         pt(1, 1, 0, 0)]),
        ("tri-real", [pt(0, 0, 0, 0), pt(1, 0, 0, 0), pt(0, 0, 1, 0)]),
        ("tri-mixed", [pt(0, 0, 0, 0), pt(1, 0, 0, 0), pt(0, 0, 0, 1)]),
        ("mink-segs", minkowski_points(seg_e1, seg_cplx)),
        ("prism", minkowski_points(square_real, seg_e1)),
        ("simplex3", [pt(0, 0, 0, 0), pt(1, 0, 0, 0), pt(0, 0, 1, 0),
                      pt(0, 1, 0, 0)]),
        ("point", [pt(2, 0, -1, 0)]),
    ]
    return [(name, 1, pts) for name, pts in n1] + [(name, 2, pts) for name, pts in n2]


def _segment_pair(rng, dim):
    """Two non-parallel segments with vertices in {-1, 0, 1}^dim."""
    while True:
        a, b = (random_body(rng, 2, dim, 1) for _ in range(2))
        if affine_rank(minkowski_points(a, b)) == 2:
            return a, b


def shapes():
    """(name, n, points) of twelve random polygons and Minkowski sums.

    They are drawn by a generator that does not depend on the seed, so
    their sizes, combinatorics and cost are the same for every seed; the
    rounds move them (see `make_round`).
    """
    rng = random.Random("fan-corpus/shapes")
    out = []
    for m in (3, 4, 5, 6):
        out.append((f"poly{m}", 1, embed_plane(random_polygon(rng, m, 3), 1)))
    out.append(("mink-seg-tri", 1, minkowski_points(
        embed_plane(random_polygon(rng, 2, 2), 1),
        embed_plane(random_polygon(rng, 3, 2), 1))))
    out.append(("mink-seg-seg", 1, minkowski_points(*_segment_pair(rng, 2))))
    for slot in (0, 1):
        out.append((f"tri-real{slot}", 2,
                    embed_plane(random_polygon(rng, 3, 2), 2, slot)))
    out.append(("quad-real", 2, embed_plane(random_polygon(rng, 4, 2), 2)))
    out.append(("seg", 2, random_body(rng, 2, 4, 1)))
    out.append(("mink-segs", 2, minkowski_points(*_segment_pair(rng, 4))))
    out.append(("mink-segs-b", 2, minkowski_points(*_segment_pair(rng, 4))))
    return out


def _fan_job(points):
    def run(results):
        gamma = VPolytope.from_points(points)
        return gamma, {k: dual_fan_etp(gamma, k, validate=False)
                       for k in valid_k_range(gamma)}

    def check(out, results):
        _, fans = out
        for fan in fans.values():
            rep = fan.framed_rep()
            if not is_etp(rep).ok or boundary(boundary(rep)).support_cells():
                return False
        return bool(fans)
    return run, check


def _corner_job(fan_key, n):
    def run(results):
        gamma, _ = results[fan_key]
        return corner_locus(support_function(gamma))

    def check(locus, results):
        _, fans = results[fan_key]
        if 2 * n - 1 in fans:
            return equivalent(locus, fans[2 * n - 1].result)
        return locus.is_zero()
    return run, check


def _dc_job(fan_key, n):
    def run(results):
        gamma, fans = results[fan_key]
        h = support_function(gamma)
        return {k: dc_weighted(h, fan.framed_rep()) for k, fan in fans.items()
                if k - 1 >= n and k - 1 in fans}

    def check(lhs, results):
        _, fans = results[fan_key]
        for k, value in lhs.items():
            rhs = scale(Fraction(2 * n - k + 1), fans[k - 1].result)
            if not equivalent(value, rhs):
                return False
            if not rhs.is_zero() and equivalent(negate(value), rhs):
                return False
        return bool(lhs)
    return run, check


def _body_jobs(i, name, n, points):
    fan_key = f"{i}:{name}:fan"
    jobs = [Job(fan_key, "fan", *_fan_job(points)),
            Job(f"{i}:{name}:corner", "corner", *_corner_job(fan_key, n))]
    if len(points) > 1:
        jobs.append(Job(f"{i}:{name}:dc", "dc", *_dc_job(fan_key, n)))
    return jobs


def make_round(rng, rnd):
    bodies = corpus()
    size = len(bodies)
    if rnd:
        # later rounds never repeat an input of an earlier round in the
        # same process: each moves every body by a complex-linear map
        bodies = [(name, n, complex_symmetry(rng, n)(pts))
                  for name, n, pts in bodies + shapes()]
    else:
        # the first round's seeded inputs cost the same for every seed
        bodies += [(name, n, unit_symmetry(rng, n)(pts))
                   for name, n, pts in shapes()]
    groups = {}
    for i, (name, n, points) in enumerate(bodies):
        source = "corpus" if i < size else "generated"
        groups.setdefault((source, n), []).append(_body_jobs(i, name, n, points))
    return interleave(list(groups.values()))
