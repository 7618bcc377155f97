"""mixed-products: mixed volumes, the zero-value criterion, stable products.

A round is 100 jobs from a fixed list of templates; the seed draws the
bodies and functions.  Jobs:

  mv2      `mixed_volume_via_ma` of two lattice polygons in R^2 (n = 2):
           a segment and a triangle, two triangles (1 each per round)
  mv3      `mixed_volume_via_ma` of a lattice triangle and two lattice
           segments in R^3 (n = 3), along a fixed spanning set of
           directions under a random signed coordinate permutation, at
           random positions; 20 per round, all doing about the same
           stable-product work
  crit     `ma_zero_criterion` of a pair of convex PL functions on C^2
           with 2 and 3 pieces (45 per round), or with 2 and 2 pieces whose
           differentials all lie on one complex line, so that the mixed
           product vanishes (6 per round)
  stable   dual fans (grade 3) of a real lattice segment and a real
           lattice triangle in C^2 and their `stable_intersection` with a
           forced generic shift, so that `stable_support` runs (20 per
           round)
  bergman  `bergman_fan` of a translate of the first fan of every third
           stable job (7 per round)

Checks: mixed volumes equal `mixed_volume_oracle` (polarization, no cycle
code); the criterion's verdict equals `mixed_ma(...).is_zero()` and its
certificate validates; a stable intersection of real fans is positive
and its total weight is 2! times the oracle mixed volume of the two
polygons; a Bergman fan of a translated fan is positive and equivalent
to the fan.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from common import Job, embed_plane, interleave, random_polygon
from etv.degeneracy import ma_zero_criterion, validate_h_certificate
from etv.dualfan import dual_fan_etp
from etv.framed import cell_weight, equivalent, is_positive, translate
from etv.intersection import bergman_fan, stable_intersection
from etv.monge import (AffineFunc, PLFunction, embed_real, mixed_ma,
                       mixed_volume_oracle, mixed_volume_via_ma)
from etv.polyhedra import VPolytope
from etv.scalars import CRat

# Template counts: the median job falls inside the block of criterion
# jobs on (2, 3)-piece pairs, the 90th percentile near the middle of the
# block of n = 3 (and the two n = 2) mixed volumes, and the stable
# products of a segment and a triangle lie between the two; each block
# is a run of jobs of near-equal cost, so the percentiles do not jump
# between blocks from one seed to the next.
MV2_SIZES = ((2, 3), (3, 3))
MV3_COUNT = 20
# the triangle spans the first two directions, the segments run along
# the last two
MV3_DIRECTIONS = ((1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1))
# (pieces of h1, pieces of h2, planted zero)
CRIT_TEMPLATES = ((2, 3, False),) * 45 + ((2, 2, True),) * 6
STABLE_SIZES = ((2, 3),) * 20
BERGMAN_EVERY = 3   # a Bergman job follows every third stable job


def _rational_points(points):
    return [tuple(Fraction(x) for x in p) for p in points]


def _triangle_segments(rng):
    """A lattice triangle and two lattice segments in R^3, moved at random.

    The bodies run along MV3_DIRECTIONS under one random signed
    permutation of the coordinates, and each starts at its own point of
    {-1, 0, 1}^3.  The directions span R^3, so the mixed volume is
    positive, and every job does about the same stable-product work.
    """
    perm = list(range(3))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(3)]
    dirs = []
    for d in MV3_DIRECTIONS:
        v = [0, 0, 0]
        for i in range(3):
            v[perm[i]] = signs[i] * d[i]
        dirs.append(v)
    bodies = []
    for steps in ((dirs[0], dirs[1]), (dirs[2],), (dirs[3],)):
        start = [rng.randint(-1, 1) for _ in range(3)]
        body = [start] + [[x + y for x, y in zip(start, v)] for v in steps]
        bodies.append(_rational_points(body))
    return bodies


def _mv_job(bodies):
    def run(results):
        return mixed_volume_via_ma(*[embed_real(b) for b in bodies])

    def check(value, results):
        return value == mixed_volume_oracle(*bodies)
    return run, check


def _gaussian(rng, r):
    return CRat(rng.randint(-r, r), rng.randint(-r, r))


def _convex_pl(rng, pieces, line=None):
    """Convex max of `pieces` distinct affine functions on C^2.

    With `line` set, every differential is a Gaussian multiple of it.
    """
    funcs = {}
    while len(funcs) < pieces:
        if line is None:
            w = (_gaussian(rng, 2), _gaussian(rng, 2))
        else:
            lam = _gaussian(rng, 2)
            w = tuple(lam * u for u in line)
        c = Fraction(rng.randint(-2, 2))
        funcs.setdefault((tuple((x.re, x.im) for x in w), c), AffineFunc(w, c))
    return PLFunction.convex(2, list(funcs.values()))


def _crit_job(funcs):
    def run(results):
        return ma_zero_criterion(*funcs)

    def check(out, results):
        zero, cert = out
        if zero != mixed_ma(*funcs).is_zero():
            return False
        return not zero or validate_h_certificate(cert, funcs)
    return run, check


def _stable_job(p, q, seed):
    def run(results):
        fans = [dual_fan_etp(VPolytope.from_points(embed_plane(b, 2)), 3).result
                for b in (p, q)]
        return fans, stable_intersection(*fans, seed=seed, force_stable=True)

    def check(out, results):
        _, prod = out
        weight = sum(cell_weight(c.frame, c.poly.tangent_basis)
                     for c in prod.cells())
        oracle = mixed_volume_oracle(_rational_points(p), _rational_points(q))
        return is_positive(prod) and weight == factorial(2) * oracle
    return run, check


def _bergman_job(stable_key, shift):
    def run(results):
        fans, _ = results[stable_key]
        return bergman_fan(translate(fans[0], shift))

    def check(fan, results):
        fans, _ = results[stable_key]
        return is_positive(fan) and not fan.is_zero() and equivalent(fan, fans[0])
    return run, check


def make_round(rng, rnd):
    mv2, mv3, crit, stable = [], [], [], []
    for i, sizes in enumerate(MV2_SIZES):
        bodies = [_rational_points(random_polygon(rng, m, 2)) for m in sizes]
        mv2.append([Job(f"mv2:{i}", "mv2", *_mv_job(bodies))])
    for i in range(MV3_COUNT):
        mv3.append([Job(f"mv3:{i}", "mv3", *_mv_job(_triangle_segments(rng)))])
    for i, (a, b, planted) in enumerate(CRIT_TEMPLATES):
        line = None
        if planted:
            line = (_gaussian(rng, 1), CRat(1, rng.randint(-1, 1)))
        funcs = (_convex_pl(rng, a, line), _convex_pl(rng, b, line))
        crit.append([Job(f"crit:{i}", "crit", *_crit_job(funcs))])
    for i, (a, b) in enumerate(STABLE_SIZES):
        p, q = random_polygon(rng, a, 2), random_polygon(rng, b, 2)
        key = f"stable:{i}"
        shift = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
        unit = [Job(key, "stable", *_stable_job(p, q, rng.randrange(1 << 16)))]
        if i % BERGMAN_EVERY == 0:
            unit.append(Job(f"bergman:{i}", "bergman", *_bergman_job(key, shift)))
        stable.append(unit)
    return interleave([mv2, mv3, crit, stable])
