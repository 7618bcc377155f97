"""degeneracy: nondegeneracy verdicts and witnesses of vector families over Q(i).

No linear programs run here; `linalg` (rank and rref over Gaussian
rationals) does almost all of the work, so this workload is the one that
bypasses every `lp`/`polyhedra` change.

A round is 78 families from a fixed list of templates (n, kind, planted
size p), every set holding two vectors; the seed draws the vectors, with
Gaussian-integer entries in [-3, 3] + [-3, 3]i.  Kinds:

  free     k = n sets of generic vectors, n = 3..6: nondegenerate, found
           greedily
  planted  k = n sets, the last p of them inside a random (p-1)-dim
           subspace (n = 4 with p = 2, 3; n = 5 with p = 2): degenerate,
           and the backtracking search must exhaust every partial
           transversal of the other sets first (the heavy tail of the
           workload)
  over     k = n + 1 = 5 sets of generic vectors: degenerate by count

Each job runs `is_nondegenerate` and, when the family is degenerate,
`degeneracy_witness`.  Checks: the verdict agrees with `witness_bruteforce`
(subset enumeration) and every witness validates.
"""

from __future__ import annotations

from common import Job, interleave
from etv.degeneracy import (VectorFamily, degeneracy_witness, is_nondegenerate,
                            witness_bruteforce)
from etv.scalars import CRat

# (n, kind, p, count): every set has two vectors; p is the size of the
# planted degenerate subfamily.  The cheap free families and the costly
# planted n = 5 families are equal in number, so the median job falls in
# the middle of the block of planted n = 4 and over-full families and
# the 90th percentile in the middle of the planted n = 5 block; each block
# is a run of jobs of near-equal cost, so the percentiles do not jump
# between blocks from one seed to the next.
TEMPLATES = (
    (3, "free", 0, 4), (4, "free", 0, 4), (5, "free", 0, 5), (6, "free", 0, 5),
    (4, "planted", 2, 17), (4, "planted", 3, 16), (4, "over", 0, 9),
    (5, "planted", 2, 18),
)
SET_SIZE = 2


def _gaussian_vector(rng, n):
    while True:
        v = tuple(CRat(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n))
        if any(not c.is_zero() for c in v):
            return v


def _combination(rng, basis, n):
    while True:
        coeffs = [CRat(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in basis]
        v = tuple(sum((c * b[j] for c, b in zip(coeffs, basis)), CRat(0))
                  for j in range(n))
        if any(not c.is_zero() for c in v):
            return v


def family(rng, n, kind, p):
    """A family of the given template with freshly drawn vectors."""
    k = n + 1 if kind == "over" else n
    sets = [[_gaussian_vector(rng, n) for _ in range(SET_SIZE)] for _ in range(k)]
    if kind == "planted":
        basis = [_gaussian_vector(rng, n) for _ in range(p - 1)]
        for i in range(k - p, k):
            sets[i] = [_combination(rng, basis, n) for _ in range(SET_SIZE)]
    return VectorFamily(n=n, sets=tuple(tuple(s) for s in sets))


def _job(fam):
    def run(results):
        if is_nondegenerate(fam):
            return True, None
        return False, degeneracy_witness(fam)

    def check(out, results):
        nondegenerate, witness = out
        oracle = witness_bruteforce(fam)
        if nondegenerate:
            return oracle is None
        return oracle is not None and witness.validate(fam)
    return run, check


def make_round(rng, rnd):
    return interleave([[[Job(f"{kind}:{n}:{p}:{i}", kind,
                             *_job(family(rng, n, kind, p)))]
                        for i in range(count)]
                       for n, kind, p, count in TEMPLATES])
