import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degeneracy_reference as ref
from etv import degeneracy
from etv.degeneracy import (DegeneracyWitness, HDegeneracyCertificate,
                            VectorFamily, degeneracy_witness,
                            hyperplane_equations, is_nondegenerate,
                            ma_zero_criterion, mixed_volume_zero_criterion,
                            validate_h_certificate, witness_bruteforce)
from etv.exterior import real_covector_to_ccov
from etv.monge import (AffineFunc, PLFunction, affine_zero, corner_locus,
                       linearity_complex, mixed_ma, mixed_volume_oracle,
                       support_function)
from etv.scalars import CRat


def cvec(*coords):
    return tuple(CRat.of(c) if not isinstance(c, CRat) else c for c in coords)


def basis_vec(n, i):
    return cvec(*(1 if j == i else 0 for j in range(n)))


class TestNondegeneracy:
    def test_independent_singletons(self):
        fam = VectorFamily(2, ((basis_vec(2, 0),), (basis_vec(2, 1),)))
        assert is_nondegenerate(fam)

    def test_repeated_singleton(self):
        fam = VectorFamily(2, ((basis_vec(2, 0),), (basis_vec(2, 0),)))
        assert not is_nondegenerate(fam)

    def test_three_sets_in_a_plane(self):
        s = (basis_vec(3, 0), basis_vec(3, 1))
        fam = VectorFamily(3, (s, s, s))
        assert not is_nondegenerate(fam)

    def test_more_sets_than_dimension(self):
        s = (basis_vec(2, 0),)
        fam = VectorFamily(2, (s, (basis_vec(2, 1),), s))
        assert not is_nondegenerate(fam)


class TestWitness:
    def test_repeated_singleton_witness(self):
        fam = VectorFamily(2, ((basis_vec(2, 0),), (basis_vec(2, 0),)))
        w = degeneracy_witness(fam)
        assert w.p == 2 and w.validate(fam)
        assert len(w.subspace_basis) == 1

    def test_three_sets_in_plane_witness(self):
        s = (basis_vec(3, 0), basis_vec(3, 1))
        fam = VectorFamily(3, (s, s, s))
        w = degeneracy_witness(fam)
        assert w.p == 3 and w.validate(fam)
        oracle = witness_bruteforce(fam)
        assert oracle is not None and oracle.p == 3

    def test_mixed_example(self):
        fam = VectorFamily(3, ((basis_vec(3, 0),),
                               (basis_vec(3, 0), basis_vec(3, 1)),
                               (basis_vec(3, 0), basis_vec(3, 1))))
        w = degeneracy_witness(fam)
        assert w.validate(fam)
        oracle = witness_bruteforce(fam)
        assert oracle is not None and oracle.validate(fam)

    def test_nondegenerate_raises(self):
        fam = VectorFamily(2, ((basis_vec(2, 0),), (basis_vec(2, 1),)))
        with pytest.raises(ValueError):
            degeneracy_witness(fam)

    def test_bruteforce_none_when_nondegenerate(self):
        fam = VectorFamily(2, ((basis_vec(2, 0),), (basis_vec(2, 1),)))
        assert witness_bruteforce(fam) is None


def random_family(rng, n, k):
    sets = []
    for _ in range(k):
        size = rng.randint(1, 3)
        vecs = []
        while len(vecs) < size:
            v = tuple(CRat(rng.randint(-2, 2), rng.randint(-1, 1))
                      for _ in range(n))
            if any(not c.is_zero() for c in v):
                vecs.append(v)
        sets.append(tuple(vecs))
    return VectorFamily(n, tuple(sets))


class TestAgainstOracle:
    def test_random_families_agree(self):
        rng = random.Random(20240817)
        for _ in range(120):
            n = rng.randint(1, 4)
            k = rng.randint(1, min(6, n + 2))
            fam = random_family(rng, n, k)
            nd = is_nondegenerate(fam)
            oracle = witness_bruteforce(fam)
            assert nd == (oracle is None)
            if not nd:
                w = degeneracy_witness(fam)
                assert w.validate(fam)


def _gaussian_vector(rng, n, real=False):
    while True:
        v = tuple(CRat(rng.randint(-3, 3), 0 if real else rng.randint(-3, 3))
                  for _ in range(n))
        if any(not c.is_zero() for c in v):
            return v


def _combination(rng, basis, n):
    while True:
        coeffs = [CRat(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in basis]
        v = tuple(sum((c * b[j] for c, b in zip(coeffs, basis)), CRat(0))
                  for j in range(n))
        if any(not c.is_zero() for c in v):
            return v


def template_family(rng, n, kind, p=0):
    """Families shaped like the benchmark's: k = n sets of two generic
    vectors (free), the last p of them inside a random (p-1)-dim subspace
    (planted), or k = n + 1 generic sets (over)."""
    k = n + 1 if kind == "over" else n
    sets = [[_gaussian_vector(rng, n) for _ in range(2)] for _ in range(k)]
    if kind == "planted":
        basis = [_gaussian_vector(rng, n) for _ in range(p - 1)]
        for i in range(k - p, k):
            sets[i] = [_combination(rng, basis, n) for _ in range(2)]
    return VectorFamily(n, tuple(tuple(s) for s in sets))


def rational_family(rng, n, k):
    """Real covectors with halves, drawn from a subspace of random dimension
    so that degenerate families are common."""
    gens = [_gaussian_vector(rng, n, real=True) for _ in range(rng.randint(1, n))]
    sets = []
    for _ in range(k):
        vecs = []
        while len(vecs) < rng.randint(1, 3):
            coeffs = [CRat(F(rng.randint(-2, 2), rng.randint(1, 2))) for _ in gens]
            v = tuple(sum((c * g[j] for c, g in zip(coeffs, gens)), CRat(0))
                      for j in range(n))
            if any(not c.is_zero() for c in v):
                vecs.append(v)
        sets.append(tuple(vecs))
    return VectorFamily(n, tuple(sets))


def _verdict_and_witness(module, fam):
    nondegenerate = module.is_nondegenerate(fam)
    return nondegenerate, None if nondegenerate else module.degeneracy_witness(fam)


class TestAgainstRankReference:
    """The echelon-form search returns exactly what the search by
    `rank(chosen + [v])` returned: the same verdict and the same witness."""

    def _families(self):
        rng = random.Random(1942)
        for _ in range(60):
            n = rng.randint(1, 4)
            yield random_family(rng, n, rng.randint(1, n + 2))
        for _ in range(60):
            n = rng.randint(1, 4)
            yield rational_family(rng, n, rng.randint(1, n + 2))
        for n, kind, p in [(3, "free", 0), (4, "free", 0), (5, "free", 0),
                           (4, "planted", 2), (4, "planted", 3), (5, "planted", 2),
                           (4, "over", 0), (5, "over", 0)]:
            for _ in range(2):
                yield template_family(rng, n, kind, p)

    def test_verdicts_and_witnesses_equal_reference(self):
        kinds = set()
        for fam in self._families():
            got = _verdict_and_witness(degeneracy, fam)
            assert got == _verdict_and_witness(ref, fam)
            kinds.add("nondegenerate" if got[0] else got[1].p)
        assert {"nondegenerate", 2, 3, 4} <= kinds


class TestWitnessSearchCount:
    def _count_searches(self, monkeypatch):
        def forbidden(family):
            raise AssertionError("degeneracy_witness re-ran is_nondegenerate")
        monkeypatch.setattr(degeneracy, "is_nondegenerate", forbidden)
        calls = []
        search = degeneracy._subfamily_transversal
        monkeypatch.setattr(degeneracy, "_subfamily_transversal",
                            lambda fam, idx: calls.append(idx) or search(fam, idx))
        return calls

    def test_nondegenerate_family_raises_without_verdict_call(self, monkeypatch):
        calls = self._count_searches(monkeypatch)
        fam = template_family(random.Random(7), 4, "free")
        with pytest.raises(ValueError):
            degeneracy_witness(fam)
        assert len(calls) == fam.k

    def test_overfull_family_stops_at_n_chosen_sets(self, monkeypatch):
        calls = self._count_searches(monkeypatch)
        rng = random.Random(11)
        for n in range(2, 6):
            fam = template_family(rng, n, "over")
            del calls[:]
            w = degeneracy_witness(fam)
            assert w == ref.degeneracy_witness(fam)
            assert len(calls) == n   # generic sets: the first n are chosen
        for _ in range(20):
            n = rng.randint(1, 4)
            fam = random_family(rng, n, n + 1)
            del calls[:]
            assert degeneracy_witness(fam) == ref.degeneracy_witness(fam)
            assert len(calls) <= n + 1


class TestHyperplaneEquations:
    def test_x1_hyperplane(self):
        h = PLFunction.convex(2, [affine_zero(2),
                                  AffineFunc(cvec(1, 0), F(0))])
        covs = hyperplane_equations(corner_locus(h))
        assert covs == [cvec(1, 0)]

    def test_y1_hyperplane_normalizes_to_real_line(self):
        w = cvec(CRat(0, -1), 0)  # Re<z, -i e1*> = y1
        h = PLFunction.convex(2, [affine_zero(2), AffineFunc(w, F(0))])
        covs = hyperplane_equations(corner_locus(h))
        assert covs == [cvec(1, 0)]  # the complex line of e1*

    def test_square_locus_in_c1(self):
        from etv.monge import embed_real
        from etv.polyhedra import VPolytope
        sq = VPolytope.from_points([(F(0), F(0)), (F(1), F(0)),
                                    (F(0), F(1)), (F(1), F(1))])
        covs = hyperplane_equations(corner_locus(support_function(sq)))
        assert len(covs) == 4
        assert all(w == cvec(1) for w in covs)  # all the same complex line in C^1


def _wall_equations(tiling):
    return {degeneracy._normalize_line(real_covector_to_ccov(a))
            for lc in tiling for a, _ in lc.poly.ineq}


class TestWallEquations:
    """`ma_zero_criterion` reads the hyperplane equations of a convex
    function off the facet rows of its linearity tiling; they are those of
    the cells of its corner locus."""

    def test_corpus_support_functions(self, polytope_corpus):
        for name, gamma in polytope_corpus:
            h = support_function(gamma)
            assert _wall_equations(linearity_complex(h)) \
                == set(hyperplane_equations(corner_locus(h))), name

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32))
    def test_random_convex_functions(self, seed):
        # few slopes and constants, so that pieces repeat slopes and tie
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        slopes = [cvec(*(CRat(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(n)))
                  for _ in range(3)]
        h = PLFunction.convex(n, [AffineFunc(rng.choice(slopes), F(rng.randint(-1, 1)))
                                  for _ in range(rng.randint(1, 4))])
        tiling = linearity_complex(h)
        assert _wall_equations(tiling) == set(hyperplane_equations(corner_locus(h)))
        assert (len(tiling) == 1) == corner_locus(h).is_zero()


class TestMaZeroCriterion:
    def test_complex_parallel_pair(self):
        h1 = PLFunction.convex(2, [affine_zero(2), AffineFunc(cvec(1, 0), F(0))])
        h2 = PLFunction.convex(2, [affine_zero(2),
                                   AffineFunc(cvec(CRat(0, -1), 0), F(0))])
        zero, cert = ma_zero_criterion(h1, h2)
        assert zero and cert is not None
        assert validate_h_certificate(cert, [h1, h2])
        # the invariance subspace is the z2 complex axis
        assert len(cert.h_basis) == 1
        assert cert.h_basis[0][0].is_zero()
        assert mixed_ma(h1, h2).is_zero()

    def test_independent_pair_nonzero(self):
        h1 = PLFunction.convex(2, [affine_zero(2), AffineFunc(cvec(1, 0), F(0))])
        h2 = PLFunction.convex(2, [affine_zero(2), AffineFunc(cvec(0, 1), F(0))])
        zero, cert = ma_zero_criterion(h1, h2)
        assert not zero and cert is None
        assert not mixed_ma(h1, h2).is_zero()

    def test_repeated_segment_support_function(self):
        from etv.monge import embed_real
        seg = embed_real([(F(0), F(0)), (F(1), F(0))])
        h = support_function(seg)
        zero, cert = ma_zero_criterion(h, h)
        assert zero and validate_h_certificate(cert, [h, h])

    def test_affine_factor(self):
        h1 = PLFunction.convex(2, [AffineFunc(cvec(3, 1), F(2))])
        h2 = PLFunction.convex(2, [affine_zero(2), AffineFunc(cvec(0, 1), F(0))])
        zero, cert = ma_zero_criterion(h1, h2)
        assert zero and cert.subset == (0,)

    def test_rejects_nonconvex(self):
        h = PLFunction(2, (affine_zero(2),),
                       (affine_zero(2), AffineFunc(cvec(1, 0), F(0))))
        with pytest.raises(ValueError):
            ma_zero_criterion(h, h)


class TestMixedVolumeZero:
    def test_parallel_segments(self):
        e1 = [(F(0), F(0)), (F(1), F(0))]
        zero, subset, basis = mixed_volume_zero_criterion(e1, e1)
        assert zero and len(subset) == 2 and len(basis) == 1
        assert mixed_volume_oracle(e1, e1) == 0

    def test_square_square_nonzero(self):
        sq = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
        zero, subset, basis = mixed_volume_zero_criterion(sq, sq)
        assert not zero
        assert mixed_volume_oracle(sq, sq) == 1

    def test_triangle_and_parallel_segments_in_r3(self):
        tri = [(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0))]
        seg = [(F(0), F(0), F(0)), (F(0), F(0), F(2))]
        zero, subset, basis = mixed_volume_zero_criterion(tri, seg, seg)
        assert zero and len(subset) == 2
        assert mixed_volume_oracle(tri, seg, seg) == 0

    def test_point_body(self):
        pt_body = [(F(1), F(2))]
        seg = [(F(0), F(0)), (F(1), F(0))]
        zero, subset, basis = mixed_volume_zero_criterion(pt_body, seg)
        assert zero and subset == (0,) and basis == ()

    @pytest.mark.parametrize("bodies", [
        ([(0, 0), (1, 0)], [(0, 0, 0), (1, 0, 0)]),
        ([(0, 0), (1, 0)], [(0, 0), (0, 1, 0)]),
        ([(0, 0, 0), (1, 0, 0)], [(0, 0), (0, 1)], [(0, 0, 0), (0, 0, 1)]),
    ], ids=["r2-and-r3", "point-of-r3", "r2-among-r3"])
    def test_points_of_another_dimension_are_rejected(self, bodies):
        """The bodies must be point lists in R^n, n the number of bodies."""
        for criterion in (mixed_volume_zero_criterion, mixed_volume_oracle):
            with pytest.raises(ValueError, match="point lists in R\\^"):
                criterion(*bodies)


class TestCriterionInvariants:
    def test_mv_zero_against_oracle_random(self):
        rng = random.Random(314159)
        for trial in range(25):
            n = rng.randint(2, 3)
            bodies = []
            for _ in range(n):
                npts = rng.randint(1, 3)
                pts = set()
                while len(pts) < npts:
                    pts.add(tuple(F(rng.randint(-2, 2)) for _ in range(n)))
                bodies.append(list(pts))
            zero, subset, basis = mixed_volume_zero_criterion(*bodies)
            assert zero == (mixed_volume_oracle(*bodies) == 0), f"trial {trial}"

    def test_verdict_translation_invariant(self):
        rng = random.Random(6535)
        e1 = [(F(0), F(0)), (F(1), F(0))]
        sq = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
        for bodies in [(e1, e1), (e1, sq), (sq, sq)]:
            base = mixed_volume_zero_criterion(*bodies)[0]
            for _ in range(3):
                shifted = []
                for b in bodies:
                    vec = tuple(F(rng.randint(-3, 3)) for _ in b[0])
                    shifted.append([tuple(x + v for x, v in zip(p, vec)) for p in b])
                assert mixed_volume_zero_criterion(*shifted)[0] == base

    def test_ma_verdict_affine_shift_invariant(self):
        h1 = PLFunction.convex(2, [affine_zero(2), AffineFunc(cvec(1, 0), F(0))])
        h2 = PLFunction.convex(2, [affine_zero(2), AffineFunc(cvec(0, 1), F(0))])
        base = ma_zero_criterion(h1, h2)[0]
        bump = AffineFunc(cvec(2, -1), F(3))
        shifted = [PLFunction.convex(2, [AffineFunc(
            tuple(a + b for a, b in zip(f.w, bump.w)), f.c + bump.c)
            for f in h.plus]) for h in (h1, h2)]
        assert ma_zero_criterion(*shifted)[0] == base
