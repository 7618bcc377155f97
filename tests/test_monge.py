import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etv.polyhedra as polyhedra
import linearity_reference as ref
from canonical_reference import canonical_reference
from etv.dualfan import dual_fan_etp, valid_k_range
from etv.framed import (add, canonicalize, cell_weight, equivalent, is_etp,
                        is_positive, scale)
from etv.jsonio import framedset_to_json
from etv.monge import (AffineFunc, PLFunction, affine_zero, corner_locus,
                       dc_weighted, embed_real, is_r_generated,
                       linearity_complex, mixed_ma, mixed_volume_oracle,
                       mixed_volume_via_ma, support_function)
from etv.polyhedra import VPolytope
from etv.scalars import CRat


def pt(*xs):
    return tuple(F(x) for x in xs)


def aff(n, re_coeffs, c=0):
    """AffineFunc with real covector coefficients on the x-coordinates."""
    w = tuple(CRat(x) for x in re_coeffs)
    return AffineFunc(w=w, c=F(c))


def max_0_x1(n=1):
    return PLFunction.convex(n, [affine_zero(n), aff(n, [1] + [0] * (n - 1))])


def y1_func(n=1):
    # Re<z, -i e1*> = y1
    w = tuple(CRat(0, -1) if j == 0 else CRat(0) for j in range(n))
    return PLFunction.convex(n, [affine_zero(n), AffineFunc(w=w, c=F(0))])


class TestLinearityComplex:
    def test_two_halfspaces(self):
        cells = linearity_complex(max_0_x1())
        assert len(cells) == 2
        assert all(c.poly.dim == 2 for c in cells)

    def test_affine_single_cell(self):
        h = PLFunction.convex(1, [aff(1, [2], c=3)])
        cells = linearity_complex(h)
        assert len(cells) == 1 and cells[0].poly.dim == 2

    def test_difference_tiling(self):
        h = PLFunction(1, tuple(max_0_x1().plus), tuple(y1_func().plus))
        cells = linearity_complex(h)
        assert len(cells) == 4


class TestCornerLocus:
    def test_max_0_x1_is_imaginary_axis(self):
        locus = corner_locus(max_0_x1())
        assert equivalent(locus, dual_fan_etp(
            VPolytope.from_points([pt(0, 0), pt(1, 0)]), 1).result)
        assert is_positive(locus)

    def test_affine_has_empty_locus(self):
        h = PLFunction.convex(1, [aff(1, [5], c=-2)])
        assert corner_locus(h).is_zero()

    def test_square_support_function_locus(self):
        square = VPolytope.from_points([pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)])
        locus = corner_locus(support_function(square))
        assert equivalent(locus, dual_fan_etp(square, 1).result)

    def test_locus_additive(self):
        h1 = max_0_x1()
        h2 = y1_func()
        lhs = corner_locus(h1.plus_sum(h2))
        rhs = add(corner_locus(h1), corner_locus(h2))
        assert equivalent(lhs, rhs)

    def test_convex_locus_positive_in_c2(self):
        h = PLFunction.convex(2, [affine_zero(2), aff(2, [1, 0]), aff(2, [0, 1])])
        locus = corner_locus(h)
        assert is_positive(locus) and is_etp(locus.framed).ok


class TestSupportFunction:
    def test_point_is_affine(self):
        gamma = embed_real([pt(2, 3)])
        h = support_function(gamma)
        assert len(h.plus) == 1
        assert h.value(pt(1, 0, 0, 0)) == 2
        assert h.value(pt(0, 0, 1, 0)) == 3

    def test_segment(self):
        h = support_function(VPolytope.from_points([pt(0, 0), pt(1, 0)]))
        assert h.value(pt(3, 5)) == 3
        assert h.value(pt(-3, 5)) == 0

    def test_minkowski_additive_values(self):
        a = embed_real([pt(0), pt(1)])
        b = embed_real([pt(0), pt(2)])
        hs = support_function(a.minkowski(b))
        ha, hb = support_function(a), support_function(b)
        for z in (pt(1, 0), pt(-1, 2), pt(F(1, 3), F(-5, 7))):
            assert hs.value(z) == ha.value(z) + hb.value(z)


class TestDcWeighted:
    def test_identity_on_segment_fan(self):
        gamma = VPolytope.from_points([pt(0, 0), pt(1, 0)])
        h = support_function(gamma)
        x2 = dual_fan_etp(gamma, 2).framed_rep()
        lhs = dc_weighted(h, x2)
        rhs = dual_fan_etp(gamma, 1).result  # (2n-k+1) = 1
        assert equivalent(lhs, rhs)

    def test_identity_on_square_fan(self):
        square = VPolytope.from_points([pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)])
        h = support_function(square)
        lhs = dc_weighted(h, dual_fan_etp(square, 2).framed_rep())
        rhs = dual_fan_etp(square, 1).result
        assert equivalent(lhs, rhs)

    def test_constant_weight_gives_zero(self):
        gamma = VPolytope.from_points([pt(0, 0), pt(1, 0)])
        h = PLFunction.convex(1, [aff(1, [0], c=7)])
        assert dc_weighted(h, dual_fan_etp(gamma, 2).framed_rep()).is_zero()

    def test_representation_independence(self):
        # refine the fundamental cycle by an extra wall and rerun
        from etv.framed import FramedCell, FramedSet
        from etv.polyhedra import HPoly
        gamma = VPolytope.from_points([pt(0, 0), pt(1, 0)])
        h = support_function(gamma)
        halves = [HPoly(2, ineq=[((F(0), F(1)), F(0))]).canonical(),
                  HPoly(2, ineq=[((F(0), F(-1)), F(0))]).canonical()]
        split_cells = []
        for half in halves:
            for c in dual_fan_etp(gamma, 2).framed_rep().cells:
                piece = c.poly.intersect(half).canonical()
                if not piece.is_empty() and piece.dim == 2:
                    split_cells.append(FramedCell(piece, c.frame))
        refined = FramedSet(1, 2, split_cells)
        assert equivalent(dc_weighted(h, refined),
                          dc_weighted(h, dual_fan_etp(gamma, 2).framed_rep()))

    def test_rejects_non_affine(self):
        gamma = VPolytope.from_points([pt(0, 0), pt(1, 0)])
        full = dual_fan_etp(gamma, 2).result
        merged = canonicalize(full.framed)  # single full-space cell
        h = max_0_x1()
        for dc in (dc_weighted, ref.dc_weighted):
            with pytest.raises(ValueError, match="not affine on a support cell"):
                dc(h, merged)

    def test_rejects_ambient_mismatch(self):
        segment = VPolytope.from_points([pt(0, 0), pt(1, 0)])
        square = VPolytope.from_points([pt(0, 0, 0, 0), pt(1, 0, 0, 0),
                                        pt(0, 0, 1, 0), pt(1, 0, 1, 0)])
        with pytest.raises(ValueError, match="ambient mismatch"):
            dc_weighted(support_function(segment), dual_fan_etp(square, 4).framed_rep())


class TestMixedMa:
    def test_transversal_pair_density_one(self):
        h1 = PLFunction.convex(2, [affine_zero(2), aff(2, [1, 0])])
        h2 = PLFunction.convex(2, [affine_zero(2), aff(2, [0, 1])])
        z = mixed_ma(h1, h2)
        assert len(z.cells()) == 1
        c = z.cells()[0]
        assert cell_weight(c.frame, c.poly.tangent_basis) == 1

    def test_complex_degenerate_pair_is_zero(self):
        h1 = PLFunction.convex(2, [affine_zero(2), aff(2, [1, 0])])
        h2 = y1_func(2)
        assert mixed_ma(h1, h2).is_zero()

    def test_affine_factor_kills(self):
        h1 = max_0_x1(2)
        h2 = PLFunction.convex(2, [aff(2, [3, 1], c=2)])
        assert mixed_ma(h1, h2).is_zero()

    def test_too_many_factors_zero(self):
        h = max_0_x1(1)
        assert mixed_ma(h, h).is_zero()


class TestMixedVolume:
    def test_square_square(self):
        sq = [pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)]
        a = embed_real(sq)
        assert mixed_volume_via_ma(a, a) == 1
        assert mixed_volume_oracle(sq, sq) == 1

    def test_unit_segments(self):
        e1 = [pt(0, 0), pt(1, 0)]
        e2 = [pt(0, 0), pt(0, 1)]
        assert mixed_volume_via_ma(embed_real(e1), embed_real(e2)) == F(1, 2)
        assert mixed_volume_oracle(e1, e2) == F(1, 2)

    def test_parallel_segments_zero(self):
        e1 = [pt(0, 0), pt(1, 0)]
        assert mixed_volume_via_ma(embed_real(e1), embed_real(e1)) == 0
        assert mixed_volume_oracle(e1, e1) == 0

    def test_oracle_polarization_identity(self):
        tri = [pt(0, 0), pt(2, 0), pt(0, 2)]
        assert mixed_volume_oracle(tri, tri) == _area(tri)

    def test_oracle_monotone(self):
        small = [pt(0, 0), pt(1, 0), pt(0, 1)]
        big = [pt(0, 0), pt(2, 0), pt(0, 2), pt(2, 2)]
        probe = [pt(0, 0), pt(1, 1)]
        assert mixed_volume_oracle(small, probe) <= mixed_volume_oracle(big, probe)

    def test_length_in_c1(self):
        seg = [pt(-1), pt(3)]
        assert mixed_volume_via_ma(embed_real(seg)) == 4
        assert mixed_volume_oracle(seg) == 4


def _area(points2):
    from etv.polyhedra import volume
    return volume(points2)


class TestRGenerated:
    def test_real_function_locus(self):
        assert is_r_generated(corner_locus(max_0_x1()))

    def test_imaginary_direction_locus(self):
        assert not is_r_generated(corner_locus(y1_func()))

    def test_zero(self):
        from etv.framed import zero_etv
        assert is_r_generated(zero_etv(1, 1))


class TestNonConvexCornerLoci:
    def rand_affine(self, rng, n):
        w = tuple(CRat(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n))
        return AffineFunc(w, F(rng.randint(-2, 2)))

    def test_difference_functions_give_valid_cycles(self):
        import random
        from etv.framed import add, equivalent, is_etp, negate
        rng = random.Random(90210)
        checked = 0
        while checked < 6:
            n = rng.choice([1, 1, 2])
            plus = tuple(dict.fromkeys(
                [self.rand_affine(rng, n) for _ in range(rng.randint(1, 3))]))
            minus = tuple(dict.fromkeys(
                [self.rand_affine(rng, n) for _ in range(rng.randint(1, 3))]))
            h = PLFunction(n, plus, minus)
            locus = corner_locus(h)
            assert is_etp(locus.framed).ok
            h1 = PLFunction(n, plus, (affine_zero(n),))
            h2 = PLFunction(n, minus, (affine_zero(n),))
            assert equivalent(locus, add(corner_locus(h1),
                                         negate(corner_locus(h2))))
            checked += 1


# ---------------------------------------------------------------------------
# the tiling from the lifted hull, against the LP tiling of the reference

@st.composite
def pl_functions(draw, max_n=3, convex=None):
    """PL functions on C^1 to C^max_n with at most 3 pieces per family, over
    lifted point sets that are often degenerate: each family draws from a
    pool of at most 3 slopes (repeated slopes give vertical lifted edges),
    slopes along one complex line or constants all zero give collinear and
    lower-dimensional lifted sets, pieces repeat (duplicate functions),
    families may have one piece, and a difference may have an empty minus
    family.  Everything comes from a `random.Random` seeded by hypothesis:
    drawn piece by piece, the families are mostly of one piece and the
    hulls mostly one point."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = rng.randint(1, max_n)

    def gaussian():
        return CRat(rng.randint(-2, 2), rng.randint(-2, 2))
    line = rng.choice(["free", "free", "line", "flat"])
    base = [gaussian() for _ in range(n)]

    def slope():
        if line == "line":
            return tuple(gaussian() * u for u in base)
        return tuple(gaussian() for _ in range(n))

    def family(least):
        slopes = [slope() for _ in range(rng.choice([1, 2, 3, 3]))]
        return tuple(AffineFunc(rng.choice(slopes),
                                F(0) if line == "flat" else F(rng.randint(-2, 2)))
                     for _ in range(rng.choice([least, 2, 3, 3])))
    if convex is None:
        convex = rng.random() < 0.5
    return PLFunction(n, family(1), (affine_zero(n),) if convex else family(0))


def _cells(tiling):
    return [(lc.poly.key, lc.plus_active, lc.minus_active) for lc in tiling]


@pytest.fixture
def lp_count(monkeypatch):
    """Counts the LPs of the library, all of which `etv.polyhedra` solves."""
    calls = [0]
    solve = polyhedra.solve_lp

    def counting(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(polyhedra, "solve_lp", counting)
    return calls


def _voronoi(n, sites):
    """max over the sites s of Re<z, w_s> - |s|^2 / 2, with s the real
    coefficients of w_s: the Voronoi cells of the sites, all full-dimensional."""
    funcs = []
    for s in sites:
        w = tuple(CRat(F(s[2 * j]), -F(s[2 * j + 1])) for j in range(n))
        assert AffineFunc(w, F(0)).real_coeffs() == pt(*s)
        funcs.append(AffineFunc(w, -F(sum(x * x for x in s), 2)))
    return funcs


class TestLiftedHull:
    @settings(max_examples=150, deadline=None)
    @given(h=pl_functions())
    def test_cells_match_lp_tiling(self, h):
        got = linearity_complex(h)
        assert _cells(got) == _cells(ref.linearity_complex(h))
        assert all(lc.poly._canonical and lc.poly.dim == 2 * h.n for lc in got)

    def test_empty_minus_family_has_no_cells(self):
        h = PLFunction(1, max_0_x1().plus, ())
        assert linearity_complex(h) == [] and corner_locus(h).is_zero()

    @pytest.mark.parametrize("n, sites", [
        (1, [(0, 0), (2, 0), (0, 2), (-2, 1), (1, -3)]),
        (2, [(0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2),
             (1, 1, -1, 1)]),
    ])
    def test_voronoi_tiling_solves_no_lp(self, n, sites, lp_count):
        funcs = _voronoi(n, sites)
        cells = linearity_complex(PLFunction.convex(n, funcs))
        assert lp_count[0] == 0 and len(cells) == len(sites)
        for f, lc in zip(funcs, cells):
            assert lc.plus_active == f
            ineq = [(tuple(b - a for a, b in zip(f.real_coeffs(), g.real_coeffs())),
                     f.c - g.c) for g in funcs if g != f]
            assert lc.poly.key == canonical_reference(2 * n, (), ineq).key

    def test_corner_loci_of_a_pair_solve_no_lp(self, lp_count):
        # a (2, 3)-piece convex pair on C^2, as in the zero-criterion jobs
        h1 = PLFunction.convex(2, [aff(2, [1, -1], c=1), AffineFunc((CRat(0, 2), CRat(1)), F(0))])
        h2 = PLFunction.convex(2, [affine_zero(2), AffineFunc((CRat(1, 1), CRat(0)), F(-1)),
                                   AffineFunc((CRat(-2), CRat(0, -1)), F(2))])
        loci = [corner_locus(h) for h in (h1, h2)]
        assert lp_count[0] == 0
        assert [len(locus.cells()) for locus in loci] == [1, 3]


def _dc_outcome(dc, h, x):
    """The JSON text of dc(h, x), or ValueError when dc rejects the input."""
    try:
        return json.dumps(framedset_to_json(dc(h, x)))
    except ValueError:
        return ValueError


@pytest.fixture(scope="module")
def corpus_fans(polytope_corpus):
    """n -> the dual fans of the corpus bodies in C^n at every grade k with
    k - 1 >= n that the body has."""
    fans = {1: [], 2: []}
    for _, gamma in polytope_corpus:
        n = gamma.ambient // 2
        for k in range(n + 1, 2 * n + 1):
            if 2 * n - k <= gamma.dim:
                fans[n].append(dual_fan_etp(gamma, k).framed_rep())
    return fans


class TestDcAgainstMaxRegions:
    """`dc_weighted` reads the linearity tiling; the reference of
    `linearity_reference` tries the max-region of every ruling functional
    with LPs.  Both give the same framed set, byte for byte, or both reject
    the input as not affine on a support cell."""

    def test_corpus_functions_on_corpus_fans(self, polytope_corpus, corpus_fans):
        # support functions, and their differences with that of a segment
        # that is a Minkowski summand of a corpus body (mink-sq-diag, mink-segs)
        minus = {seg.ambient // 2: support_function(seg).plus
                 for name, seg in polytope_corpus if name in ("seg-diag", "seg-cplx")}
        funcs = []
        for _, gamma in polytope_corpus:
            h = support_function(gamma)
            funcs += [h, PLFunction(h.n, h.plus, minus[h.n])]
        outcomes = []
        for h in funcs:
            for x in corpus_fans[h.n]:
                outcomes.append(_dc_outcome(dc_weighted, h, x))
                assert outcomes[-1] == _dc_outcome(ref.dc_weighted, h, x)
        assert 0 < outcomes.count(ValueError) < len(outcomes)

    @settings(max_examples=60, deadline=None)
    @given(h=pl_functions(max_n=2), pick=st.integers(0, 2 ** 16))
    def test_random_functions(self, h, pick, corpus_fans):
        """On a corpus fan and, in C^2, on the corner locus of h itself."""
        fans = corpus_fans[h.n]
        cycles = [fans[pick % len(fans)]]
        if h.n == 2:
            cycles.append(corner_locus(h))
        for x in cycles:
            assert _dc_outcome(dc_weighted, h, x) == _dc_outcome(ref.dc_weighted, h, x)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32))
    def test_own_corner_locus(self, seed):
        """dc(h, corner locus of h) on C^2, for h of two or three plus and one
        or two minus pieces: each wall lies in the two regions beside it, so
        the extension the two sides choose may differ."""
        rng = random.Random(seed)

        def family(size):
            return tuple(dict.fromkeys(
                AffineFunc(tuple(CRat(rng.randint(-1, 1), rng.randint(-1, 1))
                                 for _ in range(2)), F(rng.randint(-1, 1)))
                for _ in range(size)))
        h = PLFunction(2, family(rng.randint(2, 3)), family(rng.randint(1, 2)))
        x = corner_locus(h)
        assert _dc_outcome(dc_weighted, h, x) == _dc_outcome(ref.dc_weighted, h, x)


class TestCornerLociAreCycles:
    """`corner_locus` skips validation, since a corner locus is a cycle by
    the theorem of the module; these check that it is one."""

    def test_corpus_support_functions(self, polytope_corpus):
        for name, gamma in polytope_corpus:
            assert is_etp(corner_locus(support_function(gamma)).framed).ok, name

    @settings(max_examples=60, deadline=None)
    @given(h=pl_functions(max_n=2))
    def test_random_functions(self, h):
        assert is_etp(corner_locus(h).framed).ok


class TestWeightedBoundariesAreCycles:
    """`dc_weighted` does not check its output, which is a cycle by theorem;
    these check that it is one."""

    def test_corpus_fans(self, polytope_corpus):
        nonzero = 0
        for name, gamma in polytope_corpus:
            h = support_function(gamma)
            for k in valid_k_range(gamma):
                if k - 1 >= gamma.ambient // 2:
                    out = dc_weighted(h, dual_fan_etp(gamma, k).framed_rep())
                    assert is_etp(out.framed).ok, (name, k)
                    nonzero += not out.is_zero()
        assert nonzero >= 20
