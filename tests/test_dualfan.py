import random
from collections import Counter
from fractions import Fraction as F

import pytest

import etv.dualfan as dualfan
import etv.polyhedra as polyhedra
import orientation_reference as oref
from dual_cone_reference import dual_cone_by_lp
from etv.dualfan import (DualFanEtp, dual_fan_etp, pascal_check,
                         real_volume_recursion_check, symplectic_orientation_sign,
                         valid_k_range, volume_recursion_check)
from etv.exterior import Alt, complex_split
from etv.framed import equivalent, is_etp, is_positive, translate
from etv.monge import corner_locus, support_function
from etv.polyhedra import HPoly, VPolytope, dual_cone
from etv.scalars import CRat


def pt(*xs):
    return tuple(F(x) for x in xs)


def seg01():
    # [0, 1] on the real axis of the dual of C^1
    return VPolytope.from_points([pt(0, 0), pt(1, 0)])


def unit_square_c1():
    return VPolytope.from_points([pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)])


def triangle_c1():
    return VPolytope.from_points([pt(0, 0), pt(1, 0), pt(0, 1)])


class TestSegmentFan:
    def test_hypersurface_is_imaginary_axis(self):
        fan = dual_fan_etp(seg01(), 1)
        cells = fan.result.cells()
        assert len(cells) == 1
        cell = cells[0]
        assert cell.poly.dim == 1 and cell.poly.contains_point(pt(0, 7))
        assert cell.frame == Alt(1, {(0,): CRat(0, -1)})
        assert is_positive(fan.result)

    def test_length_scales_weight(self):
        gamma = VPolytope.from_points([pt(0, 0), pt(3, 0)])
        fan = dual_fan_etp(gamma, 1)
        assert fan.result.cells()[0].frame == Alt(1, {(0,): CRat(0, -3)})

    def test_top_grade_is_unit_fundamental(self):
        fan = dual_fan_etp(seg01(), 2)
        cells = fan.result.cells()
        assert len(cells) == 1
        assert cells[0].poly.dim == 2 and not cells[0].poly.ineq
        assert cells[0].frame == Alt(0, {(): CRat(1)})


class TestSquareFanC1:
    def test_four_rays_with_expected_frames(self):
        fan = dual_fan_etp(unit_square_c1(), 1)
        cells = fan.result.cells()
        assert len(cells) == 4
        for c in cells:
            ray_dir = None
            for probe in (pt(1, 0), pt(-1, 0), pt(0, 1), pt(0, -1)):
                if c.poly.contains_point(probe):
                    ray_dir = probe
            assert ray_dir is not None
            if ray_dir in (pt(0, 1), pt(0, -1)):
                assert c.frame == Alt(1, {(0,): CRat(0, -1)})
            else:
                assert c.frame == Alt(1, {(0,): CRat(1)})

    def test_balanced_and_positive(self):
        fan = dual_fan_etp(unit_square_c1(), 1)
        assert is_etp(fan.result.framed).ok
        assert is_positive(fan.result)


class TestDegenerateFace:
    def test_complex_square_in_c2_gives_zero(self):
        # square spanned by e1* and i e1* inside the dual of C^2
        gamma = VPolytope.from_points([pt(0, 0, 0, 0), pt(1, 0, 0, 0),
                                       pt(0, 1, 0, 0), pt(1, 1, 0, 0)])
        assert oref.face_is_degenerate(gamma)
        fan = dual_fan_etp(gamma, 2)
        assert fan.result.is_zero()
        assert all(frame.is_zero() for face, cone, frame in fan.face_map
                   if face.dim == 2)

    def test_face_degenerate_iff_its_cone_is(self, polytope_corpus):
        """At every valid grade a face is degenerate exactly when the tangent
        space of its dual cone is, which is what `dual_fan_etp` reads."""
        rng = random.Random(5)
        bodies = [gamma for _, gamma in polytope_corpus] + [
            VPolytope.from_points([tuple(F(rng.randint(-1, 1)) for _ in range(2 * n))
                                   for _ in range(rng.randint(2, 6))])
            for n in (1, 2) * 12]
        verdicts = Counter()
        for gamma in bodies:
            n = gamma.ambient // 2
            for k in valid_k_range(gamma):
                for face in gamma.faces(2 * n - k):
                    split = complex_split(dual_cone(gamma, face).tangent_basis)
                    assert split.degenerate == oref.face_is_degenerate(face)
                    verdicts[split.degenerate] += 1
        assert verdicts[True] >= 4 and verdicts[False] >= 370

    def test_its_edges_still_frame_k3(self):
        gamma = VPolytope.from_points([pt(0, 0, 0, 0), pt(1, 0, 0, 0),
                                       pt(0, 1, 0, 0), pt(1, 1, 0, 0)])
        fan = dual_fan_etp(gamma, 3)
        assert not fan.result.is_zero()
        assert is_positive(fan.result)


class TestSymplecticSign:
    def test_basic_plus(self):
        # quotient e_{y1}, face e1*: Im<i, 1> = 1
        assert symplectic_orientation_sign([pt(0, 1)], [pt(1, 0)]) == 1

    def test_flip(self):
        assert symplectic_orientation_sign([pt(0, -1)], [pt(1, 0)]) == -1

    def test_block_case(self):
        q = [pt(0, 1, 0, 0), pt(0, 0, 0, 1)]
        f = [pt(1, 0, 0, 0), pt(0, 0, 1, 0)]
        assert symplectic_orientation_sign(q, f) == 1
        assert symplectic_orientation_sign(q, list(reversed(f))) == -1

    def test_degenerate_pairing_raises(self):
        # quotient e_{x1} against face e1*: Im<1,1> = 0
        with pytest.raises(ValueError):
            symplectic_orientation_sign([pt(1, 0)], [pt(1, 0)])


class TestCocycles:
    def test_pascal_square(self):
        assert pascal_check(unit_square_c1(), 0)
        assert pascal_check(unit_square_c1(), 1)

    def test_pascal_hexagon(self):
        hexa = VPolytope.from_points([pt(2, 0), pt(1, 2), pt(-1, 2), pt(-2, 0),
                                      pt(-1, -2), pt(1, -2)])
        assert pascal_check(hexa, 0)

    def test_pascal_rejects_corrupted(self):
        # corrupt one edge multivector by recomputing the boundary sum by hand
        from etv.dualfan import _oriented_facets
        from etv.polyhedra import volume_multivector
        total = Alt(1)
        first = True
        for sub, sign in _oriented_facets(unit_square_c1()):
            p = volume_multivector(sub, list(sub.tangent_basis))
            if first:
                p = p.scale(F(2))  # deliberate corruption
                first = False
            total = total + (p if sign > 0 else -p)
        assert not total.is_zero()

    def test_facets_match_h_round_trip(self, polytope_corpus):
        from etv.dualfan import _oriented_facets
        compared = 0
        for _, gamma in polytope_corpus:
            for m in range(1, gamma.dim + 1):
                for face in gamma.faces(m):
                    new = [(f.vertices, tuple(f.tangent_basis), sign)
                           for f, sign in _oriented_facets(face)]
                    old = [(f.vertices, tuple(basis), sign)
                           for f, basis, sign in oref.oriented_facets(face)]
                    assert sorted(new) == sorted(old)
                    compared += 1
        assert compared == 80

    def test_cocycle_checks_use_the_hull_only(self, polytope_corpus, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("cocycle check left the V-form")

        monkeypatch.setattr(VPolytope, "to_hpoly", forbidden)
        monkeypatch.setattr(HPoly, "vertices", forbidden)
        monkeypatch.setattr(polyhedra, "solve_lp", forbidden)
        for _, gamma in polytope_corpus:
            assert all(pascal_check(gamma, m) for m in range(gamma.dim + 1))
            assert all(volume_recursion_check(gamma, m) and
                       real_volume_recursion_check(gamma, m) for m in range(gamma.dim))

    def test_volume_recursion_square_and_triangle(self):
        assert volume_recursion_check(unit_square_c1(), 0)
        assert volume_recursion_check(triangle_c1(), 0)
        assert real_volume_recursion_check(unit_square_c1(), 0)
        assert real_volume_recursion_check(triangle_c1(), 0)

    def test_volume_recursion_in_c2(self):
        square4 = VPolytope.from_points([pt(0, 0, 0, 0), pt(1, 0, 0, 0),
                                         pt(0, 0, 1, 0), pt(1, 0, 1, 0)])
        assert volume_recursion_check(square4, 0)
        assert pascal_check(square4, 0)
        assert pascal_check(square4, 1)


class TestFanProperties:
    def test_translation_invariance_of_dual_fan(self):
        gamma = unit_square_c1()
        shifted = gamma.translate(pt(5, -3))
        for k in valid_k_range(gamma):
            a = dual_fan_etp(gamma, k).result
            b = dual_fan_etp(shifted, k).result
            assert equivalent(a, b)

    def test_all_grades_valid_and_positive(self):
        for gamma in (seg01(), unit_square_c1(), triangle_c1()):
            for k in valid_k_range(gamma):
                fan = dual_fan_etp(gamma, k)
                assert is_etp(fan.result.framed).ok
                assert is_positive(fan.result)

    def test_minkowski_fan_refines_factors(self):
        from etv.polyhedra import dual_cone
        g1 = seg01()
        g2 = VPolytope.from_points([pt(0, 0), pt(0, 1)])
        s = g1.minkowski(g2)

        def complete_fan(gamma):
            return [dual_cone(gamma, f) for m in range(gamma.dim + 1)
                    for f in gamma.faces(m)]

        for cone in complete_fan(s):
            for factor in (g1, g2):
                assert any(fc.contains_poly(cone) for fc in complete_fan(factor))

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            dual_fan_etp(seg01(), 0)
        with pytest.raises(ValueError):
            dual_fan_etp(seg01(), 3)


class TestConesFromTheLattice:
    def test_corpus_fans_build_their_cones_with_no_lp(self, polytope_corpus, monkeypatch):
        fans = [(gamma, k) for _, gamma in polytope_corpus for k in valid_k_range(gamma)]
        want = [[dual_cone_by_lp(gamma, face).key for face in gamma.faces(gamma.ambient - k)]
                for gamma, k in fans]

        def refuse(*args, **kwargs):
            raise AssertionError("a dual cone solved an LP")

        monkeypatch.setattr(polyhedra, "solve_lp", refuse)
        # merging the cones may solve LPs; building them may not
        monkeypatch.setattr(dualfan, "canonicalize", lambda framed, validate: framed)
        got = [[cone.key for _, cone, _ in dual_fan_etp(gamma, k).face_map] for gamma, k in fans]
        assert got == want and len(fans) > 40


class TestSharedValues:
    def test_corner_locus_and_fan_share_cells_and_frames(self, polytope_corpus):
        """The corner locus of the support function recomputes the fan of
        grade 2n - 1: equal cells are one `HPoly`, equal frames one `Alt`."""
        cells = frames = 0
        for _, gamma in polytope_corpus:
            k = gamma.ambient - 1
            if k not in valid_k_range(gamma):
                continue
            fan = dual_fan_etp(gamma, k, validate=False)
            locus = corner_locus(support_function(gamma))
            held = [(cone, frame) for _, cone, frame in fan.face_map]
            held += [(c.poly, c.frame) for c in fan.result.cells()]
            for poly, frame in held:
                for c in locus.cells():
                    if poly.key == c.poly.key:
                        assert poly is c.poly
                        cells += 1
                    if frame == c.frame:
                        assert frame is c.frame
                        frames += 1
        assert cells > 10 and frames > 10


class TestN3Smoke:
    def test_segment_fan_in_c3(self):
        seg = VPolytope.from_points([pt(0, 0, 0, 0, 0, 0), pt(1, 0, 0, 0, 0, 0)])
        for k in valid_k_range(seg):
            fan = dual_fan_etp(seg, k)
            assert is_etp(fan.result.framed).ok
            assert is_positive(fan.result)

    def test_triangle_fan_in_c3(self):
        tri = VPolytope.from_points([pt(0, 0, 0, 0, 0, 0), pt(1, 0, 0, 0, 0, 0),
                                     pt(0, 0, 1, 0, 0, 0)])
        fan = dual_fan_etp(tri, 4)  # cones dual to the 2-face and its boundary
        assert is_etp(fan.result.framed).ok
        assert is_positive(fan.result)

    def test_weighted_boundary_identity_in_c3(self):
        from etv.framed import scale
        from etv.monge import dc_weighted, support_function
        seg = VPolytope.from_points([pt(0, 0, 0, 0, 0, 0), pt(1, 0, 0, 0, 0, 0)])
        h = support_function(seg)
        lhs = dc_weighted(h, dual_fan_etp(seg, 6).framed_rep())
        rhs = dual_fan_etp(seg, 5).result  # (2n-k+1) = 1
        assert equivalent(lhs, rhs)
