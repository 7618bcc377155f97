from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import etv.framed as framed
import etv.polyhedra as polyhedra
from etv.dualfan import dual_fan_etp, valid_k_range
from etv.exterior import Alt
from etv.framed import (EtvRep, FramedCell, FramedSet, TestForm, add, boundary,
                        canonicalize, cell_sign, constant_test_form, equivalent,
                        evaluate_current, exterior_derivative, irreducible_components,
                        is_closed, is_etp, is_positive, negate, scale,
                        split_positive, translate, unit_positive_frame, zero_etv)
from etv.polyhedra import (HPoly, VPolytope, hyperplanes_of_cells,
                           split_by_hyperplanes)
from etv.polynomials import Poly
from etv.scalars import CRat
from lattice_cells import coord, normal, plane_cell, planes, region
import orientation_reference as oref


def imag_axis_cell(weight=1):
    # the line {x1 = 0} in C^1 with frame weight * (-i f1*), which restricts to dy1
    line = HPoly(2, eq=[((F(1), F(0)), F(0))]).canonical()
    frame = Alt(1, {(0,): CRat(0, -weight)})
    return FramedCell(line, frame)


def real_axis_cell(weight=1):
    line = HPoly(2, eq=[((F(0), F(1)), F(0))]).canonical()
    frame = Alt(1, {(0,): CRat(weight)})
    return FramedCell(line, frame)


def imag_axis_etv(weight=1):
    return canonicalize(FramedSet(1, 1, [imag_axis_cell(weight)]))


class TestBoundary:
    def test_segment_endpoints(self):
        seg = HPoly(2, eq=[((F(0), F(1)), F(0))],
                    ineq=[((F(1), F(0)), F(1)), ((F(-1), F(0)), F(0))]).canonical()
        frame = Alt(1, {(0,): CRat(0, 1)})
        x = FramedSet(1, 1, [FramedCell(seg, frame)])
        bd = boundary(x)
        assert len(bd.cells) == 2
        got = [c.frame for c in bd.cells]
        assert (got[0] == frame and got[1] == -frame) or \
            (got[0] == -frame and got[1] == frame)

    def test_boundary_of_boundary_empty(self):
        sq = HPoly(2, ineq=[((F(1), F(0)), F(1)), ((F(-1), F(0)), F(0)),
                            ((F(0), F(1)), F(1)), ((F(0), F(-1)), F(0))]).canonical()
        x = FramedSet(1, 2, [FramedCell(sq, Alt(0, {(): CRat(3)}))])
        bd = boundary(x)
        assert len(bd.support_cells()) == 4
        bd2 = boundary(bd)
        assert not bd2.support_cells()

    def test_line_is_closed(self):
        x = FramedSet(1, 1, [imag_axis_cell()])
        assert is_closed(x)


class TestIsEtp:
    def test_imaginary_axis_valid(self):
        assert is_etp(FramedSet(1, 1, [imag_axis_cell()])).ok

    def test_imaginary_restriction_rejected(self):
        # 3-cell {y2 = 0} in C^2 framed i*f2*: restriction is i*dx2
        cell = HPoly(4, eq=[((F(0), F(0), F(0), F(1)), F(0))]).canonical()
        frame = Alt(1, {(1,): CRat(0, 1)})
        rep = is_etp(FramedSet(2, 3, [FramedCell(cell, frame)]))
        assert not rep.ok and "real" in rep.witness

    def test_bounded_segment_not_closed(self):
        seg = HPoly(2, eq=[((F(1), F(0)), F(0))],
                    ineq=[((F(0), F(1)), F(1)), ((F(0), F(-1)), F(0))]).canonical()
        rep = is_etp(FramedSet(1, 1, [FramedCell(seg, Alt(1, {(0,): CRat(0, -1)}))]))
        assert not rep.ok and "boundary" in rep.witness

    def test_degenerate_cell_needs_zero_frame(self):
        # the z2 complex line in C^2 is a degenerate 2-cell
        cell = HPoly(4, eq=[((F(1), F(0), F(0), F(0)), F(0)),
                            ((F(0), F(1), F(0), F(0)), F(0))]).canonical()
        frame = Alt(2, {(0, 1): CRat(1)})
        rep = is_etp(FramedSet(2, 2, [FramedCell(cell, frame)]))
        assert not rep.ok and "degenerate" in rep.witness


class TestCanonicalize:
    def test_split_line_merges(self):
        left = HPoly(2, eq=[((F(1), F(0)), F(0))],
                     ineq=[((F(0), F(1)), F(0))]).canonical()
        right = HPoly(2, eq=[((F(1), F(0)), F(0))],
                      ineq=[((F(0), F(-1)), F(0))]).canonical()
        frame = Alt(1, {(0,): CRat(0, -1)})
        x = FramedSet(1, 1, [FramedCell(left, frame), FramedCell(right, frame)])
        rep = canonicalize(x)
        assert len(rep.cells()) == 1
        assert rep.cells()[0].poly.dim == 1 and not rep.cells()[0].poly.ineq

    def test_zero_frames_dropped(self):
        line = HPoly(2, eq=[((F(1), F(0)), F(0))]).canonical()
        x = FramedSet(1, 1, [FramedCell(line, Alt(1))])
        rep = canonicalize(x)
        assert rep.is_zero()

    def test_idempotent(self):
        rep = imag_axis_etv(2)
        again = canonicalize(rep.framed)
        assert [c.poly.key for c in rep.cells()] == [c.poly.key for c in again.cells()]


def _real_half_line(sign):
    return HPoly(2, eq=[((F(0), F(1)), F(0))], ineq=[((F(-sign), F(0)), F(0))]).canonical()


def zero_cycles_of_overlapping_cells():
    """The dz-framed real line of C listed twice, with opposite frames, and
    the line minus its two closed half-lines: both are the zero cycle."""
    line = real_axis_cell()
    twice = FramedSet(1, 1, [line, real_axis_cell(-1)])
    minus_halves = FramedSet(1, 1, [line] + [FramedCell(_real_half_line(s), -line.frame)
                                             for s in (1, -1)])
    return twice, minus_halves


class TestGroup:
    @pytest.mark.parametrize("y", zero_cycles_of_overlapping_cells(), ids=["twice", "halves"])
    def test_overlapping_zero_cycle_is_equivalent_to_zero(self, y):
        assert is_etp(y).ok
        assert equivalent(zero_etv(1, 1), y) and equivalent(y, zero_etv(1, 1))
        assert equivalent(zero_etv(1, 2), y) and not equivalent(y, imag_axis_etv())

    def test_line_minus_its_halves_canonicalizes_to_zero(self):
        assert canonicalize(zero_cycles_of_overlapping_cells()[1]).is_zero()

    def test_add_inverse(self):
        p = imag_axis_etv(3)
        s = add(p, negate(p))
        assert s.is_zero()

    def test_weights_add_on_common_line(self):
        s = add(imag_axis_etv(2), imag_axis_etv(5))
        assert equivalent(s, imag_axis_etv(7))

    def test_transversal_lines_retained(self):
        s = add(canonicalize(FramedSet(1, 1, [imag_axis_cell()])),
                canonicalize(FramedSet(1, 1, [real_axis_cell()])))
        assert len(s.cells()) == 4  # four rays around the crossing point
        assert is_etp(s.framed).ok

    def test_scale_zero(self):
        assert scale(0, imag_axis_etv()).is_zero()

    def test_scale_identity(self):
        assert equivalent(scale(1, imag_axis_etv(2)), imag_axis_etv(2))

    def test_equivalent_to_refined(self):
        left = HPoly(2, eq=[((F(1), F(0)), F(0))],
                     ineq=[((F(0), F(1)), F(0))]).canonical()
        right = HPoly(2, eq=[((F(1), F(0)), F(0))],
                      ineq=[((F(0), F(-1)), F(0))]).canonical()
        frame = Alt(1, {(0,): CRat(0, -2)})
        split = FramedSet(1, 1, [FramedCell(left, frame), FramedCell(right, frame)])
        assert equivalent(split, imag_axis_etv(2))

    def test_not_equivalent_when_scaled(self):
        assert not equivalent(imag_axis_etv(1), imag_axis_etv(2))

    def test_translate_roundtrip(self):
        p = imag_axis_etv()
        q = translate(translate(p, (F(1), F(0))), (F(-1), F(0)))
        assert equivalent(p, q)

    def test_translate_moves_line(self):
        p = imag_axis_etv()
        q = translate(p, (F(1), F(0)))
        assert not equivalent(p, q)

    @pytest.mark.parametrize("vec", [(F(1),), (F(1), F(0), F(0))])
    def test_translate_needs_one_entry_per_coordinate(self, vec):
        for p in (zero_etv(1, 1), imag_axis_etv(), FramedSet(1, 1, [])):
            with pytest.raises(ValueError, match="coordinates in R\\^2"):
                translate(p, vec)

    def test_scale_by_a_nonreal_factor_raises(self, polytope_corpus):
        fan = dual_fan_etp(dict(polytope_corpus)["seg-e1"], 3).result
        with pytest.raises(ValueError, match="real factors"):
            scale(CRat(0, 1), fan)
        assert equivalent(scale(CRat(2), fan), scale(2, fan))
        assert is_etp(scale(CRat(F(1, 2)), fan).framed).ok

    def test_cell_of_another_ambient_raises(self):
        half_space = HPoly(4, ineq=[((F(1), F(0), F(0), F(0)), F(0))])
        with pytest.raises(ValueError, match="R\\^4 in a framed set of C\\^1"):
            FramedSet(1, 4, [FramedCell(half_space, Alt(0, {(): CRat(1)}))])


def _square_fan():
    square = VPolytope.from_points([(F(0), F(0)), (F(1), F(0)),
                                    (F(0), F(1)), (F(1), F(1))])
    return dual_fan_etp(square, 1).result


def _count_merges(monkeypatch):
    calls = []
    region_union = framed._region_union

    def counting(*args):
        calls.append(args)
        return region_union(*args)

    monkeypatch.setattr(framed, "_region_union", counting)
    return calls


class TestCanonicalInputNotRemerged:
    def test_translate_scale_negate_skip_merging(self, monkeypatch):
        fan = _square_fan()
        assert len(fan.cells()) == 4
        vec = (F(1, 2), F(-3))
        t = CRat(-2)
        old = [canonicalize(fan.framed.translated(vec), validate=False),
               canonicalize(fan.framed.scaled(t), validate=False),
               canonicalize(fan.framed.scaled(F(-1)), validate=False)]
        calls = _count_merges(monkeypatch)
        new = [translate(fan, vec), scale(t, fan), negate(fan)]
        assert calls == []
        assert all(isinstance(r, EtvRep) for r in new)
        monkeypatch.undo()
        for a, b in zip(old, new):
            assert equivalent(a, b)

    @pytest.mark.parametrize("validate", [True, False])
    def test_canonicalize_returns_rep_unchanged(self, validate, monkeypatch):
        fan = _square_fan()
        calls = _count_merges(monkeypatch)
        assert canonicalize(fan, validate=validate) is fan
        assert calls == []

    def test_split_positive_of_positive_rep_skips_merging(self, monkeypatch):
        fan = _square_fan()
        assert is_positive(fan)
        calls = _count_merges(monkeypatch)
        plus, minus = split_positive(fan)
        assert calls == []
        assert plus is fan and minus.is_zero()


class TestPositivity:
    def test_imag_axis_positive(self):
        assert is_positive(imag_axis_etv())

    def test_negation_not_positive(self):
        assert not is_positive(negate(imag_axis_etv()))

    def test_zero_positive(self):
        assert is_positive(zero_etv(1, 1))

    def test_unit_positive_frame_on_imag_axis(self):
        gen = unit_positive_frame((((F(0), F(1))),), 1)
        assert gen == Alt(1, {(0,): CRat(0, -1)})

    def test_unit_positive_frame_full_space(self):
        gen = unit_positive_frame(((F(1), F(0)), (F(0), F(1))), 1)
        assert gen == Alt(0, {(): CRat(1)})

    def test_unit_positive_frame_matches_kernel_on_corpus_cones(self, polytope_corpus):
        from etv.exterior import max_complex_subspace
        from etv.polyhedra import dual_cone
        compared = 0
        for _, gamma in polytope_corpus:
            n = gamma.ambient // 2
            for k in valid_k_range(gamma):
                for face in gamma.faces(2 * n - k):
                    basis = dual_cone(gamma, face).tangent_basis
                    if max_complex_subspace(list(basis))[1]:
                        with pytest.raises(ValueError):
                            unit_positive_frame(basis, n)
                        continue
                    assert unit_positive_frame(basis, n) == \
                        oref.unit_positive_frame(basis, n)
                    compared += 1
        assert compared == 141

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_unit_positive_frame_matches_kernel_on_subspaces(self, data):
        from etv.exterior import max_complex_subspace
        from etv.linalg import rref
        n = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(n, 2 * n))
        entry = st.integers(-2, 2).map(F)
        vecs = data.draw(st.lists(st.tuples(*[entry] * (2 * n)), min_size=k, max_size=k))
        basis = rref(vecs)[0]
        assume(len(basis) == k and not max_complex_subspace(basis)[1])
        assert unit_positive_frame(basis, n) == oref.unit_positive_frame(basis, n)

    def test_split_positive_trivial(self):
        p = imag_axis_etv()
        plus, minus = split_positive(p)
        assert minus.is_zero() and equivalent(plus, p)

    def test_split_positive_of_negative(self):
        p = negate(imag_axis_etv())
        plus, minus = split_positive(p)
        assert is_positive(plus) and is_positive(minus)
        assert equivalent(add(p, minus), plus)

    def test_split_zero(self):
        plus, minus = split_positive(zero_etv(1, 1))
        assert plus.is_zero() and minus.is_zero()


class TestComponents:
    def test_parallel_lines_two_components(self):
        a = imag_axis_cell()
        shifted = FramedCell(a.poly.translate((F(2), F(0))), a.frame)
        rep = canonicalize(FramedSet(1, 1, [a, shifted]))
        comps = irreducible_components(rep)
        assert len(comps) == 2
        assert equivalent(add(comps[0], comps[1]), rep)

    def test_zero_has_no_components(self):
        assert irreducible_components(zero_etv(1, 1)) == []


class TestCurrents:
    def window(self):
        return ((F(-1), F(1)), (F(-1), F(1)))

    def test_mass_of_imaginary_axis(self):
        val = evaluate_current(imag_axis_etv(), constant_test_form(self.window()))
        assert val == 2

    def test_zero_etv_gives_zero(self):
        assert evaluate_current(zero_etv(1, 1), constant_test_form(self.window())) == 0

    def test_additivity(self):
        phi = constant_test_form(self.window())
        p, q = imag_axis_etv(2), imag_axis_etv(3)
        assert (evaluate_current(add(p, q), phi)
                == evaluate_current(p, phi) + evaluate_current(q, phi))

    def test_degree_mismatch_raises(self):
        bad = constant_test_form(self.window(), degree=1, indices=(0,))
        with pytest.raises(ValueError):
            evaluate_current(imag_axis_etv(), bad)

    def test_polynomial_weight(self):
        # integral of y^2 over the segment [-1, 1] of the imaginary axis
        poly = Poly(2, {(0, 2): F(1)})
        tf = TestForm(0, (((), poly),), self.window())
        assert evaluate_current(imag_axis_etv(), tf) == F(2, 3)

    def test_closed_current_against_exact_form(self):
        # psi vanishing on the window boundary: B(z) dz... with d psi of degree 1
        lo, hi = F(-1), F(1)
        bump = (Poly.var(2, 0) - lo) * (hi - Poly.var(2, 0)) \
            * (Poly.var(2, 1) - lo) * (hi - Poly.var(2, 1))
        psi = TestForm(0, (((), bump),), self.window())
        dpsi = exterior_derivative(psi)
        assert dpsi.degree == 1
        # k=1, frame degree 1: need test degree 0; use a 2-dim cycle instead
        sq_all = HPoly(2).canonical()
        full = canonicalize(FramedSet(1, 2, [FramedCell(sq_all, Alt(0, {(): CRat(1)}))]))
        # degree rule: frame 0-form on 2-cells wants degree-2 test forms
        psi1 = TestForm(1, (((0,), bump),), self.window())
        dpsi1 = exterior_derivative(psi1)
        assert evaluate_current(full, dpsi1) == 0


class TestExteriorDerivative:
    def test_d_of_function(self):
        f = Poly(2, {(1, 0): F(1)})  # x
        tf = TestForm(0, (((), f),), ((F(0), F(1)), (F(0), F(1))))
        d = exterior_derivative(tf)
        assert d.terms == (((0,), Poly.const(2, F(1))),)

    def test_d_squared_zero(self):
        f = Poly(2, {(1, 1): F(1)})  # xy
        tf = TestForm(0, (((), f),), ((F(0), F(1)), (F(0), F(1))))
        dd = exterior_derivative(exterior_derivative(tf))
        assert all(p.is_zero() for _, p in dd.terms)


class TestComponentsOfFans:
    def test_square_fan_is_one_component(self):
        from etv.dualfan import dual_fan_etp
        from etv.polyhedra import VPolytope
        sq = VPolytope.from_points([(F(0), F(0)), (F(1), F(0)),
                                    (F(0), F(1)), (F(1), F(1))])
        fan = dual_fan_etp(sq, 1).result
        comps = irreducible_components(fan)
        assert len(comps) == 1

    def test_components_of_positive_are_positive(self):
        a = imag_axis_cell()
        shifted = FramedCell(a.poly.translate((F(3), F(0))), a.frame)
        rep = canonicalize(FramedSet(1, 1, [a, shifted]))
        assert is_positive(rep)
        for comp in irreducible_components(rep):
            assert is_positive(comp)


class TestSplitPositiveMixed:
    def test_mixed_sign_crossing_hulls(self):
        from etv.framed import add, split_positive, negate, equivalent, is_positive
        p = add(canonicalize(FramedSet(1, 1, [imag_axis_cell(2)])),
                negate(canonicalize(FramedSet(1, 1, [real_axis_cell(3)]))))
        plus, minus = split_positive(p)
        assert is_positive(plus) and is_positive(minus)
        assert equivalent(add(p, minus), plus)


class TestCanonicalizeDeterminism:
    def test_input_order_does_not_matter(self):
        from etv.dualfan import dual_fan_etp
        from etv.polyhedra import VPolytope
        sq = VPolytope.from_points([(F(0), F(0)), (F(1), F(0)),
                                    (F(0), F(1)), (F(1), F(1))])
        rep = dual_fan_etp(sq, 1).framed_rep()
        fwd = canonicalize(FramedSet(1, 1, list(rep.cells)))
        rev = canonicalize(FramedSet(1, 1, list(reversed(rep.cells))))
        assert [c.poly.key for c in fwd.cells()] == [c.poly.key for c in rev.cells()]
        assert [c.frame for c in fwd.cells()] == [c.frame for c in rev.cells()]


# ---------------------------------------------------------------------------
# merging against the arrangement-split union test

def _union_by_split(polys, known=None):
    """Reference region union: the envelope of the rows of the cells that hold
    on every cell is the union iff the relative interior point of every piece
    of its split by the walls of the region lies in one of the cells.  Takes
    and ignores the facet dict of `framed._region_union`."""
    # merging overlapping cells would lose the frame counted twice on their overlap
    if any(a.intersect(b).canonical().dim == a.dim for a, b in combinations(polys, 2)):
        return None
    valid = [(c, r) for p in polys for c, r in p.ineq
             if all((res := q.maximize(c)).status == "optimal" and res.value <= r
                    for q in polys)]
    merged = HPoly(polys[0].ambient, polys[0].eq, valid).canonical()
    for piece in split_by_hyperplanes(merged, hyperplanes_of_cells(polys)):
        q = piece.relint_point()
        if not any(p.contains_point(q) for p in polys):
            return None
    return merged


def _cut(normal, offset, below=True):
    sign = 1 if below else -1
    return ((F(sign * normal[0]), F(sign * normal[1])), F(sign * offset))


@st.composite
def _cell_pair(draw):
    """Rows of two cells: independent, touching halves, nested or an L."""
    base = draw(region())
    kind = draw(st.sampled_from(["independent", "halves", "nested", "corner"]))
    n1, d1 = draw(normal), draw(coord)
    if kind == "independent":
        return base, draw(region())
    if kind == "halves":
        return base + [_cut(n1, d1)], base + [_cut(n1, d1, below=False)]
    if kind == "nested":
        return base, base + [_cut(n1, d1)]
    n2, d2 = draw(normal), draw(coord)
    return base + [_cut(n1, d1)], base + [_cut(n1, d1, below=False), _cut(n2, d2)]


def _square(x0, x1, y0, y1):
    return [((F(1), F(0)), F(x1)), ((F(-1), F(0)), F(-x0)),
            ((F(0), F(1)), F(y1)), ((F(0), F(-1)), F(-y0))]


_ROW3 = (_square(0, 1, 0, 1), _square(1, 2, 0, 1), _square(2, 3, 0, 1))
_L3 = (_square(0, 1, 0, 1), _square(1, 2, 0, 1), _square(0, 1, 1, 2))
_L4 = _ROW3 + (_square(0, 1, 1, 2),)


class TestMergeVerdict:
    @settings(max_examples=80, deadline=None)
    @given(cells=_cell_pair(), plane=planes)
    @example(cells=(_square(0, 1, 0, 1), _square(1, 2, 0, 1)), plane=None)  # touching
    @example(cells=(_square(0, 2, 0, 1), _square(1, 3, 0, 1)), plane=None)  # overlapping
    @example(cells=(_square(0, 3, 0, 3), _square(1, 2, 1, 2)), plane=None)  # nested
    @example(cells=(_square(0, 2, 0, 1), _square(0, 1, 1, 2)), plane=None)  # L-shaped
    @example(cells=(_square(0, 1, 0, 1), _square(1, 2, 0, 1)), plane=((1, 1), 2, (0, -1), 1))
    @example(cells=([_cut((1, 0), 0)], [_cut((1, 0), 0, below=False)]), plane=None)
    @example(cells=([_cut((1, 0), 0), _cut((0, 1), 0)],
                    [_cut((1, 0), 0), _cut((0, 1), 0, below=False)]), plane=None)
    @example(cells=_ROW3, plane=None)  # three in a row: merge
    @example(cells=_ROW3, plane=((1, 1), 2, (0, -1), 1))
    @example(cells=_L3, plane=None)  # an L of three: no merge
    @example(cells=_L4, plane=None)  # an L of four: no merge, not even of its row
    @example(cells=([_cut((1, 0), 0)], [_cut((1, 0), 0)]), plane=None)  # one half-plane twice
    @example(cells=(_square(0, 1, 0, 1), _square(0, 1, 0, 1)), plane=None)
    def test_envelope_verdict_matches_split(self, cells, plane):
        polys = [plane_cell(rows, plane) for rows in cells]
        assume(all(p.dim == 2 for p in polys))
        got = framed._region_union(polys, {})
        want = _union_by_split(polys)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.key == want.key
            # canonical as built
            assert got.key == HPoly(got.ambient, got.eq, got.ineq).canonical().key

    def test_canonicalize_matches_split_on_corpus(self, polytope_corpus, monkeypatch):
        fans = [dual_fan_etp(gamma, k, validate=False).framed_rep()
                for _, gamma in polytope_corpus for k in valid_k_range(gamma)]
        got = [canonicalize(rep, validate=False) for rep in fans]
        monkeypatch.setattr(framed, "_region_union", _union_by_split)
        want = [canonicalize(rep, validate=False) for rep in fans]
        assert any(len(w.cells()) < len(rep.cells) for rep, w in zip(fans, want))
        for g, w in zip(got, want):
            assert [(c.poly.key, c.frame) for c in g.cells()] == \
                [(c.poly.key, c.frame) for c in w.cells()]


def _unit_squares(cells):
    frame = Alt(0, {(): CRat(1)})
    return FramedSet(1, 2, [FramedCell(plane_cell(rows, None), frame) for rows in cells])


def _cone(u, v):
    """The cone over the rays u and v, turning counterclockwise from u."""
    return [((F(u[1]), F(-u[0])), F(0)), ((F(-v[1]), F(v[0])), F(0))]


# five cones under 180 degrees winding twice around the origin: every ray
# has two owners, one on each side, and no row bounds the union
_DOUBLE_COVER = [(1, 0), (-1, 1), (-1, -3), (1, 2), (-1, -1)]


class TestRegionMerging:
    def test_row_merges_and_ls_stay(self):
        assert len(canonicalize(_unit_squares(_ROW3), validate=False).cells()) == 1
        # a region merges whole or not at all: the pairwise merge made 3 cells of L4
        assert len(canonicalize(_unit_squares(_L3), validate=False).cells()) == 3
        assert len(canonicalize(_unit_squares(_L4), validate=False).cells()) == 4

    def test_facets_built_once_per_cell_across_restarts(self, monkeypatch):
        """Two rows of squares merge one after the other, so the scan restarts;
        each input cell and each merged cell has its facets built once.  So
        do two parallel lines, each cut at 0, a cycle: the validation and the
        merging share the facets of the input cells."""
        merges = _count_merges(monkeypatch)
        built, hull_calls = [], [0]
        facets, from_hull = HPoly.facets_with_normals, polyhedra._canonical_from_hull

        def counting_facets(self):
            built.append(self.key)
            return facets(self)

        def counting_hull(*args):
            hull_calls[0] += 1
            return from_hull(*args)

        x = _unit_squares(_ROW3 + (_square(5, 6, 0, 1), _square(6, 7, 0, 1)))
        monkeypatch.setattr(HPoly, "facets_with_normals", counting_facets)
        monkeypatch.setattr(polyhedra, "_canonical_from_hull", counting_hull)
        got = canonicalize(x, validate=False).cells()
        assert len(got) == 2 and len(merges) == 2
        cells = [c.poly for c in x.cells] + [c.poly for c in got]
        assert sorted(built) == sorted(c.key for c in cells)
        # each facet of a square costs one call; the face-to-face check of
        # the first merged row against the other row adds none, since the
        # two are disjoint
        assert hull_calls[0] == sum(len(c.ineq) for c in cells)

        def ray(height, side):
            return HPoly(2, eq=[((F(0), F(1)), F(height))],
                         ineq=[((F(side), F(0)), F(0))]).canonical()

        frame = Alt(1, {(0,): CRat(1)})
        lines = FramedSet(1, 1, [FramedCell(ray(h, side), frame)
                                 for h in (0, 1) for side in (1, -1)])
        built.clear()
        merges.clear()
        got = canonicalize(lines).cells()
        assert len(got) == 2 and len(merges) == 2
        assert all(not c.poly.ineq for c in got)
        assert sorted(built) == sorted(c.poly.key for c in lines.cells + got)

    def test_wall_with_a_third_owner_is_not_crossed(self):
        """The real axis cut at -1 and at 0, and an edge at 0: the wall at 0
        is not free, so the two pieces left of it merge and the line stays
        cut at 0.  Joining across it would make one region whose union, the
        line, is not face-to-face with the edge, and nothing would merge."""
        axis = ((F(0), F(1)), F(0))

        def piece(*rows):
            return HPoly(2, eq=[axis], ineq=[((F(a), F(0)), F(b)) for a, b in rows]).canonical()

        frame = Alt(1, {(0,): CRat(1)})
        edge = HPoly(2, eq=[((F(1), F(0)), F(0))], ineq=[((F(0), F(-1)), F(0))]).canonical()
        x = FramedSet(1, 1, [FramedCell(p, frame) for p in
                             (piece((1, -1)), piece((-1, 1), (1, 0)), piece((-1, 0)))]
                      + [FramedCell(edge, Alt(1, {(0,): CRat(0, 1)}))])
        got = canonicalize(x, validate=False).cells()
        assert sorted(c.poly.key for c in got) == \
            sorted([piece((1, 0)).key, piece((-1, 0)).key, edge.key])

    def test_full_grade_fans_are_one_cell(self, polytope_corpus):
        for _, gamma in polytope_corpus:
            n = gamma.ambient // 2
            if 2 * n in valid_k_range(gamma):
                cells = dual_fan_etp(gamma, 2 * n).result.cells()
                assert len(cells) == 1
                assert cells[0].poly.eq == () and cells[0].poly.ineq == ()

    def test_double_cover_of_the_plane_does_not_merge(self):
        rays = _DOUBLE_COVER
        x = _unit_squares([_cone(u, v) for u, v in zip(rays, rays[1:] + rays[:1])])
        assert is_etp(x).ok
        assert framed._region_union([c.poly for c in x.cells], {}) is None
        got = canonicalize(x)
        assert len(got.cells()) == 5
        assert equivalent(got, x)
        assert not equivalent(got, _unit_squares([[]]))


class TestMergeLpCount:
    def test_hexagon_vertex_fan(self, polytope_corpus, monkeypatch):
        hexagon = dict(polytope_corpus)["hexagon"]
        polyhedra._CANONICAL_MEMO.clear()
        rep = dual_fan_etp(hexagon, 2, validate=False).framed_rep()
        calls = [0]
        solve = polyhedra.solve_lp

        def counting(*args, **kwargs):
            calls[0] += 1
            return solve(*args, **kwargs)

        def no_split(*args):
            raise AssertionError("split_by_hyperplanes called")

        monkeypatch.setattr(polyhedra, "solve_lp", counting)
        monkeypatch.setattr(polyhedra, "split_by_hyperplanes", no_split)
        polyhedra._CANONICAL_MEMO.clear()
        merged = canonicalize(rep, validate=False)
        assert len(rep.cells) == 6 and len(merged.cells()) == 1
        # the union is the plane: no boundary row, and the interior point of the
        # first cone is kept from building the fan, so no LP; the pairwise
        # merge solved 100 LPs for 3 cells
        assert rep.cells[0].poly._relint is not None
        assert calls[0] == 0
