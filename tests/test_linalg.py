import copy
import pickle
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etv import linalg
from etv.dualfan import dual_fan_etp, valid_k_range
from etv.linalg import (EchelonBasis, basis_change_sign, det, intersect_rowspaces,
                        kernel_basis, rank, rref, scale_primitive, solve)
from etv.scalars import CRat
import orientation_reference as oref
from orientation_reference import coords_in_basis, in_span

rat = st.fractions(max_denominator=4, min_value=-4, max_value=4)


def matrix(rows, cols):
    return st.lists(st.lists(rat, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@settings(max_examples=60, deadline=None)
@given(matrix(3, 4))
def test_rref_idempotent(m):
    red, pivots = rref(m)
    again, pivots2 = rref(red)
    assert list(red) == list(again) and pivots == pivots2


@settings(max_examples=60, deadline=None)
@given(matrix(3, 4))
def test_kernel_annihilates(m):
    ker = kernel_basis(m, 4)
    for v in ker:
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert len(rref(m)[0]) + len(ker) == 4


@settings(max_examples=60, deadline=None)
@given(matrix(3, 3), st.lists(rat, min_size=3, max_size=3))
def test_solve_satisfies_system(m, rhs):
    x = solve(m, rhs)
    if x is not None:
        for row, b in zip(m, rhs):
            assert sum(a * v for a, v in zip(row, x)) == b


@settings(max_examples=40, deadline=None)
@given(matrix(3, 3))
def test_det_vanishes_iff_rank_deficient(m):
    assert (det(m) == 0) == (rank(m) < 3)


@settings(max_examples=40, deadline=None)
@given(matrix(2, 4))
def test_intersection_contained_in_both(m):
    a, b = [m[0]], [m[1]]
    inter = intersect_rowspaces(a, b, 4)
    for v in inter:
        assert in_span(a, v) and in_span(b, v)


def test_scale_primitive_normalizes():
    v = (F(2, 3), F(-4, 3), F(0))
    assert scale_primitive(v) == (F(1), F(-2), F(0))
    assert scale_primitive((F(-1, 2), F(1, 4))) == (F(2), F(-1))


def test_basis_change_antisymmetry():
    e1, e2 = (F(1), F(0)), (F(0), F(1))
    assert basis_change_sign([e1, e2], [e2, e1]) == -1
    assert basis_change_sign([e1, e2], [e1, e2]) == 1


def test_coords_roundtrip():
    basis = [(F(1), F(1), F(0)), (F(0), F(1), F(1))]
    vec = (F(2), F(5), F(3))
    c = coords_in_basis(basis, vec)
    rebuilt = [F(0)] * 3
    for coeff, b in zip(c, basis):
        rebuilt = [r + coeff * x for r, x in zip(rebuilt, b)]
    assert tuple(rebuilt) == vec


# -- integer path against the field-generic reference -------------------------

big = st.one_of(st.just(0), st.integers(-10**6, 10**6),
                st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 1000)))


@st.composite
def rational_matrix(draw):
    """Tall or wide int/Fraction matrices with some zero rows and columns."""
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    m = draw(st.lists(st.lists(big, min_size=ncols, max_size=ncols),
                      min_size=nrows, max_size=nrows))
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
        m[i] = [0] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in m:
            row[j] = F(0)
    return m


def _as_fractions(m):
    return [[F(x) for x in row] for row in m]


def _all_fractions(rows):
    return all(type(x) is F for row in rows for x in row)


@settings(max_examples=150, deadline=None)
@given(rational_matrix(), st.data())
def test_integer_path_matches_field_reference(m, data):
    ncols = len(m[0])
    mf = _as_fractions(m)
    red, pivots = rref(m)
    assert (red, pivots) == linalg._rref_field(mf) and _all_fractions(red)
    assert rank(m) == len(red)
    k = min(len(m), ncols)
    square = [row[:k] for row in m[:k]]
    d = det(square)
    assert d == linalg._det_field(_as_fractions(square)) and type(d) is F

    x = data.draw(st.lists(big, min_size=ncols, max_size=ncols))
    rhs = [sum(F(a) * b for a, b in zip(row, x)) for row in m]
    if data.draw(st.booleans()):
        rhs[0] += 1
    half = data.draw(st.integers(0, len(m)))
    got = (kernel_basis(m, ncols), solve(m, rhs),
           intersect_rowspaces(m[:half], m[half:], ncols))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "rref", linalg._rref_field)
        want = (kernel_basis(mf, ncols), solve(mf, rhs),
                intersect_rowspaces(mf[:half], mf[half:], ncols))
    assert got == want
    assert _all_fractions(got[0]) and _all_fractions(got[2])
    assert got[1] is None or _all_fractions([got[1]])


def test_rref_matches_reference_on_corpus(polytope_corpus, monkeypatch):
    """Every rref call of dual_fan_etp on the corpus agrees with the reference."""
    original = linalg.rref
    calls, differences = [0], []

    def checked(rows):
        rows = [list(r) for r in rows]
        got = original(rows)
        want = linalg._rref_field([[F(x) if isinstance(x, int) else x for x in r]
                                   for r in rows])
        calls[0] += 1
        if got != want:
            differences.append(rows)
        return got

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("etv") and getattr(mod, "rref", None) is original:
            monkeypatch.setattr(mod, "rref", checked)
    for _, gamma in polytope_corpus:
        for k in valid_k_range(gamma):
            dual_fan_etp(gamma, k)
    assert calls[0] > 1000 and differences == []


def _typed(v):
    """Nested value with each scalar paired with its type."""
    if isinstance(v, (list, tuple)):
        return [_typed(x) for x in v]
    return (type(v), v)


def test_complex_input_keeps_field_path():
    """Q(i) and mixed CRat/Fraction rows: values and entry types as before."""
    C = CRat
    pure = [[C(1, 1), C(2), C(0, 1)], [C(2, 2), C(4), C(0, 2)], [C(0, 1), C(1), C(1)]]
    assert _typed(rref(pure)) == _typed(
        ([(C(1), C(0), C(F(-3, 2), F(-1, 2))), (C(0), C(1), C(F(1, 2), F(3, 2)))],
         [0, 1]))
    assert rank(pure) == 2 and _typed(det(pure)) == _typed(C(0))
    assert _typed(kernel_basis(pure, 3, one=C(1))) == _typed(
        [(C(1), C(F(-3, 5), F(-4, 5)), C(F(3, 5), F(-1, 5)))])
    assert solve(pure, [C(1), C(0, 1), C(2)]) is None

    mixed = [[C(0, 1), F(0), F(1, 2)], [F(0), F(3), F(1)], [F(1), F(2), C(1, 1)]]
    assert _typed(det(mixed)) == _typed(C(F(-9, 2), 1))
    assert _typed(solve(mixed, [C(1), C(0, 1), C(2)])) == _typed(
        (C(F(52, 85), F(-64, 85)), C(F(-14, 85), F(63, 85)), C(F(42, 85), F(-104, 85))))

    late = [[F(1), F(2), F(0)], [F(2), F(4), C(0, 1)]]  # CRat only in a later row
    assert _typed(rref(late)) == _typed(([(F(1), F(2), F(0)), (C(0), C(0), C(1))], [0, 2]))
    assert rank(late) == 2
    assert _typed(kernel_basis(late, 3, one=C(1))) == _typed([(F(1), C(F(-1, 2)), C(0))])


def _shared(values):
    """True when equal small-integer values are one object each."""
    first = {}
    return all(first.setdefault(x, x) is x for x in values
               if x.denominator == 1 and -16 <= x <= 16)


def test_small_integers_are_shared(polytope_corpus):
    assert _shared(scale_primitive((F(2, 3), F(-4, 3), F(0), F(4, 3))) +
                   scale_primitive((F(-5), F(0), F(5), F(10))))
    red, _ = rref([[F(2), F(4), F(6)], [F(1), F(3), F(5)], [3, 7, 11]])
    assert red == [(1, 0, -1), (0, 1, 2)] and _shared([x for row in red for x in row])
    hexagon = dict(polytope_corpus)["hexagon"]
    values = []
    for k in valid_k_range(hexagon):
        fan = dual_fan_etp(hexagon, k, validate=False)
        for cell in fan.framed_rep().cells + fan.result.cells():
            p = cell.poly
            values += [x for a, b in p.eq + p.ineq for x in a + (b,)]
            values += [x for v in p.tangent_basis for x in v]
    assert len(values) > 100 and _shared(values)


def test_small_gaussian_integers_are_shared():
    C = CRat
    assert C(2, -1) is C(F(2), -1) and C(1, 1) * C(1, -1) is C(2)
    assert C(F(1, 2), 3).im is C(3).re and C(F(-32, 2)).re is C(-16).re
    assert C(17) is not C(17) and C(F(1, 2), 3) is not C(F(1, 2), 3)
    for z, re, im in [(C(0), 0, 0), (C(2, -1), 2, -1), (C(-16, 16), -16, 16), (C(17), 17, 0),
                      (C(F(1, 2), 3), F(1, 2), 3), (C(0, -17), 0, -17)]:
        assert z == C(F(re), F(im)) and (z.re, z.im) == (re, im)
        assert hash(z) == (hash(F(re)) if im == 0 else hash((F(re), F(im))))
        for copied in (pickle.loads(pickle.dumps(z)), copy.copy(z), copy.deepcopy(z)):
            assert copied == z and (copied is z) == (z is C(re, im))
    assert C(2) == 2 and hash(C(2)) == hash(2) and C(0).is_zero()


def test_field_path_returns_no_floats():
    """Int entries next to a CRat are divided as Fractions, never as floats."""
    C = CRat
    red, pivots = rref([[C(0, 1), 0], [0, 3]])
    assert pivots == [0, 1]
    assert _typed(red) == _typed([(C(1), C(0)), (F(0), F(1))])
    d = det([[C(0, 1), 0, 0], [0, 2, 1], [0, 4, 3]])
    assert _typed(d) == _typed(C(0, 2))
    for x in [x for row in red for x in row] + [d, d.re, d.im]:
        assert not isinstance(x, float)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_echelon_basis_tracks_rank(data):
    """After any sequence of add and pop, the kept rows have full rank, add
    keeps a vector exactly when it raises the rank, and contains holds
    exactly when it does not; over Q (Fraction or int entries) and over Q(i)."""
    ncols = data.draw(st.integers(1, 4))
    entry = data.draw(st.sampled_from([rat, st.integers(-4, 4), st.builds(CRat, rat, rat)]))
    drawn = []

    def vector():
        """A fresh vector, or a combination of two drawn ones (often dependent)."""
        if drawn and data.draw(st.booleans()):
            u, w = data.draw(st.sampled_from(drawn)), data.draw(st.sampled_from(drawn))
            a, b = data.draw(rat), data.draw(rat)
            return tuple(a * x + b * y for x, y in zip(u, w))
        v = tuple(data.draw(st.lists(entry, min_size=ncols, max_size=ncols)))
        drawn.append(v)
        return v

    basis, kept = EchelonBasis(), []
    for op in data.draw(st.lists(st.sampled_from(["add", "pop", "contains"]), max_size=12)):
        if op == "pop":
            if kept:
                basis.pop()
                kept.pop()
            continue
        v = vector()
        grows = rank(kept + [v]) > len(kept)
        if op == "add":
            assert basis.add(v) == grows
            if grows:
                kept.append(v)
        else:
            assert basis.contains(v) == (not grows)
        assert len(basis) == rank(kept) == len(kept)
    assert len(EchelonBasis(drawn)) == rank(drawn)


# ---------------------------------------------------------------------------
# orientation signs at pivot columns against coordinates solved per vector

def _sign_or_error(sign, frm, to):
    try:
        return sign(frm, to)
    except ValueError as exc:
        return str(exc)


@st.composite
def basis_pairs(draw):
    """(frm, to) in R^1-R^4: `to` possibly dependent, `frm` either a
    combination of `to` or free vectors, sometimes one vector short."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(0, d))
    to = draw(matrix(m, d))
    if draw(st.booleans()):
        mix = draw(matrix(m, m))
        frm = [tuple(sum(c * v[j] for c, v in zip(row, to)) for j in range(d))
               for row in mix]
    else:
        frm = draw(matrix(m, d))
    if frm and draw(st.integers(0, 9)) == 0:
        frm = frm[1:]
    return [tuple(v) for v in frm], [tuple(v) for v in to]


SIGN_ERRORS = [
    ([(F(1), F(0))], [(F(1), F(0)), (F(0), F(1))], "bases of different sizes"),
    ([(F(0), F(0), F(1))], [(F(1), F(0), F(0))], "vectors do not span the same space"),
    ([(F(1), F(0)), (F(2), F(0))], [(F(1), F(0)), (F(0), F(1))],
     "degenerate change of basis"),
    ([(F(1), F(0)), (F(0), F(1))], [(F(1), F(0)), (F(2), F(0))],
     "vectors do not span the same space"),
    ([(F(1), F(0)), (F(3), F(0))], [(F(1), F(0)), (F(2), F(0))],
     "degenerate change of basis"),
]


@settings(max_examples=300, deadline=None)
@given(basis_pairs())
def test_basis_change_sign_matches_solved_coordinates(pair):
    frm, to = pair
    assert _sign_or_error(basis_change_sign, frm, to) == \
        _sign_or_error(oref.basis_change_sign, frm, to)


@pytest.mark.parametrize("frm, to, error", SIGN_ERRORS)
def test_basis_change_sign_errors_match_reference(frm, to, error):
    assert _sign_or_error(basis_change_sign, frm, to) == error == \
        _sign_or_error(oref.basis_change_sign, frm, to)


def test_basis_change_sign_solves_nothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("basis_change_sign solved a system")

    monkeypatch.setattr(linalg, "solve", forbidden)
    e = [tuple(F(int(i == j)) for j in range(3)) for i in range(3)]
    assert basis_change_sign([e[1], e[0]], [e[0], e[1]]) == -1
    assert basis_change_sign([(F(1), F(1), F(0)), e[1]], [e[0], e[1]]) == 1
    assert basis_change_sign([e[0], e[2]], [(F(-2), F(0), F(1)), e[2]]) == -1
    for frm, to, error in SIGN_ERRORS:
        assert _sign_or_error(basis_change_sign, frm, to) == error
