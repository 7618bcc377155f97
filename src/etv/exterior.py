"""Real and complex exterior algebra over C^n viewed as R^{2n}.

Conventions fixed here and relied on by every other module:

* Real coordinates are interleaved ``(x1, y1, ..., xn, yn)``; the complex
  structure J maps ``(xj, yj) -> (-yj, xj)``, i.e. multiplication by i.
* The complex pairing ``<z, w> = sum_j zj * wj`` is complex bilinear.  A
  dual point w acts on z through the real functional ``Re<z, w>``, which
  identifies real covectors on R^{2n} with complex covectors: the real
  covector ``sum aj dxj + cj dyj`` corresponds to ``w_j = aj - i*cj``.
* ``d^c g (v) = dg(J v)``.  For the affine g(z) = Re<z, w> + c this gives
  the real covector with x-coefficients -Im(w) and y-coefficients -Re(w),
  whose complex covector is ``i * w``.  (The global sign is pinned by the
  weighted-boundary identity test in the acceptance suite.)

Forms and multivectors share one sparse representation keyed by strictly
increasing index tuples.  An odd form is a plain form together with the
ordered basis (orientation token) it is expressed in; re-expressing in a
basis of opposite orientation negates it.

A frame on a cell with tangent space E is read through the complex split
of E (`complex_split`), computed once per distinct tangent basis: whether
E is degenerate, the rref basis of its maximal complex subspace
C_E = E & JE (the kernel of the annihilator A of E together with JA),
which is already the standard complex basis (u1, J u1, ...), and a
quotient basis of E/C_E oriented so that (quotient, complex basis) has
the orientation of the tangent basis.
A sign or a weight is one evaluation of the frame on the quotient basis
(`quotient_density`); the cycle check evaluates the frame once on every
subset of the quotient and complex bases (`frame_on_split`).

The split depends on the tangent basis alone, and stable products meet
the same few tangent spaces on many fresh cells, so `complex_split`
remembers the splits of its last `_SPLIT_MEMO_CAP` distinct bases (first
in, first out), keyed by the ordered basis, which fixes the orientation.
Its fields are tuples, so a remembered split is shared read-only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .linalg import _remember, basis_change_sign, det, det_at, kernel_basis, rref
from .scalars import CRat

RVec = tuple  # 2n rationals, (x1, y1, ..., xn, yn)
CCov = tuple  # n CRat entries

_SPLIT_MEMO_CAP = 256
_SPLIT_MEMO: dict = {}  # tangent basis -> ComplexSplit, oldest first


# ---------------------------------------------------------------------------
# sparse alternating tensors

class Alt:
    """Sparse alternating tensor of fixed degree.

    Used both for forms (keys index covectors) and multivectors (keys
    index vectors); coefficients are Fraction or CRat.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict | None = None):
        self.degree = degree
        self.terms = {}
        if terms:
            for key, val in terms.items():
                if val != 0:
                    self.terms[tuple(key)] = val

    @staticmethod
    def scalar(value) -> "Alt":
        return Alt(0, {(): value})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Alt") -> "Alt":
        if self.degree != other.degree:
            raise ValueError("degree mismatch in sum")
        terms = dict(self.terms)
        for key, val in other.terms.items():
            new = terms.get(key, 0) + val
            if new == 0:
                terms.pop(key, None)
            else:
                terms[key] = new
        return Alt(self.degree, terms)

    def __sub__(self, other: "Alt") -> "Alt":
        return self + (-other)

    def __neg__(self) -> "Alt":
        return Alt(self.degree, {k: -v for k, v in self.terms.items()})

    def scale(self, factor) -> "Alt":
        if factor == 0:
            return Alt(self.degree)
        return Alt(self.degree, {k: v * factor for k, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, Alt) and self.degree == other.degree
                and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return f"Alt{self.degree}(0)"
        parts = [f"{v}*e{list(k)}" for k, v in sorted(self.terms.items())]
        return f"Alt{self.degree}(" + " + ".join(parts) + ")"


def _merge_keys(a: tuple, b: tuple):
    """Merge two increasing tuples; returns (merged, shuffle sign) or (None, 0)."""
    merged = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None, 0
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a) - i entries of a
            if (len(a) - i) % 2:
                sign = -sign
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return tuple(merged), sign


def wedge(a: Alt, b: Alt) -> Alt:
    """Exterior product; returns the zero form on degree overflow."""
    out: dict = {}
    for ka, va in a.terms.items():
        for kb, vb in b.terms.items():
            key, sign = _merge_keys(ka, kb)
            if key is None:
                continue
            val = va * vb
            if sign < 0:
                val = -val
            cur = out.get(key, 0) + val
            if cur == 0:
                out.pop(key, None)
            else:
                out[key] = cur
    return Alt(a.degree + b.degree, out)


def wedge_all(factors) -> Alt:
    result = None
    for f in factors:
        result = f if result is None else wedge(result, f)
    if result is None:
        return Alt.scalar(Fraction(1))
    return result


# ---------------------------------------------------------------------------
# complex structure

def apply_J(v: RVec) -> RVec:
    out = []
    for j in range(0, len(v), 2):
        out.extend((-v[j + 1], v[j]))
    return tuple(out)


def complexify(v: RVec) -> CCov:
    """Complex coordinates z_j = x_j + i y_j of a real vector."""
    return tuple(CRat(v[j], v[j + 1]) for j in range(0, len(v), 2))


def pairing(z: RVec, w: RVec) -> CRat:
    """Complex bilinear pairing sum z_j w_j of two real-coordinate vectors."""
    return _complex_pairing(complexify(z), complexify(w))


def _complex_pairing(z: CCov, w: CCov) -> CRat:
    """sum z_j w_j of two vectors of complex coordinates."""
    total = CRat(0)
    for a, b in zip(z, w):
        total = total + a * b
    return total


def rho(mv: Alt) -> Alt:
    """Ring homomorphism from real to complex multivectors, identity on vectors.

    Basis vectors map as e_{xj} -> f_j and e_{yj} -> i f_j; blades with a
    repeated complex direction collapse to zero.
    """
    out = Alt(mv.degree)
    for key, val in mv.terms.items():
        factors = []
        for idx in key:
            coeff = CRat(1) if idx % 2 == 0 else CRat(0, 1)
            factors.append(Alt(1, {(idx // 2,): coeff}))
        blade = wedge_all(factors) if factors else Alt.scalar(CRat(1))
        out = out + blade.scale(CRat.of(val) if not isinstance(val, CRat) else val)
    return out


# ---------------------------------------------------------------------------
# covectors and d^c

def real_functional_of_dual_point(w: RVec) -> tuple:
    """Ambient coefficients of z -> Re<z, w> for a dual-space point w."""
    out = []
    for j in range(0, len(w), 2):
        out.extend((w[j], -w[j + 1]))
    return tuple(out)


def real_covector_to_ccov(xi) -> CCov:
    """Complex covector w with Re<z, w> equal to the real covector xi."""
    return tuple(CRat(xi[j], -xi[j + 1]) for j in range(0, len(xi), 2))


def ccov_to_real_covector(w: CCov) -> tuple:
    out = []
    for c in w:
        out.extend((c.re, -c.im))
    return tuple(out)


def dc_affine(w: CCov, c=Fraction(0)) -> Alt:
    """d^c of the affine functional Re<z, w> + c, as a real covector.

    By d^c g(v) = dg(Jv): the x_j coefficient is -Im w_j and the y_j
    coefficient is -Re w_j; the constant contributes nothing.
    """
    terms = {}
    for j, wj in enumerate(w):
        if wj.im != 0:
            terms[(2 * j,)] = -wj.im
        if wj.re != 0:
            terms[(2 * j + 1,)] = -wj.re
    return Alt(1, terms)


def dc_ccov(w: CCov) -> CCov:
    """d^c of Re<z, w> as a complex covector: i * w."""
    i = CRat(0, 1)
    return tuple(i * wj for wj in w)


def ccov_form(w: CCov) -> Alt:
    """A complex covector as a degree-1 complex form."""
    return Alt(1, {(j,): wj for j, wj in enumerate(w) if not wj.is_zero()})


# ---------------------------------------------------------------------------
# evaluation and restriction

def evaluate_cform(form: Alt, vectors) -> CRat:
    """Value of a complex m-form on m real vectors (complexified arguments)."""
    if form.degree != len(vectors):
        raise ValueError("argument count does not match form degree")
    zs = [complexify(v) for v in vectors]
    total = CRat(0)
    for key, val in form.terms.items():
        minor = [[z[i] for i in key] for z in zs]
        total = total + CRat.of(val) * det(minor)
    return total


def _pullback(form: Alt, basis, evaluate) -> Alt:
    """A form in the coordinates of a basis: its values, by `evaluate`, on
    the m-subsets of the basis."""
    return Alt(form.degree, {key: evaluate(form, [basis[i] for i in key])
                             for key in combinations(range(len(basis)), form.degree)})


def restrict(form: Alt, basis) -> tuple[Alt, bool]:
    """Pullback of a complex form to the span of a real basis.

    Returns the form in basis coordinates (CRat values) and a flag telling
    whether every coefficient is real.
    """
    pulled = _pullback(form, basis, evaluate_cform)
    return pulled, all(v.im == 0 for v in pulled.terms.values())


def evaluate_rform(form: Alt, vectors):
    """Value of a real m-form on m real vectors (no complexification)."""
    if form.degree != len(vectors):
        raise ValueError("argument count does not match form degree")
    total = Fraction(0)
    for key, val in form.terms.items():
        total += val * det([[v[i] for i in key] for v in vectors])
    return total


def restrict_rform(form: Alt, basis) -> Alt:
    """Classical pullback of a real form to the span of a real basis."""
    return _pullback(form, basis, evaluate_rform)


# ---------------------------------------------------------------------------
# complex subspaces and the complex split of a tangent space

def max_complex_subspace(basis) -> tuple[list, bool]:
    """Largest complex subspace of span(basis) and a degeneracy verdict.

    Returns (canonical basis of E & J(E), degenerate) where degenerate
    means the complex codimension of the subspace is smaller than the real
    codimension of E.  With A the annihilator of E, x lies in E & JE when
    Ax = 0 and A J^-1 x = 0; J is a rotation, so the rows of A J^-1 are
    the J a, and E & JE is the kernel of A and JA.
    """
    if not basis:
        return [], False
    ncols = len(basis[0])
    ann = kernel_basis(basis, ncols)
    inter = kernel_basis(ann + [apply_J(a) for a in ann], ncols)
    return inter, ncols // 2 - len(inter) // 2 < len(ann)


def complex_annihilator(covectors, n):
    """Basis of {z in C^n : <z, w> = 0 for all given covectors w}."""
    return kernel_basis([list(w) for w in covectors], n, one=CRat(1))


class ComplexSplit(NamedTuple):
    """A tangent space E cut into its maximal complex subspace C_E and a
    complement, the quotient basis.

    The rref basis of a complex subspace is already (u1, J u1, u2, J u2, ...):
    its real pivots come in pairs (2q, 2q + 1), and J of the row with pivot
    2q is the row with pivot 2q + 1, so it carries the complex orientation.
    The quotient basis is the tangent vectors outside the span of C_E and of
    the tangent vectors before them, with its first vector negated when
    needed so that (quotient, complex basis) has the orientation of the
    tangent basis.  A degenerate E has no quotient basis.
    """
    degenerate: bool
    complex_basis: tuple
    quotient_basis: tuple


def complex_split(tangent_basis) -> ComplexSplit:
    """The complex split of span(tangent_basis), oriented by that basis,
    from the memo keyed by the basis itself (see the module docstring)."""
    key = tuple(tangent_basis)
    split = _SPLIT_MEMO.get(key)
    if split is None:
        split = _remember(_SPLIT_MEMO, _SPLIT_MEMO_CAP, key, _complex_split(key))
    return split


def _complex_split(tangent) -> ComplexSplit:
    """The complex split of span(tangent), computed: `complex_split` without
    its memo."""
    if not tangent:
        return ComplexSplit(False, (), ())
    c_basis, degenerate = max_complex_subspace(tangent)
    if degenerate:
        return ComplexSplit(True, tuple(c_basis), ())
    pivots = rref(tangent)[1]
    if len(pivots) != len(tangent):
        raise ValueError("tangent vectors are dependent")
    if not c_basis:
        return ComplexSplit(False, (), tangent)
    # the pivot columns of the transpose are the rows outside the span of
    # the rows before them
    keep = rref(list(zip(*(c_basis + list(tangent)))))[1][len(c_basis):]
    quotient = [tangent[i - len(c_basis)] for i in keep]
    if det_at(quotient + c_basis, pivots) * det_at(tangent, pivots) < 0:
        if not quotient:
            raise ValueError("complex subspace orientation conflicts with token")
        quotient[0] = tuple(-x for x in quotient[0])
    return ComplexSplit(False, tuple(c_basis), tuple(quotient))


def quotient_density(form: Alt, split: ComplexSplit) -> CRat:
    """Value of a degree-(dim E - dim C_E) form on the oriented quotient basis."""
    if split.degenerate:
        raise ValueError("quotient pushforward on a degenerate subspace")
    if form.degree != len(split.quotient_basis):
        raise ValueError("form degree does not match quotient dimension")
    return evaluate_cform(form, split.quotient_basis)


def density_sign(density: CRat) -> int:
    """+1 / -1 for a nonzero real density, 0 otherwise."""
    if density.im != 0 or density.re == 0:
        return 0
    return 1 if density.re > 0 else -1


def frame_on_split(form: Alt, split: ComplexSplit) -> tuple[bool, bool, CRat]:
    """(real on E, zero on C_E, quotient density) of a form, in one pass.

    The form is evaluated once on every m-subset of the quotient basis
    followed by the complex basis, a basis of E.  Realness of the pullback
    to E does not depend on the real basis its values are taken in; the
    subsets that meet the complex basis are those the form must kill; the
    first subset is the quotient basis itself.
    """
    density = quotient_density(form, split)
    pool = split.quotient_basis + split.complex_basis
    real, kills = density.im == 0, True
    subsets = combinations(range(len(pool)), form.degree)
    next(subsets)  # the quotient basis itself
    for key in subsets:
        val = evaluate_cform(form, [pool[i] for i in key])
        real = real and val.im == 0
        kills = kills and val.is_zero()
    return real, kills, density


class Pushforward(NamedTuple):
    """Quotient volume data of an odd form on a cell tangent space."""
    density: CRat          # value on the oriented quotient basis
    sign: int              # +1 / -1 / 0
    real: bool
    kills_complex: bool


def quotient_pushforward(form: Alt, tangent_basis) -> Pushforward:
    """Direct image of a degree-(dim E - dim C_E) form on E/C_E.

    The form is taken at the orientation of tangent_basis; the quotient is
    oriented so that (quotient, complex-standard) recovers that orientation.
    """
    _, kills, density = frame_on_split(form, complex_split(tangent_basis))
    return Pushforward(density=density, sign=density_sign(density),
                       real=density.im == 0, kills_complex=kills)


# ---------------------------------------------------------------------------
# odd forms

class OddForm(NamedTuple):
    """A complex form together with the orientation token it is written in."""
    form: Alt
    basis: tuple

    def transported(self, new_basis) -> "OddForm":
        sign = basis_change_sign(list(self.basis), list(new_basis))
        form = self.form if sign > 0 else -self.form
        return OddForm(form=form, basis=tuple(new_basis))
