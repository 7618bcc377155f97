"""Exact scalars: rationals and complex rationals.

Rationals are plain ``fractions.Fraction``.  Complex scalars are pairs of
Fractions forming the field Q(i).  Everything downstream (forms, polyhedra,
linear algebra) works over one of these two fields; no floating point is
used anywhere in the library.

Integers in [-16, 16] are shared Fraction objects, and a CRat whose parts
are both such integers is a shared instance, so the small values that
exact elimination produces over and over are stored once.  CRat values are
never mutated.
"""

from __future__ import annotations

from fractions import Fraction

_SMALL = {k: Fraction(k) for k in range(-16, 17)}
_GAUSSIAN: dict = {}  # a*33 + b -> CRat(a, b) for |a|, |b| <= 16, filled on first use


def _fraction(num: int, den: int = 1) -> Fraction:
    """num/den as a Fraction; integers in [-16, 16] are shared objects."""
    q, m = divmod(num, den)
    if m:
        return Fraction(num, den)
    return _SMALL[q] if -16 <= q <= 16 else Fraction(q)


def rat_str(x: Fraction) -> str:
    """Serialize a rational as ``"p"`` or ``"p/q"`` with q > 0, lowest terms."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class CRat:
    """Complex rational a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __new__(cls, re=0, im=0):
        if not isinstance(re, Fraction):
            re = Fraction(re)
        if not isinstance(im, Fraction):
            im = Fraction(im)
        a, b = re.numerator, im.numerator
        small_b = im.denominator == 1 and -16 <= b <= 16
        key = None
        if re.denominator == 1 and -16 <= a <= 16:
            re = _SMALL[a]
            if small_b:
                key = a * 33 + b
                z = _GAUSSIAN.get(key)
                if z is not None:
                    return z
        if small_b:
            im = _SMALL[b]
        z = object.__new__(cls)
        z.re = re
        z.im = im
        if key is not None:
            _GAUSSIAN[key] = z
        return z

    def __reduce__(self):
        # The default would build CRat() -- the shared zero -- and then set
        # its parts; rebuilding from the parts keeps shared values intact.
        return CRat, (self.re, self.im)

    @staticmethod
    def of(x) -> "CRat":
        if isinstance(x, CRat):
            return x
        if isinstance(x, (int, Fraction)):
            return CRat(x)
        if isinstance(x, str):
            return CRat(Fraction(x))
        raise TypeError(f"cannot build complex rational from {type(x).__name__}")

    def __add__(self, other):
        o = CRat.of(other)
        return CRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = CRat.of(other)
        return CRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return CRat.of(other) - self

    def __mul__(self, other):
        o = CRat.of(other)
        return CRat(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = CRat.of(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero complex rational")
        return CRat((self.re * o.re + self.im * o.im) / d,
                    (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        return CRat.of(other) / self

    def __neg__(self):
        return CRat(-self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.re == other and self.im == 0
        if isinstance(other, CRat):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.im == 0:
            return rat_str(self.re)
        if self.re == 0:
            return f"{rat_str(self.im)}i"
        sign = "+" if self.im > 0 else "-"
        return f"{rat_str(self.re)}{sign}{rat_str(abs(self.im))}i"


def crat_str(z: CRat) -> dict:
    return {"re": rat_str(z.re), "im": rat_str(z.im)}

