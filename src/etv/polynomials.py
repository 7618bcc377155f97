"""Multivariate polynomials with exact rational coefficients.

Just enough for test forms: coefficients of smooth forms are polynomials
in the ambient coordinates, and current evaluation needs products,
affine substitution, partial derivatives and simplex integration.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

_ZERO = Fraction(0)


class Poly:
    """Polynomial as {exponent tuple: coefficient}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c != 0:
                    self.terms[tuple(e)] = c

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        return Poly(nvars, {(0,) * nvars: Fraction(c)})

    @staticmethod
    def var(nvars: int, i: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return Poly(nvars, {tuple(e): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, _ZERO) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, _ZERO) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def derivative(self, i: int) -> "Poly":
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = c * e[i]
        return Poly(self.nvars, out)

    def subs_affine(self, base, directions) -> "Poly":
        """Substitute z = base + sum_j t_j * directions[j]; result in t."""
        nt = len(directions)
        subs = []
        for i in range(self.nvars):
            p = Poly.const(nt, base[i])
            for j, d in enumerate(directions):
                if d[i] != 0:
                    p = p + Poly(nt, {tuple(1 if jj == j else 0 for jj in range(nt)): d[i]})
            subs.append(p)
        out = Poly.const(nt, 0)
        for e, c in self.terms.items():
            term = Poly.const(nt, c)
            for i, p in enumerate(e):
                for _ in range(p):
                    term = term * subs[i]
            out = out + term
        return out

    def integral_over_standard_simplex(self) -> Fraction:
        """Integral over {t >= 0, sum t <= 1} in nvars variables."""
        d = self.nvars
        total = _ZERO
        for e, c in self.terms.items():
            num = 1
            for a in e:
                num *= factorial(a)
            total += c * Fraction(num, factorial(d + sum(e)))
        return total

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        parts = [f"{c}*t^{list(e)}" for e, c in sorted(self.terms.items())]
        return "Poly(" + " + ".join(parts) + ")"
