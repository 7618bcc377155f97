"""Piecewise linear functions, corner loci, and mixed products.

A PL function is a difference of two max-families of affine functionals
Re<z, w> + c.  Its corner locus is the codimension-one complex framed by
the d^c jumps across walls of the linearity tiling: the weighted boundary
of the tiling, each full-dimensional cell P framed by d^c(h_P).  A wall
between P and Q is a facet of both with opposite outward vectors, so it
carries s_P (d^c(h_P) - d^c(h_Q)), where s_P is the sign of (outward from
P, canonical wall basis) against the standard orientation of R^{2n}.

The linearity tiling comes from one lifted hull, with no LP.  Lift each
f = Re<z, w> + c to the point (a, c) of R^{2n+1}, with a the real
covector of w, and let P and Q be the hulls of the lifted plus and minus
families.  A point z lies in the region where f_i and g_j rule exactly
when (z, 1) attains its maximum over the sums p + q at p_i + q_j, so the
region is the slice t = 1 of the normal cone of P + Q at p_i + q_j, and
the tiling is the upper normal complex of the Minkowski sum
(Gelfand-Kapranov-Zelevinsky 1994, ch. 7; Maclagan-Sturmfels 2015, 3.1;
Ziegler, Lectures on Polytopes, 7.12).  A face is upper when its normal
cone meets t > 0: when e_t is not in the direction space of the hull, or
when it lies in a facet whose normal has t > 0.  The region of (i, j) is
full-dimensional exactly when p_i + q_j is an upper vertex, and its
facets are the slices of the normal cones of its upper edges D, one row
(D_a).z <= -D_c each; the facets of a full-dimensional polyhedron are
irredundant and pairwise non-parallel, so these primitive rows, sorted,
are its canonical form.  A corner locus is a cycle by the same theorem,
so `corner_locus` does not validate it.

The weighted-boundary operator takes a cycle X on whose cells h is affine
to the boundary of the cycle framed by d^c(G) wedge frame, where G is the
affine extension of h on each cell.  The linearity tiling is the one answer
to "where is h affine", here and in the zero criterion of `etv.degeneracy`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import NamedTuple

from .exterior import ccov_form, ccov_to_real_covector, complexify, dc_ccov, wedge
from .framed import (EtvRep, FramedCell, FramedSet, _framed, boundary,
                     canonicalize, cell_weight, equivalent, translate, zero_etv)
from .intersection import product_many
from .linalg import _real_ambient
from .polyhedra import (HPoly, VPolytope, _built_canonical, _chart, _dual_n, _faces_below,
                        _hull_facets, _prim_ineq, volume)
from .scalars import CRat

_ZERO = Fraction(0)
_ONE = Fraction(1)


class AffineFunc(NamedTuple):
    """z -> Re<z, w> + c with w a complex covector."""
    w: tuple      # CRat entries
    c: Fraction

    def real_coeffs(self):
        return ccov_to_real_covector(self.w)

    def value(self, z):
        return sum(a * x for a, x in zip(self.real_coeffs(), z)) + self.c


def affine_zero(n: int) -> AffineFunc:
    return AffineFunc(w=tuple(CRat(0) for _ in range(n)), c=_ZERO)


class PLFunction(NamedTuple):
    """max(plus) - max(minus), both families nonempty and duplicate-free."""
    n: int
    plus: tuple
    minus: tuple

    @staticmethod
    def convex(n: int, funcs) -> "PLFunction":
        return PLFunction(n=n, plus=tuple(dict.fromkeys(funcs)),
                          minus=(affine_zero(n),))

    def value(self, z):
        return (max(f.value(z) for f in self.plus)
                - max(f.value(z) for f in self.minus))

    def is_convex(self) -> bool:
        return len(self.minus) == 1

    def plus_sum(self, other: "PLFunction") -> "PLFunction":
        """Pointwise sum, using max-family addition on both parts."""
        if self.n != other.n:
            raise ValueError("ambient mismatch")

        def family_sum(fa, fb):
            out = []
            for f in fa:
                for g in fb:
                    w = tuple(a + b for a, b in zip(f.w, g.w))
                    out.append(AffineFunc(w, f.c + g.c))
            return tuple(dict.fromkeys(out))
        return PLFunction(self.n, family_sum(self.plus, other.plus),
                          family_sum(self.minus, other.minus))


class LinearityCell(NamedTuple):
    poly: HPoly
    plus_active: AffineFunc
    minus_active: AffineFunc

    def differential(self):
        """Total differential covector w_plus - w_minus on this cell."""
        return tuple(a - b for a, b in zip(self.plus_active.w, self.minus_active.w))


def _upper_vertex_rows(points) -> dict:
    """Index -> canonical rows of its region, for each upper vertex of the
    hull of distinct lifted points: one row per upper edge at the vertex."""
    t = len(points[0]) - 1
    _, pivots, coords = _chart(points)
    facets = _hull_facets(coords)
    if t in pivots:  # e_t is a direction of the hull, the last chart coordinate
        top = [tight for normal, _, tight in facets if normal[-1] > 0]
        dim = len(pivots) - 1
    else:  # every face is upper
        top, dim = [frozenset(range(len(points)))], len(pivots)
    lattice = _faces_below(top, dim, [tight for _, _, tight in facets])
    rows = {v: [] for (v,) in lattice[0]}
    for edge in lattice.get(1, ()):
        # the two vertices of the edge; its other points lie between them
        u, v = (i for i in edge if i in rows)
        for a, b in ((u, v), (v, u)):
            d = [y - x for x, y in zip(points[a], points[b])]
            rows[a].append(_prim_ineq(d[:-1], -d[-1]))
    return rows


def linearity_complex(h: PLFunction) -> list:
    """Full-dimensional cells where one plus and one minus functional rule,
    in the order of their first pair (i, j), from the upper faces of the
    lifted Minkowski sum (see the module docstring)."""
    first = {}  # lifted sum point -> the first pair of functionals giving it
    minus = [(g, g.real_coeffs() + (g.c,)) for g in h.minus]
    for f in h.plus:
        p = f.real_coeffs() + (f.c,)
        for g, q in minus:
            first.setdefault(tuple(x + y for x, y in zip(p, q)), (f, g))
    if not first:
        return []
    rows = _upper_vertex_rows(list(first))
    cells = []
    for i, (f, g) in enumerate(first.values()):
        if i in rows:
            cells.append(LinearityCell(_built_canonical(2 * h.n, (), sorted(rows[i])), f, g))
    return cells


def corner_locus(h: PLFunction) -> EtvRep:
    """The codimension-one cycle framed by d^c jumps of the linearity tiling:
    the boundary of the tiling with each cell framed by d^c of h on it."""
    cells = [FramedCell(lc.poly, ccov_form(dc_ccov(lc.differential())))
             for lc in linearity_complex(h)]
    return canonicalize(boundary(FramedSet(h.n, 2 * h.n, cells)), validate=False)


def support_function(gamma: VPolytope) -> PLFunction:
    """max over the vertices of Re<z, vertex>, as a convex PL function."""
    n = _dual_n(gamma)
    funcs = [AffineFunc(w=complexify(v), c=_ZERO) for v in gamma.vertices]
    return PLFunction.convex(n, funcs)


# ---------------------------------------------------------------------------
# the weighted-boundary operator

def dc_weighted(h: PLFunction, x) -> EtvRep:
    """Boundary of the cycle reframed by d^c of the cellwise affine extension.

    Requires a cycle, not checked here, with h affine on every support cell;
    the result is a cycle by theorem, not checked either, of cycle
    dimension one less, and depends only on the class of the input.  A cell
    takes the differential of the first tiling region that contains its
    relative interior point p, then the cell (one LP per region row).  One
    does exactly when both maxima are affine on the cell: then a functional
    ruling at p rules on all of it, so the face of the lifted sum maximizing
    (z, 1) contains that for (p, 1) and its vertices.  Extensions from two
    regions differ by an l vanishing on the cell, so d^c l kills T & JT and
    d^c l ^ frame = 0, a valid frame being the top wedge of ann(T & JT).
    """
    framed = _framed(x)
    n = framed.n
    if h.n != n:
        raise ValueError("ambient mismatch")
    if framed.k - 1 < n:
        raise ValueError("weighted boundary drops below the cycle range")
    tiling = linearity_complex(h)
    cells = []
    for c in framed.support_cells():
        p = c.poly.relint_point()
        region = next((lc for lc in tiling if lc.poly.contains_point(p)
                       and lc.poly.contains_poly(c.poly)), None)
        if region is None:
            raise ValueError("function is not affine on a support cell")
        dc_form = ccov_form(dc_ccov(region.differential()))
        cells.append(FramedCell(c.poly, wedge(dc_form, c.frame)))
    weighted = FramedSet(n, framed.k, cells)
    return canonicalize(boundary(weighted), validate=False)


def mixed_ma(*funcs: PLFunction, seed: int = 0) -> EtvRep:
    """Product of the corner loci; zero above the dimension range."""
    if not funcs:
        raise ValueError("empty mixed product")
    n = funcs[0].n
    if any(h.n != n for h in funcs):
        raise ValueError("ambient mismatch")
    if len(funcs) > n:
        return zero_etv(n, n)
    loci = []
    for h in funcs:
        locus = corner_locus(h)
        if locus.is_zero():
            return zero_etv(n, 2 * n - len(funcs))
        loci.append(locus)
    return product_many(loci, seed=seed)


# ---------------------------------------------------------------------------
# mixed volumes

def embed_real(points) -> VPolytope:
    """Points of R^n as dual-space points with zero imaginary parts."""
    out = []
    for p in points:
        v = []
        for x in p:
            v.extend((Fraction(x), _ZERO))
        out.append(tuple(v))
    return VPolytope.from_points(out)


def _check_real_body(gamma: VPolytope):
    for v in gamma.vertices:
        if any(v[i] != 0 for i in range(1, len(v), 2)):
            raise ValueError("body has nonzero imaginary coordinates")


def mixed_volume_via_ma(*bodies: VPolytope, seed: int = 0) -> Fraction:
    """Mixed volume through the mixed product of support-function loci.

    The product of the n corner loci is supported on translates of the
    imaginary plane; its total density divided by n! is the mixed volume.
    """
    n = _dual_n(bodies[0])
    if len(bodies) != n:
        raise ValueError(f"need exactly {n} bodies")
    for b in bodies:
        _check_real_body(b)
    result = mixed_ma(*[support_function(b) for b in bodies], seed=seed)
    if result.is_zero():
        return _ZERO
    imag_basis = _imaginary_units(n)
    total = _ZERO
    for c in result.cells():
        if c.poly.tangent_basis != imag_basis:
            raise ValueError("mixed product not supported on imaginary translates")
        total += cell_weight(c.frame, c.poly.tangent_basis)
    return total / factorial(n)


def _real_minkowski(a, b):
    return [tuple(x + y for x, y in zip(p, q)) for p in a for q in b]


def mixed_volume_oracle(*bodies) -> Fraction:
    """Polarization of the volume: independent of the cycle machinery.

    Bodies are plain point lists in R^n; the alternating sum of volumes of
    Minkowski sums over subsets divided by n! gives the mixed volume.
    """
    n = _real_ambient(bodies)
    total = _ZERO
    for r in range(1, n + 1):
        for subset in combinations(range(n), r):
            pts = [tuple(Fraction(x) for x in p) for p in bodies[subset[0]]]
            for i in subset[1:]:
                pts = _real_minkowski(pts, bodies[i])
            total += (-1) ** (n - r) * volume(pts)
    return total / factorial(n)


def is_r_generated(p) -> bool:
    """Invariance of the cycle under translations along the imaginary plane."""
    rep = canonicalize(p)
    if rep.is_zero():
        return True
    return all(equivalent(translate(rep, e), rep) for e in _imaginary_units(rep.n))


def _imaginary_units(n: int) -> tuple:
    """e_{y1}, ..., e_{yn} in rref: the tangent basis of the imaginary plane of C^n."""
    return tuple(tuple(_ONE if i == 2 * j + 1 else _ZERO for i in range(2 * n))
                 for j in range(n))
