"""Framed polyhedral complexes and the group of tropical cycles.

A framed set is a k-dimensional complex whose top cells carry odd complex
forms of degree 2n-k, always stored relative to the cell's canonical
tangent basis.  Validity of a framed set as a cycle means: every frame
restricts real-valued to its cell, vanishes on the cell's maximal complex
subspace, degenerate cells carry zero frames, and the boundary cancels.

Because canonical tangent bases depend only on the direction space of a
cell, refining or translating cells never changes the reference
orientation, so frames can be compared and summed directly.  A framed set
is a chain: `FramedSet` sums the frames of the cells it is given per cell
key, so it lists each cell once, and every reader sees the sum.  Sums of
zero stay as zero-framed cells; `canonicalize` drops them.  Boundaries sum
facet frames, transversal intersections sum signed wedges, `canonicalize`
sums each merged region into a cell outside it with the same key, and the
corner locus of a PL function is the boundary of its linearity tiling
with each cell framed by d^c of the function there.  `_refined_sum` is the
one refinement of the cycle group: sums, classes and recession fans sum
the frames of the pieces of the common refinement of their cells (each
piece inherits the frame of the cell it was cut from, so no point location
is needed).

Neighbours come from one facet-owner index, facet key -> the cells that
have that facet, and one union-find over it.  Cells do not cache their
facets; `canonicalize` builds those of each cell once per call, in a dict
that its validation, restarts and region unions share.
`irreducible_components` joins cells across every shared facet.
`canonicalize` joins equal-framed cells of one hull across free walls,
facets that only those two cells own, and makes each region one cell, the
envelope of the rows of its boundary facets (Bemporad, Fukuda, Torrisi
2001), when its cells satisfy those rows and do not overlap.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .exterior import (Alt, _merge_keys, ccov_form, complex_annihilator,
                       complex_split, complexify, density_sign, evaluate_cform,
                       frame_on_split, quotient_density, wedge_all)
from .linalg import basis_change_sign, det, det_at
from .lp import OPTIMAL
from .polyhedra import (HPoly, PolyhedralSet, _built_canonical, common_refinement,
                        face_to_face, triangulate)
from .polynomials import Poly
from .scalars import CRat

_ZERO = Fraction(0)
_ONE = Fraction(1)


class FramedCell(NamedTuple):
    poly: HPoly   # canonical
    frame: Alt    # complex form at the orientation of poly.tangent_basis

    def translated(self, vec) -> "FramedCell":
        return FramedCell(self.poly.translate(vec), self.frame)


class FramedSet:
    """k-dimensional cells with degree-(2n-k) frames in C^n (ambient R^{2n})."""

    __slots__ = ("n", "k", "cells")

    def __init__(self, n: int, k: int, cells=()):
        self.n = n
        self.k = k
        sums: dict = {}  # repr of the cell key -> the cell, its frames summed
        for c in cells:
            if c.poly.ambient != 2 * n:
                raise ValueError(f"cell in R^{c.poly.ambient} in a framed set of C^{n}")
            poly = c.poly.canonical()
            if poly.is_empty():
                continue
            if poly.dim != k:
                raise ValueError(f"cell of dimension {poly.dim} in a {k}-dim framed set")
            key = repr(poly.key)
            cur = sums.get(key)
            if cur is None:
                sums[key] = c if poly is c.poly else FramedCell(poly, c.frame)
            else:
                sums[key] = FramedCell(cur.poly, cur.frame + c.frame)
        self.cells = [sums[key] for key in sorted(sums)]

    @property
    def ambient(self) -> int:
        return 2 * self.n

    def support_cells(self):
        return [c for c in self.cells if not c.frame.is_zero()]

    def translated(self, vec) -> "FramedSet":
        if len(vec) != self.ambient:
            raise ValueError(f"translation by {len(vec)} coordinates in R^{self.ambient}")
        return FramedSet(self.n, self.k, [c.translated(vec) for c in self.cells])

    def scaled(self, t) -> "FramedSet":
        return FramedSet(self.n, self.k,
                         [FramedCell(c.poly, c.frame.scale(t)) for c in self.cells])

    def __repr__(self):
        return f"FramedSet(n={self.n}, k={self.k}, cells={len(self.cells)})"


# ---------------------------------------------------------------------------
# boundary

def induced_facet_sign(cell: HPoly, facet: HPoly, ineq) -> int:
    """Outward-first induced orientation of the facet vs its canonical basis.

    +1 when (outward vector, canonical facet basis) matches the cell's
    canonical orientation.  The cell's basis is in rref, so the coordinates
    of a vector of its direction space are the vector's entries at the
    pivot columns, and the sign is that of one determinant.
    """
    a, _ = ineq
    outward = None
    for v in cell.tangent_basis:
        d = sum(x * y for x, y in zip(a, v))
        if d != 0:
            outward = v if d > 0 else tuple(-x for x in v)
            break
    if outward is None:
        raise ValueError("inequality does not cut the cell's tangent space")
    pivots = [next(j for j, x in enumerate(v) if x != 0) for v in cell.tangent_basis]
    return 1 if det_at([outward, *facet.tangent_basis], pivots) > 0 else -1


def boundary(x: FramedSet) -> FramedSet:
    """Frames of facets summed with outward-first induced orientations."""
    return _boundary(x, {})


def _boundary(x: FramedSet, known: dict) -> FramedSet:
    return FramedSet(x.n, x.k - 1, (
        FramedCell(facet, c.frame if induced_facet_sign(c.poly, facet, ineq) > 0 else -c.frame)
        for c in x.support_cells() for facet, ineq in _facets(c.poly, known)))


def is_closed(x: FramedSet) -> bool:
    return not boundary(x).support_cells()


# ---------------------------------------------------------------------------
# validity

class ValidityReport(NamedTuple):
    ok: bool
    witness: str | None = None


def _cell_name(poly: HPoly) -> str:
    """A cell as its canonical rows in the coordinates (x1, y1, ..., xn, yn) of
    C^n, such as `{x1 = 0, -y1 <= 0}`: cells are kept in key order, not input order."""
    names = [f"{'xy'[j % 2]}{j // 2 + 1}" for j in range(poly.ambient)]

    def side(a):
        terms = (v if c == 1 else f"-{v}" if c == -1 else f"{c}*{v}"
                 for c, v in zip(a, names) if c)
        return " + ".join(terms).replace("+ -", "- ")
    return "{" + ", ".join([f"{side(a)} = {b}" for a, b in poly.eq]
                           + [f"{side(a)} <= {b}" for a, b in poly.ineq]) + "}"


def is_etp(x: FramedSet) -> ValidityReport:
    """Check the cycle conditions; the witness names the first failure."""
    return _is_etp(x, {})


def _check_cycle(x: FramedSet, known: dict):
    """Raise ValueError, naming the first failure, unless x is a cycle."""
    report = _is_etp(x, known)
    if not report.ok:
        raise ValueError(f"not a valid cycle: {report.witness}")


def _is_etp(x: FramedSet, known: dict) -> ValidityReport:
    if x.k < x.n:
        raise ValueError("dimension below n cannot carry a cycle structure")
    deg = 2 * x.n - x.k
    for c in x.cells:
        if c.frame.is_zero():
            continue
        if c.frame.degree != deg:
            fault = f"frame degree {c.frame.degree} != {deg}"
        elif (split := complex_split(c.poly.tangent_basis)).degenerate:
            fault = "degenerate cell with nonzero frame"
        # a complex-linear form that is real on E is zero on C_E, so realness
        # covers the kill check
        elif not frame_on_split(c.frame, split)[0]:
            fault = "restriction not real-valued"
        else:
            continue
        return ValidityReport(False, f"cell {_cell_name(c.poly)}: {fault}")
    bd = _boundary(x, known)
    for c in bd.cells:
        if not c.frame.is_zero():
            return ValidityReport(False, "boundary support nonempty")
    return ValidityReport(True)


# ---------------------------------------------------------------------------
# positivity

def cell_sign(frame: Alt, tangent_basis) -> int:
    """Sign of the quotient volume form: +1, -1, or 0."""
    return density_sign(quotient_density(frame, complex_split(tangent_basis)))


def cell_weight(frame: Alt, tangent_basis) -> Fraction:
    """Density of the frame against the unit positive frame of the subspace."""
    density = quotient_density(frame, complex_split(tangent_basis))
    if density.im != 0:
        raise ValueError("weight of a non-real frame")
    return density.re


def unit_positive_frame(tangent_basis, n: int) -> Alt:
    """The positive generator of frames on a nondegenerate subspace.

    Valid frames on a fixed subspace E form a one-dimensional real space.
    The wedge of a basis of the complex covectors that vanish on the maximal
    complex subspace of E is one of them up to a complex factor: it kills
    that subspace, so on E it is a multiple of the quotient volume form.
    Dividing by its quotient density gives the representative of density one.
    """
    split = complex_split(tangent_basis)
    if split.degenerate:
        raise ValueError("no positive frame: subspace is degenerate")
    form = wedge_all(ccov_form(w) for w in complex_annihilator(
        [complexify(v) for v in split.complex_basis], n))
    return form.scale(CRat(1) / quotient_density(form, split))


def is_positive(p) -> bool:
    for c in _framed(p).support_cells():
        if cell_sign(c.frame, c.poly.tangent_basis) < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# canonical representatives

class EtvRep:
    """Canonical representative of a cycle class (validated, zero-free, merged)."""

    __slots__ = ("framed",)

    def __init__(self, framed: FramedSet, _checked=False):
        if not _checked:
            raise ValueError("use canonicalize() to build canonical representatives")
        self.framed = framed

    @property
    def n(self):
        return self.framed.n

    @property
    def k(self):
        return self.framed.k

    @property
    def dim(self):
        """Cycle dimension k - n."""
        return self.framed.k - self.framed.n

    def is_zero(self) -> bool:
        return not self.framed.cells

    def cells(self):
        return self.framed.cells

    def __repr__(self):
        return f"EtvRep(n={self.n}, k={self.k}, cells={len(self.framed.cells)})"


def _framed(p) -> FramedSet:
    return p.framed if isinstance(p, EtvRep) else p


def _facets(poly: HPoly, known: dict):
    """`facets_with_normals` of a canonical cell, built once per cell key of
    `known`, a dict that lives for one call of `canonicalize` (validation
    included) or of `boundary`."""
    out = known.get(poly.key)
    if out is None:
        out = known[poly.key] = poly.facets_with_normals()
    return out


def _facet_owners(cells, known: dict):
    """Facet key -> indices of the cells that have that facet: the one
    neighbour index of `canonicalize` and `irreducible_components`."""
    owners: dict = {}
    for i, c in enumerate(cells):
        for facet, _ in _facets(c.poly, known):
            owners.setdefault(facet.key, []).append(i)
    return owners


def _joined(count, links):
    """The classes of range(count) when the indices of each link are joined,
    each sorted, in the order of their first index (union-find)."""
    parent = list(range(count))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for first, *rest in links:
        for j in rest:
            parent[find(j)] = find(first)
    classes: dict = {}
    for i in range(count):
        classes.setdefault(find(i), []).append(i)
    return list(classes.values())


def _region_union(polys, known: dict):
    """The union of a region as one canonical cell, or None: tests (a) to (c)
    of the lemma of `canonicalize`, one LP per boundary row and cell that
    lacks it and at most one for an interior point."""
    owners: dict = {}
    for p in polys:
        for f, row in _facets(p, known):
            owners.setdefault(f.key, []).append(row)
    if any(len(own) > 2 or own[1] != (tuple(-x for x in own[0][0]), -own[0][1])
           for own in owners.values() if len(own) > 1):
        return None
    rows = sorted({own[0] for own in owners.values() if len(own) == 1})
    for p in polys:
        for coeffs, rhs in rows:
            if (coeffs, rhs) not in p.ineq:
                res = p.maximize(coeffs)
                if res.status != OPTIMAL or res.value > rhs:
                    return None
    inside = polys[0].relint_point()
    if any(p.contains_point(inside) for p in polys[1:]):
        return None
    return _built_canonical(polys[0].ambient, polys[0].eq, rows)


def canonicalize(x, validate=True) -> EtvRep:
    """Drop zero frames and make each region whose union is convex one cell.
    The frames of repeated cells are already summed by `FramedSet`.

    A region is a class of support cells joined across free walls: facets
    that exactly two cells own, with equal `eq` and equal frames (a wall
    with a third owner would lie inside the merged cell).  A region merges
    whole or not at all, when its union is convex and face-to-face with
    every cell outside it.  Regions are taken in the order of their first
    cell.  After a merge the cells outside the region and the merged cell
    are summed again as a `FramedSet`, and the scan restarts in its key
    order, since face-to-face verdicts can change.  So a merged cell is
    summed into a cell outside it with the same key, and dropped with that
    cell when the sum is zero; such a twin exists only when the input
    overlaps, and a face-to-face complex never does.

    Lemma: let R be canonical k-cells with one `eq`; a facet of a cell of R
    is a boundary facet when no other cell of R has it.  U = |R| is convex,
    and no two cells overlap, if (a) every other facet has exactly two
    owners in R, on opposite sides (negated rows), (b) every cell satisfies
    every boundary row, and (c) an interior point of one cell lies in no
    other; the boundary rows, deduplicated and sorted, are then the
    canonical form of U.  If: U lies in the envelope E of the boundary rows
    by (b), and boundary facets lie on its boundary.  Across any other facet
    its two owners swap by (a), so the number of cells that hold a point is
    constant off a null set of the connected relint(E), 1 by (c): U = E.  In a
    face-to-face complex (a) to (c) hold when U is convex: a facet of one
    hull has at most two owners, cells meet in common faces, and a boundary
    facet lies in the relative boundary of U, so its hyperplane supports U.
    Canonical: each kept hyperplane carries a facet of E of dimension k - 1,
    coplanar boundary facets have equal rows after the reduction modulo the
    one rref hull, and E is k-dimensional in the hull, so the merged cell
    is built canonical, with no `canonical()` call.

    An `EtvRep` is returned unchanged: it comes from `canonicalize`,
    `zero_etv`, `scale` or `translate` (which keep a merged complex merged)
    or `irreducible_components` (components as built), so it is merged.
    """
    if isinstance(x, EtvRep):
        return x
    known: dict = {}  # cell key -> its facets, across validation and the restarts
    if validate:
        _check_cycle(x, known)
    cells = x.support_cells()
    while True:
        walls = (own for own in _facet_owners(cells, known).values() if len(own) == 2
                 and cells[own[0]].poly.eq == cells[own[1]].poly.eq
                 and cells[own[0]].frame == cells[own[1]].frame)
        for region in _joined(len(cells), walls):
            if len(region) < 2:
                continue
            merged = _region_union([cells[i].poly for i in region], known)
            rest = [c for i, c in enumerate(cells) if i not in region]
            if merged is not None and all(face_to_face(merged, o.poly) for o in rest):
                merged_cell = FramedCell(merged, cells[region[0]].frame)
                cells = FramedSet(x.n, x.k, rest + [merged_cell]).support_cells()
                break
        else:
            return EtvRep(FramedSet(x.n, x.k, cells), _checked=True)


def zero_etv(n: int, k: int) -> EtvRep:
    return EtvRep(FramedSet(n, k, []), _checked=True)


# ---------------------------------------------------------------------------
# group structure

def _refined_sum(n: int, k: int, xs, ys=()) -> FramedSet:
    """The frames of (cell, frame) pairs xs and ys summed on the pieces of
    the common refinement of their cells, each piece framed by the cell it
    was cut from.  Pieces of one hull are cells of one hyperplane
    arrangement, so they are equal or meet in lower dimension, and the sum
    is zero exactly when the pairs form the zero cycle."""
    xs, ys = list(xs), list(ys)
    px, py, _ = common_refinement(PolyhedralSet(k, 2 * n, [c for c, _ in xs]),
                                  PolyhedralSet(k, 2 * n, [c for c, _ in ys]))
    return FramedSet(n, k, (FramedCell(piece, frame) for parts, pairs in ((px, xs), (py, ys))
                            for i, (_, frame) in enumerate(pairs) for piece in parts[i]))


def equivalent(p, q) -> bool:
    """Same cycle class: the refined sum of p and -q has no support.  Cycles
    of different dimensions are equivalent when both sum to zero."""
    x = _framed(p)
    y = _framed(q)
    if x.n != y.n:
        raise ValueError("ambient mismatch")
    xs = x.support_cells()
    ys = [(c.poly, -c.frame) for c in y.support_cells()]
    if x.k == y.k:
        return not _refined_sum(x.n, x.k, xs, ys).support_cells()
    return not (_refined_sum(x.n, x.k, xs).support_cells()
                or _refined_sum(y.n, y.k, ys).support_cells())


def add(p, q) -> EtvRep:
    """Sum of cycles: the canonical form of their refined sum."""
    x = _framed(p)
    y = _framed(q)
    if x.n != y.n:
        raise ValueError("ambient mismatch")
    if not x.support_cells():
        return canonicalize(q, validate=False)
    if not y.support_cells():
        return canonicalize(p, validate=False)
    if x.k != y.k:
        raise ValueError("dimension mismatch in sum")
    return canonicalize(_refined_sum(x.n, x.k, x.support_cells(), y.support_cells()),
                        validate=False)


def scale(t, p) -> EtvRep:
    x = _framed(p)
    if isinstance(t, CRat):
        if t.im != 0:
            raise ValueError("cycles scale by real factors only")
        t = t.re
    t = Fraction(t)
    if t == 0:
        return zero_etv(x.n, x.k)
    if isinstance(p, EtvRep):
        return EtvRep(x.scaled(t), _checked=True)
    return canonicalize(x.scaled(t), validate=False)


def negate(p) -> EtvRep:
    return scale(Fraction(-1), p)


def translate(p, vec) -> EtvRep:
    x = _framed(p)
    if isinstance(p, EtvRep):
        return EtvRep(x.translated(vec), _checked=True)
    return canonicalize(x.translated(vec), validate=False)


def split_positive(p) -> tuple[EtvRep, EtvRep]:
    """P = P+ - P- with both parts positive.

    P- is a sum of single-celled full-plane cycles over the affine hulls of
    the cells of P, with minimal integer multiples of the unit positive
    frame making every cell of P + P- nonnegative.
    """
    x = _framed(p)
    hull_needs: dict = {}  # hull key -> (hull, least weight on it)
    for c in x.support_cells():
        hull = c.poly.affine_hull()
        w = cell_weight(c.frame, c.poly.tangent_basis)
        hull_needs[hull.key] = (hull, min(hull_needs.get(hull.key, (hull, _ZERO))[1], w))
    plane_cells = []
    for hull, wmin in hull_needs.values():
        if wmin >= 0:
            continue
        c_int = -(-(-wmin).numerator // (-wmin).denominator)  # ceil(-wmin)
        gen = unit_positive_frame(hull.tangent_basis, x.n)
        plane_cells.append(FramedCell(hull, gen.scale(Fraction(c_int))))
    if not plane_cells:
        return (canonicalize(p, validate=False), zero_etv(x.n, x.k))
    pminus = canonicalize(FramedSet(x.n, x.k, plane_cells), validate=False)
    pplus = add(p, pminus)
    return (pplus, pminus)


def irreducible_components(p) -> list[EtvRep]:
    """Classes of the support cells joined across every shared facet, in the
    order of their first cell.  In a complex two cells meet in dimension
    k - 1 exactly when they share a facet; cells that meet along part of a
    facet only, as quadrants of two shifted quadrant fans do, are not."""
    x = _framed(p)
    cells = x.support_cells()
    return [EtvRep(FramedSet(x.n, x.k, [cells[i] for i in comp]), _checked=True)
            for comp in _joined(len(cells), _facet_owners(cells, {}).values())]


# ---------------------------------------------------------------------------
# currents

class TestForm(NamedTuple):
    """Real form with polynomial coefficients over a bounded box window."""
    degree: int
    terms: tuple            # ((index tuple, Poly), ...)
    window: tuple           # ((lo, hi), ...) per ambient coordinate

    __test__ = False        # keep pytest collection away

    def nvars(self):
        return len(self.window)


def constant_test_form(window, degree=0, indices=(), value=Fraction(1)) -> TestForm:
    nv = len(window)
    if degree == 0:
        return TestForm(0, (((), Poly.const(nv, value)),), tuple(window))
    return TestForm(degree, ((tuple(indices), Poly.const(nv, value)),), tuple(window))


def exterior_derivative(tf: TestForm) -> TestForm:
    nv = tf.nvars()
    acc: dict = {}
    for key, poly in tf.terms:
        for v in range(nv):
            d = poly.derivative(v)
            if d.is_zero():
                continue
            merged, sign = _merge_keys((v,), tuple(key))
            if merged is None:
                continue
            cur = acc.get(merged)
            addition = d if sign > 0 else -d
            acc[merged] = addition if cur is None else cur + addition
    terms = tuple((k, p) for k, p in sorted(acc.items()) if not p.is_zero())
    return TestForm(tf.degree + 1, terms, tf.window)


def window_poly(ambient: int, window) -> HPoly:
    ineq = []
    for i, (lo, hi) in enumerate(window):
        for one, rhs in ((_ONE, hi), (-_ONE, -lo)):
            ineq.append((tuple(one if j == i else _ZERO for j in range(ambient)), rhs))
    return HPoly(ambient, (), ineq).canonical()


def evaluate_current(p, tf: TestForm) -> Fraction:
    """Exact integral sum over cells of (restricted frame) wedge (test form)."""
    x = _framed(p)
    if len(tf.window) != x.ambient:
        raise ValueError(f"test form window has {len(tf.window)} intervals, "
                         f"the cycle {x.ambient} real coordinates")
    deg_frame = 2 * x.n - x.k
    if deg_frame + tf.degree != x.k:
        raise ValueError("test form degree does not complement the frame degree")
    box = window_poly(x.ambient, tf.window)
    total = _ZERO
    for c in x.support_cells():
        region = c.poly.intersect(box).canonical()
        if region.is_empty() or region.dim < x.k:
            continue
        for simplex in triangulate(region.vertices()):
            v0 = simplex[0]
            edges = [tuple(a - b for a, b in zip(v, v0)) for v in simplex[1:]]
            sign = basis_change_sign(edges, list(c.poly.tangent_basis))
            integrand = Poly.const(x.k, 0)
            for s_tup in combinations(range(x.k), deg_frame):
                t_tup = tuple(i for i in range(x.k) if i not in s_tup)
                fval = evaluate_cform(c.frame, [edges[i] for i in s_tup])
                if fval.im != 0:
                    raise ValueError("frame restriction not real on a cell")
                if fval.re == 0:
                    continue
                shuffle = _merge_keys(s_tup, t_tup)[1]
                phi_poly = Poly.const(x.k, 0)
                for key, coeff in tf.terms:
                    if len(key) != tf.degree:
                        raise ValueError("malformed test form term")
                    minor = [[edges[i][j] for j in key] for i in t_tup]
                    dval = det(minor) if key else _ONE
                    if dval == 0:
                        continue
                    phi_poly = phi_poly + coeff.subs_affine(v0, edges) * dval
                integrand = integrand + phi_poly * (fval.re * shuffle)
            val = integrand.integral_over_standard_simplex()
            total += sign * val
    return total
