"""Transversal and stable intersections, products, and recession fans.

The stable intersection of positive cycles follows the fan displacement
rule (Fulton-Sturmfels 1997; Jensen-Yu 2016): localized at a candidate
cell, the fans K and L are cones, and for any shift v with K and L + v
transversal the frames of all top cells of K meet (L + v) sum to the
stable multiplicity, whichever such v is taken.  The candidate is stable
exactly when that sum is nonzero.  Shifts are taken on the moment curve
(t, t^2, ..., t^{2n}): a touching face pair that is not transversal only
blocks shifts in a proper affine subspace, which the curve meets in at
most 2n points, so all but finitely many t are certified transversal.

Transversality itself is one rank test per minimal face of each touching
pair of cells, found by one linear solve when the pair meets in a
translated cone: the smallest faces of the two cells at that minimal face
decide it for every pair of faces that meet (see `transversal`).  The test
intersects every pair of cells, and `stable_intersection` and
`stable_support` frame the intersections it leaves instead of intersecting
the pairs again.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exterior import (Alt, complex_split, density_sign, quotient_density, restrict,
                       wedge)
from .framed import (EtvRep, FramedCell, FramedSet, _framed, _refined_sum, add,
                     canonicalize, cell_sign, is_positive, negate, split_positive,
                     zero_etv)
from .linalg import intersect_rowspaces, rank, solve
from .polyhedra import HPoly

_ZERO = Fraction(0)
_SHIFT_BUDGET = 40  # moment-curve points tried by default


# ---------------------------------------------------------------------------
# transversality

def transversal(x, y) -> bool:
    """Every pair of touching faces has tangent spaces summing to R^{2n}.

    Decided by one rank test per minimal face H0 of each a & b, for support
    cells a of x and b of y.  H0 is an affine subspace in a, on which each
    row of a is bounded and so constant: a row tight at one point p of H0
    is tight on all of H0.  So the smallest face F_a(H0) of a containing H0
    is F_a(p), cut out of a by the rows tight at p, and p lies in its
    relative interior, so its tangent space is the kernel of those rows and
    of the equalities of a.  T F_a(H0) + T F_b(H0) is R^{2n} exactly when
    the row spaces of the two systems meet only in 0.  This decides
    transversality:

    - if faces F of a and G of b meet at a point q, then q lies in the
      relative interior of a face H of a & b, and H contains a minimal face
      H0; so F contains F_a(q) = F_a(H), which contains F_a(H0), and
      likewise for G, so T F + T G contains T F_a(H0) + T F_b(H0);
    - conversely F_a(H0) and F_b(H0) are faces that touch, at H0.

    When one point makes every row of a & b tight, as for fans and their
    translates, a & b is a translated cone whose one minimal face is the
    apex, so the pair costs one linear solve and one rank test; only other
    pairs walk `HPoly.faces` down to the lineality dimension.
    """
    return _transversal_meets(_framed(x), _framed(y)) is not None


def _meets(xf: FramedSet, yf: FramedSet):
    """(a, b, a & b in canonical form) for each support cell a of xf and b of yf."""
    for a in xf.support_cells():
        for b in yf.support_cells():
            yield a, b, a.poly.intersect(b.poly).canonical()


def _transversal_meets(xf: FramedSet, yf: FramedSet):
    """The `_meets` of xf and yf when they are transversal, else None: the
    test of `transversal`, which stops at the first pair that fails."""
    meets = []
    for a, b, inter in _meets(xf, yf):
        for p in _minimal_face_points(inter):
            rows_a = [r for r, _ in a.poly.eq + a.poly.tight_at(p)]
            rows_b = [r for r, _ in b.poly.eq + b.poly.tight_at(p)]
            if rank(rows_a) + rank(rows_b) != rank(rows_a + rows_b):
                return None
        meets.append((a, b, inter))
    return meets


def _minimal_face_points(inter: HPoly):
    """A point of each minimal face of a canonical polyhedron, none when it
    is empty.

    When one point makes every row tight, the polyhedron is that point plus
    a cone, whose one minimal face is the apex, so one linear solve gives
    it; otherwise the faces of the lineality dimension are walked."""
    if inter.is_empty():
        return []
    rows = inter.eq + inter.ineq
    apex = solve([r for r, _ in rows], [b for _, b in rows]) if rows \
        else (_ZERO,) * inter.ambient
    if apex is not None:
        return [apex]
    lineality = inter.ambient - rank([r for r, _ in rows])
    return [h0.relint_point() for h0 in inter.faces(lineality)]


# ---------------------------------------------------------------------------
# transversal intersection

def _wedge_frame(frame_a: Alt, frame_b: Alt, target: int, cell: HPoly) -> Alt:
    """Frame of an intersection cell: the wedge, signed so that its quotient
    sign is `target`, the product of the signs of the two parent cells."""
    raw = wedge(frame_a, frame_b)
    tangent = cell.tangent_basis
    split = complex_split(tangent)
    if split.degenerate:
        restricted, _ = restrict(raw, list(tangent))
        if not restricted.is_zero():
            raise ValueError("nonzero frame restriction on a degenerate cell")
        return Alt(raw.degree)
    sign = density_sign(quotient_density(raw, split))
    if sign == 0:
        return Alt(raw.degree)
    return raw if sign == target else -raw


def transversal_intersection(x, y) -> FramedSet:
    """Pairwise cell intersections framed by signed wedges."""
    xf = _framed(x)
    yf = _framed(y)
    return _framed_meets(xf, yf, _meets(xf, yf))


def _framed_meets(xf: FramedSet, yf: FramedSet, meets) -> FramedSet:
    """`transversal_intersection` of xf and yf from their `_meets`, which are
    taken only after the dimension check."""
    n = xf.n
    k_out = xf.k + yf.k - 2 * n
    if k_out < n:
        raise ValueError("dimension of the intersection falls below n")
    sign = {id(c): cell_sign(c.frame, c.poly.tangent_basis)
            for c in xf.support_cells() + yf.support_cells()}
    return FramedSet(n, k_out, (
        FramedCell(inter, _wedge_frame(a.frame, b.frame, sign[id(a)] * sign[id(b)], inter))
        for a, b, inter in meets if not inter.is_empty() and inter.dim == k_out))


# ---------------------------------------------------------------------------
# generic shifts

class ShiftCertificate(NamedTuple):
    shift: tuple
    tries: int
    transversal: bool


class ShiftBudgetExhausted(RuntimeError):
    pass


def generic_shift(x, y, seed: int = 0, budget: int = _SHIFT_BUDGET) -> ShiftCertificate:
    """First certified transversal shift: zero, then moment-curve points.

    The points are (t, t^2, ..., t^{2n}) for t = seed+1, ..., seed+budget.
    """
    return _shift_search(_framed(x), _framed(y), seed, budget)[0]


def _shift_search(xf: FramedSet, yf: FramedSet, seed: int, budget: int):
    """(certificate, yf shifted by it, their `_meets`) of `generic_shift`."""
    for tries in range(budget + 1):
        t = Fraction(seed + tries) if tries else _ZERO  # try 0 is the zero shift
        z = tuple(t ** i for i in range(1, xf.ambient + 1))
        shifted = yf.translated(z) if tries else yf
        meets = _transversal_meets(xf, shifted)
        if meets is not None:
            return ShiftCertificate(z, tries, True), shifted, meets
    raise ShiftBudgetExhausted(f"no transversal shift found in {budget} candidates")


# ---------------------------------------------------------------------------
# stable intersection

class StableSupportCell(NamedTuple):
    cell: HPoly
    frame: Alt
    shift: tuple


def _localize(framed: FramedSet, p) -> FramedSet:
    cells = []
    for c in framed.support_cells():
        if c.poly.contains_point(p):
            cells.append(FramedCell(c.poly.localized_cone(p), c.frame))
    return FramedSet(framed.n, framed.k, cells)


def _min_space(fan: FramedSet):
    """Intersection of the tangent spaces of the support cells of a fan."""
    out = None
    for c in fan.support_cells():
        rows = list(c.poly.tangent_basis)
        out = rows if out is None else intersect_rowspaces(out, rows, fan.ambient)
    return out or []


def stable_support(x, y, seed: int = 0) -> list:
    """Stable cells of the expected dimension with their displacement frames."""
    xf = _framed(x)
    yf = _framed(y)
    n = xf.n
    k_out = xf.k + yf.k - 2 * n
    if k_out < 0:
        return []
    candidates: dict = {}
    for _, _, inter in _meets(xf, yf):
        for face in inter.faces(k_out):
            candidates.setdefault(face.key, face)
    out = []
    for cand in candidates.values():
        p = cand.relint_point()
        k_fan = _localize(xf, p)
        l_fan = _localize(yf, p)
        vmin = intersect_rowspaces(_min_space(k_fan), _min_space(l_fan), 2 * n)
        if len(vmin) != k_out:
            continue
        cert, shifted, meets = _shift_search(k_fan, l_fan, seed, _SHIFT_BUDGET)
        total = Alt(2 * n - k_out)
        for c in _framed_meets(k_fan, shifted, meets).cells:
            total = total + c.frame
        if not total.is_zero():
            out.append(StableSupportCell(cell=cand, frame=total, shift=cert.shift))
    out.sort(key=lambda s: repr(s.cell.key))
    return out


def stable_intersection(x, y, seed: int = 0, force_stable: bool = False) -> EtvRep:
    """Displacement-limit intersection of positive cycles."""
    p = canonicalize(x)
    q = canonicalize(y)
    n = p.n
    if p.is_zero() or q.is_zero():
        return zero_etv(n, n)
    if not (is_positive(p) and is_positive(q)):
        raise ValueError("stable intersection is defined for positive cycles")
    k_out = p.k + q.k - 2 * n
    if k_out < n:
        return zero_etv(n, n)
    meets = None if force_stable else _transversal_meets(p.framed, q.framed)
    if meets is not None:
        return canonicalize(_framed_meets(p.framed, q.framed, meets), validate=False)
    cells = [FramedCell(s.cell, s.frame) for s in stable_support(p, q, seed)]
    return canonicalize(FramedSet(n, k_out, cells), validate=False)


def product(x, y, seed: int = 0) -> EtvRep:
    """Bilinear extension of the stable intersection through positive parts."""
    p = canonicalize(x)
    q = canonicalize(y)
    n = p.n
    if p.is_zero() or q.is_zero():
        return zero_etv(n, n)
    if (p.dim + q.dim) < n:
        return zero_etv(n, n)
    p_plus, p_minus = split_positive(p)
    q_plus, q_minus = split_positive(q)
    total = zero_etv(n, p.k + q.k - 2 * n)
    for a, sa in ((p_plus, 1), (p_minus, -1)):
        if a.is_zero():
            continue
        for b, sb in ((q_plus, 1), (q_minus, -1)):
            if b.is_zero():
                continue
            term = stable_intersection(a, b, seed=seed)
            if term.is_zero():
                continue
            total = add(total, term if sa * sb > 0 else negate(term))
    return total


def product_many(factors, seed: int = 0) -> EtvRep:
    result = None
    for f in factors:
        result = f if result is None else product(result, f, seed=seed)
    if result is None:
        raise ValueError("empty product")
    return result


# ---------------------------------------------------------------------------
# Bergman (recession) fans

def bergman_fan(x) -> EtvRep:
    """Recession fan: the refined sum of the top-dimensional recession cones,
    each framed by its cell.  Pieces of those cones, cut by their own
    hyperplanes, are already equal or meet in lower dimension; the
    hyperplanes of lower-dimensional cones would only over-cut."""
    p = canonicalize(x)
    cones = [(c.poly.recession_cone(), c.frame) for c in p.framed.support_cells()]
    return canonicalize(_refined_sum(p.n, p.k, [(rc, f) for rc, f in cones if rc.dim == p.k]),
                        validate=False)
