"""Reference linearity tiling by LPs: one max-slack LP per candidate region.

This is the construction that `etv.monge.linearity_complex` replaced by the
upper faces of one lifted hull.  Every pair (i, j) of a plus and a minus
functional cuts out the region where both rule; `full_dimensional` keeps it
when one max-slack LP finds an interior point, and then builds its canonical
form from its primitive rows with one redundancy LP per row.  The tests
compare cells, keys and active functionals of the two.

`dc_weighted` is the weighted boundary as it was before it read the
tiling: the affine extension of h on each support cell from the
max-region of every functional that rules at the cell's relative interior
point, one LP per row of each region tried.
"""

from etv.exterior import ccov_form, dc_ccov, wedge
from etv.framed import FramedCell, FramedSet, _framed, boundary, canonicalize
from etv.lp import OPTIMAL
from etv.monge import AffineFunc, LinearityCell
from etv.linalg import _remember
from etv.polyhedra import (_CANONICAL_MEMO, _CANONICAL_MEMO_CAP, HPoly, _canonical_from_hull,
                           _max_slack, _primitive_rows)


def _max_region(family, i, ambient) -> HPoly:
    """Where the i-th functional of the family is a maximum."""
    ineqs = []
    fi = family[i]
    ci = fi.real_coeffs()
    for j, fj in enumerate(family):
        if j == i:
            continue
        cj = fj.real_coeffs()
        ineqs.append((tuple(a - b for a, b in zip(cj, ci)), fi.c - fj.c))
    return HPoly(ambient, (), ineqs)


def full_dimensional(ambient, ineq) -> HPoly | None:
    """The canonical form of {z : ineq} when it is full-dimensional, else None.

    One max-slack LP decides it.  A full-dimensional set has no implicit
    equality, so its canonical form is the tail `_canonical_from_hull` of
    its primitive, deduplicated rows, with no emptiness LP and no equality
    scan.  The memo of `HPoly.canonical` is read and filled under the key
    of `HPoly(ambient, (), ineq)`; a set that is not full-dimensional is
    not remembered, since its canonical form is not computed.
    """
    ineq = tuple((tuple(a), b) for a, b in ineq)
    key = (ambient, frozenset(), frozenset(ineq))
    out = _CANONICAL_MEMO.get(key)
    if out is None:
        rows = _primitive_rows(ineq)
        if rows is None:
            return None
        res = _max_slack(ambient, (), rows)
        if res.status != OPTIMAL or res.value <= 0:
            return None
        out = _canonical_from_hull(ambient, (), rows)
        _remember(_CANONICAL_MEMO, _CANONICAL_MEMO_CAP, key, out)
    return None if out._empty or out.eq else out


def linearity_complex(h) -> list:
    """Full-dimensional cells where one plus and one minus functional rule,
    the first pair (i, j) of each region kept."""
    ambient = 2 * h.n
    cells = []
    seen = set()
    for i in range(len(h.plus)):
        ri = _max_region(h.plus, i, ambient)
        for j in range(len(h.minus)):
            rj = _max_region(h.minus, j, ambient)
            region = full_dimensional(ambient, ri.ineq + rj.ineq)
            if region is None or region.key in seen:
                continue
            seen.add(region.key)
            cells.append(LinearityCell(region, h.plus[i], h.minus[j]))
    return cells


def _active_affine_on(h, cell: HPoly):
    """The affine extension of h on a cell, or None if h is not affine there."""
    p = cell.relint_point()
    best_plus = max(f.value(p) for f in h.plus)
    best_minus = max(f.value(p) for f in h.minus)
    ambient = cell.ambient
    for i, fi in enumerate(h.plus):
        if fi.value(p) != best_plus:
            continue
        ri = _max_region(h.plus, i, ambient)
        if not ri.contains_poly(cell):
            continue
        for j, fj in enumerate(h.minus):
            if fj.value(p) != best_minus:
                continue
            rj = _max_region(h.minus, j, ambient)
            if rj.contains_poly(cell):
                w = tuple(a - b for a, b in zip(fi.w, fj.w))
                return AffineFunc(w=w, c=fi.c - fj.c)
    return None


def dc_weighted(h, x):
    """The weighted boundary of `etv.monge.dc_weighted` by max-region LPs."""
    framed = _framed(x)
    cells = []
    for c in framed.support_cells():
        active = _active_affine_on(h, c.poly)
        if active is None:
            raise ValueError("function is not affine on a support cell")
        cells.append(FramedCell(c.poly, wedge(ccov_form(dc_ccov(active.w)), c.frame)))
    return canonicalize(boundary(FramedSet(framed.n, framed.k, cells)))
