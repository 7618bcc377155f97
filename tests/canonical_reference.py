"""Reference canonical form of an H-polyhedron: one phase-1 LP for
emptiness, then one LP per inequality row for the implicit equalities,
with no known point used to skip either.

This is the front half of the canonical form that `etv.polyhedra` replaced
by shortcuts at known points (the origin, the optima of earlier scan LPs)
and, for full-dimensional input, by one max-slack LP; the tail that drops
redundant rows is the library's `_canonical_from_hull`.  The tests compare
the keys of the two.
"""

from fractions import Fraction as F

from etv.lp import OPTIMAL, solve_lp
from etv.polyhedra import HPoly, _canonical_from_hull, _prim_ineq


def _lp(objective, eqs, ineqs):
    return solve_lp(list(objective), [list(a) for a, _ in ineqs], [b for _, b in ineqs],
                    [list(a) for a, _ in eqs], [b for _, b in eqs])


def canonical_reference(ambient, eq=(), ineq=()) -> HPoly:
    """The canonical HPoly of {eq, ineq}, found by the LP of every question."""
    eqs = [(tuple(a), b) for a, b in eq]
    raw = [(tuple(a), b) for a, b in ineq]
    if _lp([F(0)] * ambient, eqs, raw).status != OPTIMAL:
        return HPoly.empty(ambient)
    ineqs = []
    for a, b in raw:
        prim = _prim_ineq(a, b)
        if prim is not None and prim not in ineqs:
            ineqs.append(prim)
    # a row is an implicit equality when its minimum over the set is its bound
    keep = []
    for a, b in ineqs:
        res = _lp(a, eqs, ineqs)
        if res.status == OPTIMAL and res.value == b:
            eqs.append((a, b))
        else:
            keep.append((a, b))
    return _canonical_from_hull(ambient, eqs, keep)
