"""Small dense exact-rational linear programming (two-phase simplex).

Variables are free; internally x = u - v with u, v >= 0 plus slacks.
Bland's rule guarantees termination.  Problem sizes in this library are
tiny (tens of rows), so a plain Fraction tableau is fast enough.
"""

from __future__ import annotations

from fractions import Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LPResult:
    __slots__ = ("status", "value", "x")

    def __init__(self, status, value=None, x=None):
        self.status = status
        self.value = value
        self.x = x

    def __repr__(self):
        return f"LPResult({self.status}, {self.value})"


def _pivot(tab, basis, row, col):
    pr = tab[row]
    inv = pr[col]
    if inv != 1:
        tab[row] = pr = [x / inv for x in pr]
    for i, r in enumerate(tab):
        if i != row:
            f = r[col]
            if f != 0:
                tab[i] = [a - f * b for a, b in zip(r, pr)]
    basis[row] = col


def _simplex(tab, basis, ncols):
    """Minimize the objective in the last tableau row; Bland's rule."""
    m = len(tab) - 1
    while True:
        obj = tab[m]
        col = -1
        for j in range(ncols):
            if obj[j] < 0:
                col = j
                break
        if col < 0:
            return OPTIMAL
        row = -1
        best = None
        for i in range(m):
            a = tab[i][col]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    best = ratio
                    row = i
        if row < 0:
            return UNBOUNDED
        _pivot(tab, basis, row, col)


def solve_lp(objective, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
             maximize=False) -> LPResult:
    """Optimize objective . x over {a_ub x <= b_ub, a_eq x = b_eq}, x free."""
    a_ub = a_ub or []
    b_ub = b_ub or []
    a_eq = a_eq or []
    b_eq = b_eq or []
    nfree = len(objective)
    nslack = len(a_ub)
    nstruct = 2 * nfree + nslack
    rows = []
    rhs = []
    for a, b in zip(a_ub, b_ub):
        rows.append(list(a))
        rhs.append(b)
    for a, b in zip(a_eq, b_eq):
        rows.append(list(a))
        rhs.append(b)
    m = len(rows)
    cost = [(-c if maximize else c) for c in objective]

    # build [u | v | slack | artificial | rhs] rows with rhs >= 0
    tab = []
    for i in range(m):
        r = rows[i]
        flip = rhs[i] < 0
        row = []
        for c in r:
            row.append(-c if flip else c)
        row.extend([-x for x in row[:nfree]])
        slack = [_ZERO] * nslack
        if i < nslack:
            slack[i] = -_ONE if flip else _ONE
        row.extend(slack)
        art = [_ZERO] * m
        art[i] = _ONE
        row.extend(art)
        row.append(-rhs[i] if flip else rhs[i])
        tab.append(row)

    total = nstruct + m
    basis = [nstruct + i for i in range(m)]

    # phase 1: minimize sum of artificials
    phase1 = [_ZERO] * (total + 1)
    for j in range(nstruct + m + 1):
        s = _ZERO
        for i in range(m):
            s += tab[i][j]
        phase1[j] = -s
    for i in range(m):
        phase1[nstruct + i] = _ZERO
    tab.append(phase1)
    _simplex(tab, basis, total)
    if tab[m][-1] != 0:
        return LPResult(INFEASIBLE)
    tab.pop()

    # drive remaining artificials out of the basis
    for i in range(m):
        if basis[i] >= nstruct:
            piv = -1
            for j in range(nstruct):
                if tab[i][j] != 0:
                    piv = j
                    break
            if piv >= 0:
                _pivot(tab, basis, i, piv)
    live = [i for i in range(m) if basis[i] < nstruct or tab[i][-1] == 0]
    tab = [tab[i] for i in live]
    basis = [basis[i] for i in live]
    m = len(tab)

    # phase 2
    obj = [_ZERO] * (total + 1)
    for j in range(nfree):
        obj[j] = cost[j]
        obj[nfree + j] = -cost[j]
    tab.append(obj)
    for i in range(m):
        c = tab[m][basis[i]]
        if c != 0:
            tab[m] = [a - c * b for a, b in zip(tab[m], tab[i])]
    status = _simplex(tab, basis, nstruct)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)

    x = [_ZERO] * (2 * nfree + nslack)
    for i in range(m):
        if basis[i] < len(x):
            x[basis[i]] = tab[i][-1]
    point = tuple(x[j] - x[nfree + j] for j in range(nfree))
    value = sum(c * p for c, p in zip(objective, point)) if nfree else _ZERO
    return LPResult(OPTIMAL, value, point)
