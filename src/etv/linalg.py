"""Exact dense linear algebra over Q or Q(i).

Vectors are tuples, matrices are lists of row tuples.  Rational input
(every entry an int or a Fraction) is eliminated fraction-free: each row
is scaled to integers once, a row operation p*r_i - f*r_r stays in the
integers and the new row is divided by its content, and Fractions are
built only for the result (Bareiss 1968 for `det`).  Input with a CRat
entry takes the field-generic path (`_rref_field`, `_det_field`), whose
entries only need +, -, *, / and == 0.  Both paths pick the same pivots
and return the same values.  Small integer results are the shared
Fraction objects of `etv.scalars`.  Reduced row echelon form is the
canonical form used throughout the library for subspaces, so two equal
subspaces always produce identical bases.

`EchelonBasis` keeps a growing set of independent rows for searches that
add and remove one vector at a time: each independence test reduces the
new vector once against the kept rows instead of eliminating them again.

`_remember` is the one eviction of the library's memos (`_*_MEMO`): each
holds at most its `_*_MEMO_CAP` entries and drops the oldest first.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .scalars import _fraction


def _int_rows(rows: Sequence[Sequence]):
    """(integer rows, product of row scales), or None for a non-rational entry."""
    mat, scale = [], 1
    for row in rows:
        try:
            dens = [x.denominator for x in row]  # CRat has no denominator
        except AttributeError:
            return None
        den = lcm(*dens)
        if den == 1:
            mat.append([x.numerator for x in row])
        else:
            mat.append([x.numerator * (den // d) for x, d in zip(row, dens)])
            scale *= den
    return mat, scale


def _eliminate(mat: list[list[int]], full: bool) -> list[int]:
    """Fraction-free elimination of integer rows in place; the pivot columns.

    The pivot is the first nonzero entry of the column at or below the
    current row, as in `_rref_field`.  Each new row is a nonzero multiple of
    the field-generic one, so zero patterns and pivots agree.  `full` also
    clears the column above each pivot.
    """
    pivots = []
    nrows = len(mat)
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        for piv in range(r, nrows):
            if mat[piv][c]:
                break
        else:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        prow = mat[r]
        p = prow[c]
        for i in range(0 if full else r + 1, nrows):
            f = mat[i][c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(mat[i], prow)]
                g = gcd(*row)
                mat[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref(rows: Sequence[Sequence]) -> tuple[list[tuple], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    ints = _int_rows(rows)
    if ints is None:
        return _rref_field(rows)
    mat = ints[0]
    pivots = _eliminate(mat, True)
    return [tuple(_fraction(x, row[c]) for x in row)
            for row, c in zip(mat, pivots)], pivots


def _rref_field(rows: Sequence[Sequence]) -> tuple[list[tuple], list[int]]:
    """`rref` by field operations on the entries (the path for Q(i))."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c]
        if isinstance(inv, int):  # int / int would be a float
            inv = Fraction(inv)
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(rows: Sequence[Sequence]) -> int:
    ints = _int_rows(rows)
    if ints is None:
        return len(_rref_field(rows)[0])
    return len(_eliminate(ints[0], False))


class EchelonBasis:
    """Independent rows in echelon form, kept in insertion order.

    Each kept row has entry one at its pivot column, zeros before it and
    zeros at the pivots of the rows added before it.  Reducing a vector by
    the rows in insertion order therefore clears every pivot in one pass,
    one row operation per kept row.  Entries need only +, -, *, / and a
    truth value (nonzero), so the same code runs over Q and Q(i).  The
    rows given to the constructor are added in order; dependent ones are
    skipped.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Sequence[Sequence] = ()):
        self._rows: list[tuple[int, tuple]] = []  # (pivot column, row)
        for v in rows:
            self.add(v)

    def __len__(self) -> int:
        return len(self._rows)

    def _reduce(self, v: Sequence) -> Sequence:
        for p, row in self._rows:
            f = v[p]
            if f:
                v = [x - f * y if y else x for x, y in zip(v, row)]
        return v

    def add(self, v: Sequence) -> bool:
        """Keep v if it is independent of the kept rows; True when kept."""
        r = self._reduce(v)
        for p, x in enumerate(r):
            if x:
                inv = 1 / (Fraction(x) if isinstance(x, int) else x)
                self._rows.append((p, tuple(y * inv if y else y for y in r)))
                return True
        return False

    def pop(self) -> None:
        """Drop the row added last."""
        self._rows.pop()

    def contains(self, v: Sequence) -> bool:
        """v lies in the span of the kept rows."""
        return not any(self._reduce(v))


def kernel_basis(rows: Sequence[Sequence], ncols: int, one=Fraction(1)) -> list[tuple]:
    """Canonical (rref) basis of {x : rows @ x = 0} in an ncols-dim space."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    zero = one - one
    for fcol in free:
        vec = [zero] * ncols
        vec[fcol] = one
        for rrow, pcol in zip(red, pivots):
            vec[pcol] = -rrow[fcol]
        basis.append(tuple(vec))
    return rref(basis)[0] if basis else []


def solve(rows: Sequence[Sequence], rhs: Sequence):
    """One solution of rows @ x = rhs, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if not rows:
        return None if any(v != 0 for v in rhs) else ()
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    zero = rhs[0] - rhs[0] if rhs else Fraction(0)
    for row in red:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    sol = [zero] * ncols
    for row, p in zip(red, pivots):
        if p == ncols:
            return None
        sol[p] = row[-1]
    return tuple(sol)


def det(rows: Sequence[Sequence]):
    """Determinant; Bareiss elimination with exact division on rational input."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return Fraction(1)
    ints = _int_rows(rows)
    if ints is None:
        return _det_field(rows)
    mat, scale = ints
    sign, prev = 1, 1
    for c in range(n):
        for piv in range(c, n):
            if mat[piv][c]:
                break
        else:
            return _fraction(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            sign = -sign
        prow = mat[c]
        p = prow[c]
        for i in range(c + 1, n):
            f = mat[i][c]
            mat[i] = [(p * x - f * y) // prev for x, y in zip(mat[i], prow)]
        prev = p
    return _fraction(sign * prev, scale)


def _det_field(rows: Sequence[Sequence]):
    """`det` by fraction-friendly Gaussian elimination (the path for Q(i))."""
    n = len(rows)
    mat = [list(r) for r in rows]
    result = None
    sign_flips = 0
    for c in range(n):
        piv = None
        for i in range(c, n):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            return mat[0][0] - mat[0][0]
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            sign_flips += 1
        pv = mat[c][c]
        if isinstance(pv, int):  # int / int would be a float
            pv = Fraction(pv)
        result = pv if result is None else result * pv
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] / pv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    if sign_flips % 2:
        result = -result
    return result


def det_at(rows: Sequence[Sequence], cols: Sequence[int]):
    """Determinant of the rows restricted to the given columns."""
    return det([[r[j] for j in cols] for r in rows])


def basis_change_sign(frm: Sequence[Sequence], to: Sequence[Sequence]) -> int:
    """Sign of det of the change of basis between two bases of one space.

    +1 if `frm` and `to` define the same orientation, -1 otherwise.
    Entries must be rational (orientations live in real spaces).  A vector
    of span(to) has its entries at the pivot columns of rref(to) as
    coordinates in that rref basis, so the change of basis has the sign of
    the product of the two determinants at those columns.
    """
    if len(frm) != len(to):
        raise ValueError("bases of different sizes")
    if not frm:
        return 1
    pivots = rref(to)[1]
    if rank(list(to) + list(frm)) != len(pivots):
        raise ValueError("vectors do not span the same space")
    d = det_at(frm, pivots) * det_at(to, pivots) if len(pivots) == len(to) else 0
    if d == 0:
        raise ValueError("degenerate change of basis")
    return 1 if d > 0 else -1


def intersect_rowspaces(a: Sequence[Sequence], b: Sequence[Sequence], ncols: int,
                        one=Fraction(1)) -> list[tuple]:
    """Canonical basis of rowspace(a) & rowspace(b)."""
    if not a or not b:
        return []
    # x in both spans: x = ca @ a = cb @ b; solve for stacked coefficients.
    na, nb = len(a), len(b)
    rows = []
    for col in range(ncols):
        rows.append(tuple([a[i][col] for i in range(na)] +
                          [-b[j][col] for j in range(nb)]))
    ker = kernel_basis(rows, na + nb, one)
    vecs = []
    for coeff in ker:
        vec = [one - one] * ncols
        for i in range(na):
            if coeff[i] != 0:
                vec = [v + coeff[i] * x for v, x in zip(vec, a[i])]
        vecs.append(tuple(vec))
    return rref(vecs)[0]


def scale_primitive(vec: Sequence[Fraction], lead_positive: bool = True) -> tuple:
    """Scale a rational vector to coprime integers, leading entry positive.

    The entries are Fractions; integers in [-16, 16] are shared objects.
    """
    den = lcm(*[x.denominator for x in vec])
    ints = [x.numerator * (den // x.denominator) for x in vec]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    if lead_positive:
        for v in ints:
            if v != 0:
                if v < 0:
                    ints = [-w for w in ints]
                break
    return tuple(_fraction(v) for v in ints)


def _real_ambient(bodies) -> int:
    """n, for n bodies of points of R^n: the shape check of the mixed
    volume functions of `etv.monge` and `etv.degeneracy`."""
    n = len(bodies[0][0])
    if len(bodies) != n:
        raise ValueError(f"need exactly {n} bodies")
    if any(len(p) != n for b in bodies for p in b):
        raise ValueError(f"bodies must be point lists in R^{n}")
    return n


def _remember(memo: dict, cap: int, key, value):
    """Put a value into a memo that holds at most `cap` entries, dropping
    its oldest entry when full, and return the value: the one eviction of
    every `_*_MEMO` of the library, so that none outgrows its cap."""
    if len(memo) >= cap:
        del memo[next(iter(memo))]
    memo[key] = value
    return value
