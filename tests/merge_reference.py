"""Reference merging and components, pair by pair.

These are the constructions that `etv.framed.canonicalize` and
`etv.framed.irreducible_components` replaced by one facet-owner index and
one union-find; the tests compare the two:

- `canonicalize` merges the first pair that `mergeable` accepts and scans
  all pairs again, until no pair merges;
- `irreducible_components` joins two cells when their intersection, put in
  canonical form by an LP pass, has dimension k - 1.
"""

from itertools import combinations

from etv.framed import EtvRep, FramedCell, FramedSet, _framed, is_etp
from etv.lp import OPTIMAL
from etv.polyhedra import HPoly, face_to_face


def mergeable(a: FramedCell, b: FramedCell, others, ambient):
    """The merged cell of a and b, or None: equal frames and hulls, a wall
    (a row of a negated among b's rows), every other row of each cell holding
    on the other (one LP per row), and the merged cell face-to-face with the
    others."""
    if a.frame != b.frame or a.poly.eq != b.poly.eq:
        return None
    negated = {(tuple(-x for x in r), -c): (r, c) for r, c in b.poly.ineq}
    wall = next((row for row in a.poly.ineq if row in negated), None)
    if wall is None:
        return None
    walls = {wall, negated[wall]}
    for rows, other in ((a.poly.ineq, b.poly), (b.poly.ineq, a.poly)):
        for coeffs, rhs in rows:
            if (coeffs, rhs) not in walls:
                res = other.maximize(coeffs)
                if res.status != OPTIMAL or res.value > rhs:
                    return None
    kept = set(a.poly.ineq + b.poly.ineq) - walls
    merged = HPoly(ambient, a.poly.eq, tuple(sorted(kept)), _canonical=True)
    merged._empty = False
    if not all(face_to_face(merged, o.poly) for o in others):
        return None
    return merged


def canonicalize(x, validate=True) -> EtvRep:
    if isinstance(x, EtvRep):
        return x
    if validate and not is_etp(x).ok:
        raise ValueError("not a valid cycle")
    sums: dict = {}  # cell key -> (cell, summed frame)
    for c in x.cells:
        cur = sums.get(c.poly.key)
        sums[c.poly.key] = (c.poly, c.frame) if cur is None else (cur[0], cur[1] + c.frame)
    cells = [FramedCell(poly, frame) for poly, frame in sums.values() if not frame.is_zero()]
    while True:
        for i, j in combinations(range(len(cells)), 2):
            rest = [c for t, c in enumerate(cells) if t not in (i, j)]
            merged = mergeable(cells[i], cells[j], rest, x.ambient)
            if merged is not None:
                cells = rest + [FramedCell(merged, cells[i].frame)]
                break
        else:
            return EtvRep(FramedSet(x.n, x.k, cells), _checked=True)


def irreducible_components(p) -> list:
    """Lists of the support cells of p, joined across intersections of
    dimension k - 1."""
    x = _framed(p)
    cells = x.support_cells()
    parent = list(range(len(cells)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in combinations(range(len(cells)), 2):
        inter = cells[i].poly.intersect(cells[j].poly).canonical()
        if not inter.is_empty() and inter.dim == x.k - 1:
            parent[find(i)] = find(j)
    groups: dict = {}
    for i in range(len(cells)):
        groups.setdefault(find(i), []).append(cells[i])
    return list(groups.values())
