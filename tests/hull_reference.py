"""Reference vertices, face lattices, triangulations and volumes: one LP
per point for the vertices, and a new chart and a new hull for every face,
with coordinates solved point by point.

These are the constructions that `etv.polyhedra` replaced by one hull per
point set, and the enumeration of vertices of an H-polyhedron by choices
of rows that `HPoly.vertices` replaced by the faces of dimension 0; the
tests compare the two.
"""

from fractions import Fraction as F
from itertools import combinations
from math import factorial

from etv.linalg import det, rank, rref, solve
from etv.lp import OPTIMAL, solve_lp
from etv.polyhedra import _hull_facets
from orientation_reference import coords_in_basis


def _diff(p, q):
    return tuple(a - b for a, b in zip(p, q))


def _lift(coords, origin, basis):
    pt = list(origin)
    for c, bvec in zip(coords, basis):
        pt = [a + c * x for a, x in zip(pt, bvec)]
    return tuple(pt)


def extreme_points(points):
    """The points, sorted and deduplicated, that are no convex combination
    of the others: one feasibility LP per point."""
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 1:
        return pts
    out = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1:]
        a_eq = [[q[j] for q in others] for j in range(len(p))] + [[F(1)] * len(others)]
        res = solve_lp([F(0)] * len(others),
                       a_ub=[[F(-1) if k == j else F(0) for k in range(len(others))]
                             for j in range(len(others))],
                       b_ub=[F(0)] * len(others), a_eq=a_eq, b_eq=list(p) + [F(1)])
        if res.status != OPTIMAL:
            out.append(p)
    return out


def cell_vertices(cell):
    """Vertices of a bounded canonical HPoly, sorted: every choice of dim
    rows in tangent coordinates that has a unique solution inside the cell."""
    d = cell.dim
    base = solve([a for a, _ in cell.eq], [b for _, b in cell.eq]) \
        if cell.eq else tuple([F(0)] * cell.ambient)
    if d == 0:
        return [tuple(base)]
    basis = cell.tangent_basis
    # constraints in t-space: a.(base + B^T t) <= b
    cons = [(tuple(sum(x * y for x, y in zip(a, bv)) for bv in basis),
             b - sum(x * y for x, y in zip(a, base))) for a, b in cell.ineq]
    verts = set()
    for idx in combinations(range(len(cons)), d):
        rows = [cons[i][0] for i in idx]
        if rank(rows) < d:
            continue
        t = solve(rows, [cons[i][1] for i in idx])
        if t is not None and all(sum(x * y for x, y in zip(row, t)) <= r
                                 for row, r in cons):
            verts.add(_lift(t, base, basis))
    return sorted(verts)


def chart(points):
    """(coordinates, origin, basis): the points in the rref basis of their
    differences, relative to the first point."""
    p0 = points[0]
    basis = rref([_diff(p, p0) for p in points[1:]])[0]
    coords = [tuple(coords_in_basis(basis, _diff(p, p0))) if basis else ()
              for p in points]
    return coords, p0, basis


def face_vertex_sets(points):
    """Point index sets of all faces of conv(points), keyed by dimension."""
    coords = chart(points)[0]
    d = len(coords[0])
    lattice = {d: {frozenset(range(len(points)))}}
    for cur in range(d, 0, -1):
        nxt = set()
        for face in lattice[cur]:
            idx = sorted(face)
            local = chart([coords[i] for i in idx])[0]
            nxt.update(frozenset(idx[i] for i in tight)
                       for _, _, tight in _hull_facets(local))
        lattice[cur - 1] = nxt
    return lattice


def triangulate_full_dim(points):
    """Simplices covering conv(points) for full-dimensional points: the
    least point joined to the facets that miss it, each facet in a chart of
    its own."""
    pts = sorted(set(tuple(p) for p in points))
    d = len(pts[0])
    if d == 0:
        return [tuple(pts)]
    if rank([_diff(p, pts[0]) for p in pts[1:]]) < d:
        return []
    apex = pts[0]
    simplices = []
    for nvec, offset, tight in _hull_facets(pts):
        if sum(x * y for x, y in zip(nvec, apex)) == offset:
            continue
        local, q0, basis = chart([pts[i] for i in sorted(tight)])
        for sub in triangulate_full_dim(local):
            simplices.append((apex,) + tuple(_lift(c, q0, basis) for c in sub))
    return simplices


def triangulate_cell(cell):
    """Simplices covering a bounded canonical HPoly, in ambient coordinates."""
    verts = cell.vertices()
    if cell.dim == 0:
        return [tuple(verts)]
    basis = cell.tangent_basis
    v0 = verts[0]
    local = [tuple(coords_in_basis(list(basis), _diff(v, v0))) for v in verts]
    return [tuple(_lift(c, v0, basis) for c in s) for s in triangulate_full_dim(local)]


def volume_of_full_dim(points):
    """Volume of conv(points) in their own space; 0 when they are flat."""
    d = len(points[0])
    total = sum((abs(det([_diff(p, s[0]) for p in s[1:]]))
                 for s in triangulate_full_dim(points)), F(0))
    return F(1) if d == 0 else total / factorial(d)


def volume_multivector(face, basis):
    """Basis-chart volume of the face, coordinates solved in `basis`, times
    the basis blade."""
    from etv.exterior import Alt, wedge_all
    if not basis:
        return Alt.scalar(F(1))
    v0 = face.vertices[0]
    coords = []
    for v in face.vertices:
        c = coords_in_basis(list(basis), _diff(v, v0))
        if c is None:
            raise ValueError("orientation token does not span the face")
        coords.append(tuple(c))
    blade = wedge_all([Alt(1, {(i,): x for i, x in enumerate(b) if x != 0})
                       for b in basis])
    return blade.scale(volume_of_full_dim(coords))
