"""Rational convex polyhedra, face structure, and polyhedral sets.

H-polyhedra are the working representation for cells: intersections,
refinements and localizations are all constraint surgery plus exact LP.
V-polytopes represent the input polytopes in the dual space, where face
enumeration and volume multivectors are needed.

Point sets get one hull each: `_hull_facets` runs once, in the chart of
`_chart`, and vertices (`VPolytope.from_points`), faces, triangulations
and volumes come from its facet incidence sets.  Every face is an
intersection of the facets containing it (Ziegler, Lectures on Polytopes,
2.3), so the facets of a face are its maximal cuts by the hull facets
(`_facet_cuts`); `_faces_below` walks the lattice down by these cuts, for
`face_vertex_sets` and the lifted hulls of `monge.linearity_complex`,
`triangulate` pulls each face from its least point over the cuts that miss
it, and `volume` sums the simplices.

Canonicalization contract: a canonical HPoly has its affine hull expressed
as an rref equality system, no implicit equalities hiding among the
inequalities, no redundant inequalities, and primitive integer constraint
vectors.  Two canonical HPolys describe the same set iff their keys match.
The canonical tangent basis is the rref basis of the direction space, so
all cells sharing an affine hull direction also share their reference
orientation, which keeps frame bookkeeping transport-free.  It is the
kernel of the coefficient rows of the hull equalities, which are
canonical, so `HPoly.tangent_basis` takes it from a memo of the last
`_TANGENT_MEMO_CAP` distinct `(ambient, rows)` keys (first in, first
out): the many fresh cells on one hull, such as the cones of one
direction space, share one kernel.

`HPoly.canonical` remembers the canonical forms of its last
`_CANONICAL_MEMO_CAP` non-canonical inputs (first in, first out), keyed by
`(ambient, frozenset(eq), frozenset(ineq))`.  The key forgets row order and
duplicate rows, which is sound because the canonical form depends on
neither: the implicit equalities found are always all of them, the rref of
the hull is unique, and once the inequalities are primitive and reduced
modulo that rref, each facet has exactly one row, so the irredundant rows
are the same whatever order they are tested in.  Callers of equal inputs
share one canonical HPoly; its lazy caches depend on its rows alone.  The
cap is small because the memo pays off on inputs that recur within a
computation; a larger one holds more memory for little further saving.

After the reduction modulo the hull every surviving inequality is nonzero
on a free coordinate of the hull, so no inequality is implied by the hull
alone and only the redundancy test against the other inequalities is run.

An LP whose answer follows from a known point of the set is skipped:
- emptiness (`HPoly.is_empty`): when every inequality has b >= 0 and every
  equality b = 0, the origin is a point of the set, so it is nonempty.
  Every dual cone and every cone of a dual fan is answered this way.
- implicit equalities (the scan of `_canonical_form`): a row that is
  strictly slack at a point of the set is not tight on all of it.  The
  known points are the origin, when it is a point of the set, and the
  optimum of every scan LP so far.  The scan LP of a row a.z <= b
  minimizes a.z under the extra bound a.z >= b - 1, so it is never
  unbounded and returns a point whenever the set reaches that bound; its
  value is b exactly when the row is an implicit equality.
Each shortcut only skips an LP whose answer it already knows, and the
canonical form is unique, so every canonical form is the one the LPs give.

Facets of a canonical cell skip the front half of the canonical form: each
row of the cell cuts out a nonempty facet whose affine hull is the cell's
hull plus that row (see `HPoly.facets_with_normals`), so the facet goes
straight to `_canonical_from_hull` and bypasses the memo.  Facets are not
cached on the cell, since cells outlive the computations that need them;
`framed.canonicalize` keeps them for one call.  `HPoly.faces` walks these
facets down to a given dimension: vertices, stable candidates and the
minimal faces behind transversality all come from that one descent.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import NamedTuple

from .linalg import _remember, det, det_at, kernel_basis, rank, rref, scale_primitive, solve
from .lp import OPTIMAL, UNBOUNDED, solve_lp

_ZERO = Fraction(0)
_ONE = Fraction(1)

_CANONICAL_MEMO_CAP = 256
_CANONICAL_MEMO: dict = {}  # input key -> canonical HPoly, oldest first
_TANGENT_MEMO_CAP = 256
_TANGENT_MEMO: dict = {}  # (ambient, hull rows) -> tangent basis, oldest first


def _prim_eq(coeffs, rhs):
    vec = scale_primitive(tuple(coeffs) + (rhs,), lead_positive=True)
    return vec[:-1], vec[-1]


def _prim_ineq(coeffs, rhs):
    # only positive scaling preserves the inequality direction
    vec = scale_primitive(tuple(coeffs) + (rhs,), lead_positive=False)
    for v in vec[:-1]:
        if v != 0:
            return vec[:-1], vec[-1]
    return None  # constant constraint, handled by caller


class EmptyPolyhedron(Exception):
    pass


class HPoly:
    """Rational H-polyhedron {z : eq. z = rhs, ineq . z <= rhs}."""

    __slots__ = ("ambient", "eq", "ineq", "_canonical", "_empty", "_tangent",
                 "_relint")

    def __init__(self, ambient: int, eq=(), ineq=(), _canonical=False):
        self.ambient = ambient
        self.eq = tuple((tuple(a), b) for a, b in eq)
        self.ineq = tuple((tuple(a), b) for a, b in ineq)
        self._canonical = _canonical
        self._empty = None
        self._tangent = None
        self._relint = None

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def empty(ambient: int) -> "HPoly":
        p = HPoly(ambient)
        p._empty = True
        p._canonical = True
        return p

    def intersect(self, other: "HPoly") -> "HPoly":
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        if self.is_empty() or other.is_empty():
            return HPoly.empty(self.ambient)
        return HPoly(self.ambient, self.eq + other.eq, self.ineq + other.ineq)

    def with_constraint(self, coeffs, rhs) -> "HPoly":
        return HPoly(self.ambient, self.eq, self.ineq + ((tuple(coeffs), rhs),))

    def translate(self, vec) -> "HPoly":
        if len(vec) != self.ambient:
            raise ValueError(f"translation by {len(vec)} coordinates in R^{self.ambient}")
        if self.is_empty():
            return self
        eq = [(a, b + sum(x * y for x, y in zip(a, vec))) for a, b in self.eq]
        ineq = [(a, b + sum(x * y for x, y in zip(a, vec))) for a, b in self.ineq]
        if self._canonical:
            # the shifted right-hand sides change the rows' primitive scaling
            eq = [_prim_eq(a, b) for a, b in eq]
            ineq = sorted(_prim_ineq(a, b) for a, b in ineq)
        out = HPoly(self.ambient, eq, ineq, _canonical=self._canonical)
        out._empty = False
        if self._tangent is not None:
            out._tangent = self._tangent
        return out

    # -- feasibility and canonical form ---------------------------------------

    def is_empty(self) -> bool:
        if self._empty is None:
            if _holds_at_origin(self.eq, self.ineq):
                self._empty = False
            else:
                self._empty = self.minimize([_ZERO] * self.ambient).status != OPTIMAL
        return self._empty

    def _optimize(self, coeffs, maximize):
        return solve_lp(list(coeffs),
                        [list(a) for a, _ in self.ineq], [b for _, b in self.ineq],
                        [list(a) for a, _ in self.eq], [b for _, b in self.eq],
                        maximize=maximize)

    def minimize(self, coeffs):
        return self._optimize(coeffs, False)

    def maximize(self, coeffs):
        return self._optimize(coeffs, True)

    def canonical(self) -> "HPoly":
        if self._canonical:
            return self
        key = (self.ambient, frozenset(self.eq), frozenset(self.ineq))
        out = _CANONICAL_MEMO.get(key)
        if out is None:
            out = _remember(_CANONICAL_MEMO, _CANONICAL_MEMO_CAP, key, self._canonical_form())
        self._empty = out._empty
        return out

    def _canonical_form(self) -> "HPoly":
        if self.is_empty():
            return HPoly.empty(self.ambient)
        ineqs = _primitive_rows(self.ineq)
        if ineqs is None:
            return HPoly.empty(self.ambient)
        eqs = list(self.eq)
        a_ub = [list(a) for a, _ in ineqs]
        b_ub = [b for _, b in ineqs]
        # points of the set: a row slack at one of them is no implicit equality
        known = [(_ZERO,) * self.ambient] if _holds_at_origin(self.eq, ineqs) else []
        keep = []
        for a, b in ineqs:
            if any(sum(x * y for x, y in zip(a, p)) < b for p in known):
                keep.append((a, b))
                continue
            # min a.z over the set cut by a.z >= b - 1: never unbounded, b
            # exactly when a.z = b holds on the whole set
            res = solve_lp(list(a), a_ub + [[-x for x in a]], b_ub + [_ONE - b],
                           [list(r) for r, _ in eqs], [c for _, c in eqs])
            if res.status == OPTIMAL and res.value == b:
                eqs.append((a, b))
            else:
                keep.append((a, b))
                if res.status == OPTIMAL:
                    known.append(res.x)
        # every implicit equality is in eqs now; `facets_with_normals` shares
        # this tail
        return _canonical_from_hull(self.ambient, eqs, keep)

    @property
    def key(self):
        if not self._canonical:
            raise ValueError("key of non-canonical polyhedron")
        return ("empty", self.ambient) if self._empty else (self.eq, self.ineq)

    # -- geometry --------------------------------------------------------------

    @property
    def tangent_basis(self):
        """Canonical (rref) basis of the direction space of the affine hull."""
        if self._tangent is None:
            if not self._canonical:
                raise ValueError("tangent basis of non-canonical polyhedron")
            rows = tuple(a for a, _ in self.eq)
            basis = _TANGENT_MEMO.get((self.ambient, rows))
            if basis is None:
                basis = _remember(_TANGENT_MEMO, _TANGENT_MEMO_CAP, (self.ambient, rows),
                                  tuple(kernel_basis(rows, self.ambient)))
            self._tangent = basis
        return self._tangent

    @property
    def dim(self) -> int:
        if self.is_empty():
            return -1
        return len(self.canonical().tangent_basis) if not self._canonical \
            else len(self.tangent_basis)

    def relint_point(self):
        if self._relint is not None:
            return self._relint
        if not self._canonical:
            raise ValueError("relative interior of non-canonical polyhedron")
        if self._empty:
            raise EmptyPolyhedron("relative interior of empty polyhedron")
        n = self.ambient
        if not self.ineq:
            pt = solve([a for a, _ in self.eq], [b for _, b in self.eq]) \
                if self.eq else tuple([_ZERO] * n)
            self._relint = tuple(pt)
            return self._relint
        res = _max_slack(n, self.eq, self.ineq)
        if res.status != OPTIMAL or res.value <= 0:
            raise EmptyPolyhedron("no strict interior point found")
        self._relint = tuple(res.x[:n])
        return self._relint

    def contains_point(self, p) -> bool:
        return (all(sum(x * y for x, y in zip(a, p)) == b for a, b in self.eq)
                and all(sum(x * y for x, y in zip(a, p)) <= b for a, b in self.ineq))

    def contains_poly(self, other: "HPoly") -> bool:
        if other.is_empty():
            return True
        if self.is_empty():
            return False
        for a, b in self.eq:
            hi = other.maximize(a)
            if hi.status != OPTIMAL or hi.value != b:
                return False
            lo = other.minimize(a)
            if lo.status != OPTIMAL or lo.value != b:
                return False
        for a, b in self.ineq:
            hi = other.maximize(a)
            if hi.status == UNBOUNDED or hi.value > b:
                return False
        return True

    def same_set(self, other: "HPoly") -> bool:
        return self.canonical().key == other.canonical().key

    def facets_with_normals(self):
        """Pairs (facet, inequality) for every proper facet of the cell.

        Every row a.z <= b of a canonical cell P of dimension d cuts out a
        facet F = P & {a.z = b}: irredundancy makes F nonempty of dimension
        d - 1 (Ziegler, Lectures on Polytopes, 2.2).  F has no implicit
        equality besides a.z = b: if another row a' were tight on all of F,
        then a' = lam * a modulo the hull of P, and lam > 0 makes the two
        rows duplicates, which canonical form excludes, lam < 0 makes a' an
        implicit equality of P, and lam = 0 makes a' zero modulo the hull.
        So the hull of F is known, and the facet is built by the tail of the
        canonical form alone: no emptiness LP, no equality scan, no memo.

        The facets are built anew on every call, with their redundancy LPs,
        and not kept on the cell: cells outlive the computations that ask
        for their facets.  A caller that asks again for one cell, such as
        `framed.canonicalize`, keeps the list itself.
        """
        if not self._canonical:
            raise ValueError("facets of non-canonical polyhedron")
        rows = self.ineq
        return [(_canonical_from_hull(self.ambient, self.eq + (row,),
                                      rows[:i] + rows[i + 1:]), row)
                for i, row in enumerate(rows)]

    def faces(self, d: int):
        """The nonempty faces of dimension d, deduplicated by key: the one face
        enumeration of an H-polyhedron.

        Walks down from the cell by `facets_with_normals`, one level per
        dimension.  Every facet of a canonical cell has dimension one less
        (see there), and every face of dimension d below the cell's is a
        facet of a face of dimension d + 1, so level d is all of them.
        """
        if not self._canonical:
            raise ValueError("faces of non-canonical polyhedron")
        if not 0 <= d <= self.dim:
            return []
        level = {self.key: self}
        for _ in range(self.dim - d):
            level = {f.key: f for cell in level.values()
                     for f, _ in cell.facets_with_normals()}
        return list(level.values())

    def tight_at(self, p):
        """The inequality rows that hold with equality at p."""
        return tuple((a, b) for a, b in self.ineq
                     if sum(x * y for x, y in zip(a, p)) == b)

    def smallest_face_at(self, p) -> "HPoly":
        """The face whose relative interior contains p."""
        if not self.contains_point(p):
            raise ValueError("point not in polyhedron")
        return HPoly(self.ambient, self.eq + self.tight_at(p), self.ineq).canonical()

    def recession_cone(self) -> "HPoly":
        eq = tuple((a, _ZERO) for a, _ in self.eq)
        ineq = tuple((a, _ZERO) for a, _ in self.ineq)
        return HPoly(self.ambient, eq, ineq).canonical()

    def localized_cone(self, p) -> "HPoly":
        """Cone of directions v with p + eps*v in the cell for small eps > 0.

        Built canonical from the canonical cell, with no LP: its equalities
        are the cell's and its inequalities the rows tight at p, all with
        right-hand side 0 and made primitive.  The rows stay in rref and
        reduced, since the coefficient rows of the hull are the cell's.  No
        row is an implicit equality, or the cell would have it too, and each
        row is a facet: the tangent cone at p of the cell's facet on it.
        """
        if not self.contains_point(p):
            raise ValueError("localization point not in cell")
        cell = self.canonical()
        return _built_canonical(self.ambient, [_prim_eq(a, _ZERO) for a, _ in cell.eq],
                                sorted(_prim_ineq(a, _ZERO) for a, _ in cell.tight_at(p)))

    def affine_hull(self) -> "HPoly":
        """The equalities of the canonical form, which are canonical alone."""
        return _built_canonical(self.ambient, self.canonical().eq, ())

    def is_bounded(self) -> bool:
        return self.recession_cone().dim == 0

    def is_cone(self) -> bool:
        zero = tuple([_ZERO] * self.ambient)
        return self.contains_point(zero) and self.recession_cone().same_set(self)

    def vertices(self):
        """Vertices of a bounded cell, sorted: its faces of dimension 0."""
        if not self._canonical:
            raise ValueError("vertices of non-canonical polyhedron")
        if self.is_empty():
            return []
        if not self.is_bounded():
            raise ValueError("vertex enumeration needs a bounded cell")
        return sorted(f.relint_point() for f in self.faces(0))

    def __repr__(self):
        if self._empty:
            return f"HPoly(empty, ambient={self.ambient})"
        return f"HPoly(eq={len(self.eq)}, ineq={len(self.ineq)}, ambient={self.ambient})"


def _holds_at_origin(eq, ineq) -> bool:
    """Whether the origin satisfies every row: then the set is nonempty."""
    return all(b == 0 for _, b in eq) and all(b >= 0 for _, b in ineq)


def _primitive_rows(ineq):
    """The inequalities made primitive and deduplicated, in first-seen order;
    constant rows 0 <= b dropped, or None when one of them is false."""
    rows = {}
    for a, b in ineq:
        prim = _prim_ineq(a, b)
        if prim is None:
            if b < 0:
                return None
        else:
            rows.setdefault(prim, None)
    return list(rows)


def _max_slack(ambient, eq, ineq):
    """The LP max t subject to a.z + t <= b for every inequality, t <= 1 and
    the equalities: t > 0 exactly when some point of the equalities' set
    satisfies every inequality strictly, and z is then such a point."""
    a_ub = [list(a) + [_ONE] for a, _ in ineq] + [[_ZERO] * ambient + [_ONE]]
    b_ub = [b for _, b in ineq] + [_ONE]
    a_eq = [list(a) + [_ZERO] for a, _ in eq]
    b_eq = [b for _, b in eq]
    return solve_lp([_ZERO] * ambient + [_ONE], a_ub, b_ub, a_eq, b_eq, maximize=True)


def _canonical_from_hull(ambient, eqs, ineqs) -> HPoly:
    """The canonical HPoly of a nonempty {eqs, ineqs} whose `eqs` already
    hold every implicit equality, so that `eqs` span its affine hull.

    Takes the rref of the hull, reduces the inequalities modulo it and drops
    the ones implied by the others, with one LP per row left after the
    reduction (none when one row is left).
    """
    if eqs:
        red, pivots = rref([tuple(a) + (b,) for a, b in eqs])
        # reduce inequalities modulo the hull so equal sets share keys
        reduced = []
        seen = set()
        for a, b in ineqs:
            v = list(a) + [b]
            for row, p in zip(red, pivots):
                f = v[p]
                if f != 0:
                    v = [x - f * y for x, y in zip(v, row)]
            prim = _prim_ineq(v[:-1], v[-1])
            # a row that is zero modulo the hull reads 0 <= b, true on a nonempty set
            if prim is not None and prim not in seen:
                seen.add(prim)
                reduced.append(prim)
        ineqs = reduced
        eqs = [_prim_eq(row[:-1], row[-1]) for row in red]

    # drop inequalities implied by the others
    eqs = tuple(eqs)
    irredundant = list(ineqs)
    i = 0
    # a lone row is nonzero modulo the hull, so it is unbounded above on it
    while len(irredundant) > 1 and i < len(irredundant):
        rest = irredundant[:i] + irredundant[i + 1:]
        a, b = irredundant[i]
        res = HPoly(ambient, eqs, tuple(rest)).maximize(a)
        if res.status == OPTIMAL and res.value <= b:
            irredundant.pop(i)
        else:
            i += 1

    return _built_canonical(ambient, eqs, sorted(irredundant))


def _built_canonical(ambient, eq, ineq) -> HPoly:
    """A nonempty HPoly whose rows are already in canonical form."""
    out = HPoly(ambient, eq, ineq, _canonical=True)
    out._empty = False
    return out


# ---------------------------------------------------------------------------
# V-polytopes

class VPolytope(NamedTuple):
    """Bounded rational polytope given by its vertex list (minimal)."""
    vertices: tuple

    @staticmethod
    def from_points(points) -> "VPolytope":
        """The polytope of the vertices of conv(points), in sorted order.

        A point is a vertex when the hull facets containing it meet in that
        point alone: their intersection is the smallest face containing it.
        """
        pts = sorted(set(tuple(p) for p in points))
        if len(pts) <= 1:
            return VPolytope(vertices=tuple(pts))
        facets = [tight for _, _, tight in _hull_facets(_chart(pts)[2])]
        everything = frozenset(range(len(pts)))
        return VPolytope(vertices=tuple(
            p for i, p in enumerate(pts)
            if everything.intersection(*(g for g in facets if i in g)) == {i}))

    @property
    def ambient(self) -> int:
        return len(self.vertices[0])

    @property
    def tangent_basis(self):
        return _chart(self.vertices)[0]

    @property
    def dim(self) -> int:
        return len(self.tangent_basis)

    def translate(self, vec) -> "VPolytope":
        if len(vec) != self.ambient:
            raise ValueError(f"translation by {len(vec)} coordinates in R^{self.ambient}")
        return VPolytope(vertices=tuple(tuple(a + b for a, b in zip(v, vec))
                                        for v in self.vertices))

    def minkowski(self, other: "VPolytope") -> "VPolytope":
        sums = [tuple(a + b for a, b in zip(u, v))
                for u in self.vertices for v in other.vertices]
        return VPolytope.from_points(sums)

    def scale(self, t) -> "VPolytope":
        return VPolytope(vertices=tuple(tuple(t * x for x in v) for v in self.vertices))

    def face_vertex_sets(self):
        """Vertex index sets of all faces, keyed by dimension, from the top
        face down by facet cuts of one hull."""
        basis, _, coords = _chart(self.vertices)
        facets = [tight for _, _, tight in _hull_facets(coords)]
        return _faces_below([frozenset(range(len(self.vertices)))], len(basis), facets)

    def faces(self, m: int):
        """All m-dimensional faces as VPolytopes."""
        if m < 0 or m > self.dim:
            raise ValueError("face dimension out of range")
        lattice = self.face_vertex_sets()
        out = []
        for fset in sorted(lattice[m], key=lambda s: sorted(s)):
            out.append(VPolytope(vertices=tuple(self.vertices[i] for i in sorted(fset))))
        return out

    def to_hpoly(self) -> HPoly:
        """Convex hull in H-form: affine hull equalities plus facet cuts.

        Chart coordinates are ambient coordinates (the pivot columns), so a
        facet normal of the chart is an ambient row that is zero elsewhere.
        """
        ambient = self.ambient
        basis, pivots, coords = _chart(self.vertices)
        v0 = self.vertices[0]
        eqs = [(a, sum(x * y for x, y in zip(a, v0))) for a in kernel_basis(basis, ambient)]
        ineqs = []
        for normal, offset, _tight in _hull_facets(coords):
            row = [_ZERO] * ambient
            for j, c in zip(pivots, normal):
                row[j] = c
            ineqs.append((tuple(row), offset))
        return HPoly(ambient, eqs, ineqs).canonical()

    def volume(self) -> Fraction:
        """Volume in the tangent-basis chart (full-dimensional measure)."""
        return volume(_chart(self.vertices)[2])


def _chart(points):
    """(basis, pivots, coordinates) of the affine hull of the points.

    The basis is the rref basis of the differences and the coordinates of a
    point are its entries at the pivot columns.  An rref basis is the identity
    at its pivots, so the difference of two points has coordinates in the
    basis equal to its pivot entries: the chart is the tangent-basis chart up
    to a translation, full-dimensional and without a solve.
    """
    p0 = points[0]
    basis, pivots = rref([tuple(a - b for a, b in zip(p, p0)) for p in points[1:]])
    return basis, pivots, [tuple(p[j] for j in pivots) for p in points]


def _hull_facets(points):
    """Facets of a full-dimensional point configuration: the one hull
    computation of this module.

    Returns (normal, offset, tight index set) triples with normal . x <=
    offset valid for all points and equality exactly on the tight set.
    """
    d = len(points[0]) if points else 0
    if d == 0:
        return []
    out = {}
    for subset in combinations(range(len(points)), d):
        p0 = points[subset[0]]
        diffs = [tuple(a - b for a, b in zip(points[i], p0)) for i in subset[1:]]
        normal = kernel_basis(diffs, d)
        if len(normal) != 1:  # the d points span no hyperplane
            continue
        nvec = scale_primitive(normal[0], lead_positive=True)
        offset = sum(x * y for x, y in zip(nvec, p0))
        if (nvec, offset) in out:
            continue
        lo = hi = False
        for q in points:
            val = sum(x * y for x, y in zip(nvec, q))
            if val > offset:
                hi = True
            elif val < offset:
                lo = True
            if hi and lo:
                break
        if hi and lo:
            continue
        if hi:  # flip so the hull is on the <= side
            nvec = tuple(-x for x in nvec)
            offset = -offset
        tight = frozenset(i for i, q in enumerate(points)
                          if sum(x * y for x, y in zip(nvec, q)) == offset)
        out[(nvec, offset)] = (nvec, offset, tight)
    return list(out.values())


def _facet_cuts(face, facets):
    """Facets of a face, as point index sets: the maximal nonempty cuts
    `face & g` by the hull facets g that do not contain the face.

    Each facet F' of the face is the intersection of the hull facets that
    contain it (Ziegler, Lectures on Polytopes, 2.3), and one of those, g,
    misses the face, so `face & g` is a proper face containing F', which is
    F'; every other cut is a proper face too, so it lies in some facet.
    """
    cuts = {face & g for g in facets if not face <= g}
    cuts.discard(frozenset())
    return [c for c in cuts if not any(c < other for other in cuts)]


def _faces_below(top, dim, facets):
    """Point index sets of the faces of a hull that lie in one of the faces
    `top`, all of dimension `dim`, keyed by dimension: the one top-down walk
    of a face lattice, a level of `_facet_cuts` by the hull's facet tight
    sets `facets` per dimension."""
    lattice = {dim: set(top)}
    for cur in range(dim, 0, -1):
        lattice[cur - 1] = {sub for face in lattice[cur]
                            for sub in _facet_cuts(face, facets)}
    return lattice


def triangulate(points):
    """Pulling triangulation of conv(points), for points in any affine subspace.

    Simplices are tuples of the points, each of the hull's dimension.  Each
    face is joined from its least point, always a vertex, to the
    triangulations of its facets that miss that point.
    """
    pts = sorted(set(tuple(p) for p in points))
    if not pts:
        return []
    facets = [tight for _, _, tight in _hull_facets(_chart(pts)[2])]

    def pull(face):
        apex = min(face)  # the points are sorted, so this is the least one
        if len(face) == 1:
            return [(apex,)]
        return [(apex,) + rest for sub in _facet_cuts(face, facets)
                if apex not in sub for rest in pull(sub)]

    return [tuple(pts[i] for i in s) for s in pull(frozenset(range(len(pts))))]


def volume(points) -> Fraction:
    """Volume of conv(points) in their ambient space, zero when the points
    span a lower-dimensional affine subspace."""
    simplices = triangulate(points)
    if not simplices or len(simplices[0]) != len(simplices[0][0]) + 1:
        return _ZERO
    total = sum(abs(det([[a - b for a, b in zip(p, s[0])] for p in s[1:]]))
                for s in simplices)
    return total / factorial(len(simplices[0]) - 1)


# ---------------------------------------------------------------------------
# volume multivectors

def volume_multivector(face: VPolytope, basis):
    """The odd multivector p with integral(omega) = omega(p) for volume forms.

    `basis` is the orientation token: an ordered basis of the face tangent
    space.  The result is basis-chart volume times the basis blade, as an
    ambient multivector.  The basis is M times the rref basis of the face,
    with M its entries at the pivot columns, so the volume in its chart is
    the `_chart` volume over |det M|; a basis larger than the face sees
    volume zero.
    """
    from .exterior import Alt, wedge_all
    m = len(basis)
    if m == 0:
        return Alt.scalar(_ONE)
    rows, pivots, coords = _chart(face.vertices)
    if rank(list(basis) + rows) > rank(basis):
        raise ValueError("orientation token does not span the face")
    vol = _ZERO
    if len(rows) == m:
        vol = volume(coords) / abs(det_at(basis, pivots))
    blade = wedge_all([Alt(1, {(i,): x for i, x in enumerate(b) if x != 0})
                       for b in basis])
    return blade.scale(vol)


# ---------------------------------------------------------------------------
# dual cones

def _dual_n(gamma: VPolytope) -> int:
    """n for a polytope of the dual of C^n, whose points have 2n real
    coordinates."""
    if gamma.ambient % 2:
        raise ValueError(f"a polytope in the dual of C^n has 2n coordinates, "
                         f"not {gamma.ambient}")
    return gamma.ambient // 2


def dual_cone(gamma: VPolytope, delta: VPolytope) -> HPoly:
    """Cone of z where max over gamma of Re<z, .> is attained on all of delta."""
    from .exterior import real_functional_of_dual_point
    ambient = gamma.ambient
    dverts = set(delta.vertices)
    if not dverts <= set(gamma.vertices):
        raise ValueError("delta is not a face of gamma")
    u0 = delta.vertices[0]
    eqs = []
    for u in delta.vertices[1:]:
        diff = tuple(a - b for a, b in zip(u, u0))
        eqs.append((real_functional_of_dual_point(diff), _ZERO))
    ineqs = []
    for v in gamma.vertices:
        if v in dverts:
            continue
        diff = tuple(a - b for a, b in zip(v, u0))
        ineqs.append((real_functional_of_dual_point(diff), _ZERO))
    return HPoly(ambient, eqs, ineqs).canonical()


# ---------------------------------------------------------------------------
# polyhedral sets

class PolyhedralSet(NamedTuple):
    """Finite k-dimensional complex given by its top cells."""
    k: int
    ambient: int
    cells: list

    @staticmethod
    def from_cells(k: int, ambient: int, cells) -> "PolyhedralSet":
        canon = {}
        for c in cells:
            cc = c.canonical()
            if cc.is_empty():
                continue
            if cc.dim != k:
                raise ValueError(f"cell of dim {cc.dim} in a {k}-complex")
            canon[cc.key] = cc
        return PolyhedralSet(k=k, ambient=ambient, cells=sorted(canon.values(),
                                                                key=lambda c: repr(c.key)))

    def validate_face_to_face(self):
        for i, a in enumerate(self.cells):
            for b in self.cells[i + 1:]:
                if not face_to_face(a, b):
                    raise ValueError("cells do not intersect in a common face")


def face_to_face(a: HPoly, b: HPoly) -> bool:
    """Whether two canonical cells are disjoint or meet in a face of each:
    the face of each cell at a relative interior point of the intersection
    must be the intersection itself."""
    inter = a.intersect(b).canonical()
    if inter.is_empty():
        return True
    p = inter.relint_point()
    return all(cell.smallest_face_at(p).key == inter.key for cell in (a, b))


def hyperplanes_of_cells(cells):
    """Canonical hyperplanes carrying all constraints of the given cells."""
    seen = {}
    for cell in cells:
        for a, b in cell.eq + cell.ineq:
            if any(x != 0 for x in a):
                seen.setdefault(_prim_eq(a, b), None)
    return list(seen.keys())


def split_by_hyperplanes(cell: HPoly, hyperplanes):
    """Arrangement pieces of the cell of full cell dimension.

    Only hyperplanes strictly straddled by the cell produce cuts, which is
    exactly the set of arrangement walls meeting the cell's interior.
    """
    def walls(piece):
        return {_prim_eq(a, b) for a, b in piece.eq + piece.ineq}

    start = cell.canonical()
    if start.is_empty():
        return []
    pieces = [(start, walls(start))]
    for a, b in hyperplanes:
        wall = _prim_eq(a, b)
        nxt = []
        for piece, own in pieces:
            if wall not in own:  # a piece never straddles its own walls
                lo = piece.minimize(a)
                hi = piece.maximize(a)
                lo_cross = lo.status == UNBOUNDED or (lo.status == OPTIMAL and lo.value < b)
                hi_cross = hi.status == UNBOUNDED or (hi.status == OPTIMAL and hi.value > b)
                if lo_cross and hi_cross:
                    below = piece.with_constraint(a, b).canonical()
                    above = piece.with_constraint(tuple(-x for x in a), -b).canonical()
                    nxt.extend((p, walls(p)) for p in (below, above) if not p.is_empty())
                    continue
            nxt.append((piece, own))
        pieces = nxt
    return [piece for piece, _ in pieces]


def common_refinement(x: PolyhedralSet, y: PolyhedralSet) -> tuple:
    """Refine both complexes over the union of their constraint hyperplanes.

    Returns (pieces of x cells, pieces of y cells, refined union complex).
    Every piece is a cell of the global hyperplane arrangement restricted
    to its parent, so the union is face-to-face.
    """
    hyps = hyperplanes_of_cells(list(x.cells) + list(y.cells))
    px = {}
    for ci, cell in enumerate(x.cells):
        px[ci] = split_by_hyperplanes(cell, hyps)
    py = {}
    for ci, cell in enumerate(y.cells):
        py[ci] = split_by_hyperplanes(cell, hyps)
    union = {}
    for parts in list(px.values()) + list(py.values()):
        for p in parts:
            union[p.key] = p
    k = max(x.k, y.k)
    refined = PolyhedralSet(k=k, ambient=x.ambient,
                            cells=sorted(union.values(), key=lambda c: repr(c.key)))
    return px, py, refined


def localization(x: PolyhedralSet, theta: HPoly) -> PolyhedralSet:
    """Fan of direction cones of the cells around a cell of the complex.

    The fan agrees with the complex shifted by an interior point of theta
    near the origin; its minimal cone is the direction space of theta.
    """
    theta = theta.canonical()
    p = theta.relint_point()
    cones = []
    found = False
    for cell in x.cells:
        if cell.contains_point(p):
            cones.append(cell.localized_cone(p))
            found = True
    if not found:
        raise ValueError("cell is not part of the complex")
    return PolyhedralSet.from_cells(x.k, x.ambient, cones)
