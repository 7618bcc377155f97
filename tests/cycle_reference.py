"""Reference cycle-group operations that locate frames by points and cones.

These are the constructions that `etv.framed.FramedSet`, which sums the
frames of each canonical cell, replaced; the tests compare the two:

- `add`, `equivalent` and `refined_sum` (`add` before merging) look up
  the frame of each refined cell at its relative interior point, first
  match wins;
- `bergman_fan` sums the frames of the cells whose recession cone contains
  each piece, one containment test per piece and cone;
- `corner_locus` pairs the two cells at each wall of the LP tiling of
  `linearity_reference` and orients the wall by a signed standard basis
  vector.
"""

from fractions import Fraction as F

from etv.exterior import Alt, ccov_form, dc_ccov
from etv.framed import EtvRep, FramedCell, FramedSet, _framed, canonicalize
from etv.linalg import basis_change_sign
from etv.polyhedra import (PolyhedralSet, common_refinement, hyperplanes_of_cells,
                           split_by_hyperplanes)
from linearity_reference import linearity_complex


def frame_at(x: FramedSet, p) -> Alt:
    """Frame of the first support cell of x that contains the point p."""
    for c in x.cells:
        if not c.frame.is_zero() and c.poly.contains_point(p):
            return c.frame
    return Alt(2 * x.n - x.k)


def _refined_cells(x: FramedSet, y: FramedSet):
    cx = PolyhedralSet.from_cells(x.k, x.ambient, [c.poly for c in x.support_cells()])
    cy = PolyhedralSet.from_cells(y.k, y.ambient, [c.poly for c in y.support_cells()])
    return common_refinement(cx, cy)[2].cells


def equivalent(p, q) -> bool:
    x, y = _framed(p), _framed(q)
    xs, ys = x.support_cells(), y.support_cells()
    if not xs or not ys or x.k != y.k:
        return not xs and not ys
    return all(frame_at(x, cell.relint_point()) == frame_at(y, cell.relint_point())
               for cell in _refined_cells(x, y))


def refined_sum(x: FramedSet, y: FramedSet) -> FramedSet:
    """The cells of the common refinement of two supports, each framed by the
    sum of the frames that x and y have there."""
    cells = []
    for cell in _refined_cells(x, y):
        pt = cell.relint_point()
        cells.append(FramedCell(cell, frame_at(x, pt) + frame_at(y, pt)))
    return FramedSet(x.n, x.k, cells)


def add(p, q) -> EtvRep:
    x, y = _framed(p), _framed(q)
    if not x.support_cells():
        return q if isinstance(q, EtvRep) else canonicalize(y, validate=False)
    if not y.support_cells():
        return p if isinstance(p, EtvRep) else canonicalize(x, validate=False)
    return canonicalize(refined_sum(x, y), validate=False)


def bergman_fan(x, validate=True) -> EtvRep:
    p = x if isinstance(x, EtvRep) else canonicalize(x)
    n, k = p.n, p.k
    recession = [(c, c.poly.recession_cone()) for c in p.framed.support_cells()]
    hyps = hyperplanes_of_cells([rc for _, rc in recession if rc.dim > 0])
    pieces = {}
    for _, rc in recession:
        if rc.dim == k:
            for piece in split_by_hyperplanes(rc, hyps):
                pieces.setdefault(piece.key, piece)
    cells = []
    for piece in pieces.values():
        total = Alt(2 * n - k)
        for c, rc in recession:
            if rc.dim == k and rc.contains_poly(piece):
                total = total + c.frame
        cells.append(FramedCell(piece, total))
    return canonicalize(FramedSet(n, k, cells), validate=validate)


def corner_locus(h) -> EtvRep:
    ambient = 2 * h.n
    cells = linearity_complex(h)
    walls = {}
    for ci, lc in enumerate(cells):
        for facet, ineq in lc.poly.facets_with_normals():
            walls.setdefault(facet.key, []).append((facet, ineq, ci))
    standard = [tuple(F(int(i == j)) for j in range(ambient)) for i in range(ambient)]
    framed_cells = []
    for entries in walls.values():
        if len(entries) != 2:
            raise ValueError("linearity tiling has a non-interior wall")
        (facet, (a, _), ci_p), (_, _, ci_q) = entries
        diff = tuple(u - v for u, v in
                     zip(cells[ci_p].differential(), cells[ci_q].differential()))
        if all(d.is_zero() for d in diff):
            continue
        form = ccov_form(dc_ccov(diff))
        idx = next(i for i, coeff in enumerate(a) if coeff != 0)
        outward = tuple(F(0) if j != idx else F(1 if a[idx] > 0 else -1)
                        for j in range(ambient))
        sign = basis_change_sign([outward] + list(facet.tangent_basis), standard)
        framed_cells.append(FramedCell(facet, form if sign > 0 else -form))
    return canonicalize(FramedSet(h.n, ambient - 1, framed_cells))
