"""Reference coordinates, orientation signs, face facets and unit frames,
each by its first construction: a solve per vector, a round trip through
H-form, and a kernel over all m-subsets of the tangent basis.

`etv.linalg.basis_change_sign`, `etv.dualfan._oriented_facets` and
`etv.framed.unit_positive_frame` replaced these by determinants at pivot
columns, the facets of the one hull, and a wedge of complex annihilators;
the tests compare the two.
"""

from itertools import combinations

from etv.exterior import Alt, evaluate_cform, quotient_pushforward
from etv.framed import induced_facet_sign
from etv.linalg import det, kernel_basis, solve
from etv.polyhedra import VPolytope
from etv.scalars import CRat


def coords_in_basis(basis, vec):
    """Coordinates of vec in the given (independent) basis, or None."""
    # solve basis^T @ c = vec
    rows = [tuple(b[i] for b in basis) for i in range(len(vec))]
    return solve(rows, list(vec))


def in_span(basis, vec) -> bool:
    return coords_in_basis(basis, vec) is not None


def basis_change_sign(frm, to) -> int:
    """Sign of the det of the coordinates of `frm` in `to`, solved vector by
    vector."""
    if len(frm) != len(to):
        raise ValueError("bases of different sizes")
    if not frm:
        return 1
    coords = []
    for v in frm:
        c = coords_in_basis(to, v)
        if c is None:
            raise ValueError("vectors do not span the same space")
        coords.append(c)
    d = det(coords)
    if d == 0:
        raise ValueError("degenerate change of basis")
    return 1 if d > 0 else -1


def oriented_facets(face: VPolytope):
    """(facet, sign) pairs of a face through its H-form: the facets of the
    canonical cell, their vertices enumerated back, signed by the outward
    inequality."""
    face_poly = face.to_hpoly()
    return [(VPolytope.from_points(facet.vertices()), facet.tangent_basis,
             induced_facet_sign(face_poly, facet, ineq))
            for facet, ineq in face_poly.facets_with_normals()]


def unit_positive_frame(tangent_basis, n: int) -> Alt:
    """The real-on-E forms as the kernel of the imaginary parts of all
    minors, scaled to quotient density one."""
    k = len(tangent_basis)
    m = 2 * n - k
    keys = list(combinations(range(n), m))
    nk = len(keys)
    rows = []
    for tup in combinations(range(k), m):
        args = [tangent_basis[i] for i in tup]
        row_a = []
        row_b = []
        for key in keys:
            minor = evaluate_cform(Alt(m, {key: CRat(1)}), args)
            row_a.append(minor.im)
            row_b.append(minor.re)
        rows.append(tuple(row_a + row_b))
    ker = kernel_basis(rows, 2 * nk)
    candidates = []
    for vec in ker:
        terms = {}
        for j, key in enumerate(keys):
            val = CRat(vec[j], vec[nk + j])
            if not val.is_zero():
                terms[key] = val
        form = Alt(m, terms)
        if not form.is_zero():
            pf = quotient_pushforward(form, tangent_basis)
            if pf.sign != 0:
                candidates.append((form, pf.density.re))
    if not candidates:
        raise ValueError("no positive frame: subspace is degenerate")
    form, density = candidates[0]
    return form.scale(CRat(1 / density))
