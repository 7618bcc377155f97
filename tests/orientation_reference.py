"""Reference coordinates, orientation signs, face facets, unit frames,
complex splits and degenerate faces, each by its first construction: a
solve per vector, a round trip through H-form, a kernel over all m-subsets
of the tangent basis, a rank call per vector for the complex and quotient
bases, and the complex dimension of the span of a face.

`etv.linalg.basis_change_sign`, `etv.dualfan._oriented_facets`,
`etv.framed.unit_positive_frame` and `etv.exterior.complex_split` replaced
these by determinants at pivot columns, the facets of the one hull, a wedge
of complex annihilators, and one split per tangent space whose complex
basis is the rref of E & JE; `dual_fan_etp` reads the degeneracy of a face
from the split of its dual cone.  The tests compare the two.
"""

from itertools import combinations

from etv.exterior import (Alt, Pushforward, apply_J, evaluate_cform,
                          quotient_pushforward, restrict)
from etv.framed import ValidityReport, _cell_name, boundary, induced_facet_sign
from etv.linalg import det, intersect_rowspaces, kernel_basis, rank, rref, solve
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


def max_complex_subspace(basis):
    """(canonical basis of E & JE, degenerate) by intersecting the row
    spaces of E and JE."""
    if not basis:
        return [], False
    ncols = len(basis[0])
    ebasis = rref(basis)[0]
    inter = intersect_rowspaces(list(ebasis), [apply_J(v) for v in ebasis], ncols)
    return list(inter), ncols // 2 - len(inter) // 2 < ncols - len(ebasis)


def face_is_degenerate(face: VPolytope) -> bool:
    """dim of the face exceeds the complex dimension of its complex span."""
    basis = list(face.tangent_basis)
    if not basis:
        return False
    span = list(basis) + [apply_J(v) for v in basis]
    dim_c = len(rref(span)[0]) // 2
    return len(basis) > dim_c


def standard_complex_basis(c_basis) -> list:
    """Real basis (u1, J u1, u2, J u2, ...) of a complex subspace, picked
    greedily from c_basis by rank calls."""
    chosen: list = []
    for v in c_basis:
        if rank(chosen + [v]) > len(chosen):
            chosen.append(v)
            jv = apply_J(v)
            if rank(chosen + [jv]) > len(chosen):
                chosen.append(jv)
    if len(chosen) != len(c_basis):
        raise ValueError("input does not span a complex subspace")
    return chosen


def extend_basis(partial, pool) -> list:
    """Vectors from pool extending partial to a basis of span(partial+pool)."""
    chosen = list(partial)
    added = []
    for v in pool:
        if rank(chosen + [v]) > len(chosen):
            chosen.append(v)
            added.append(v)
    return added


def oriented_quotient_basis(tangent_basis, c_basis) -> list:
    """Complement of the complex part inside E, oriented so that (quotient,
    standard complex basis) has the orientation of tangent_basis."""
    c_std = standard_complex_basis(c_basis) if c_basis else []
    comp = extend_basis(c_std, tangent_basis)
    if comp:
        sign = basis_change_sign(list(comp) + c_std, list(tangent_basis))
        if sign < 0:
            comp[0] = tuple(-x for x in comp[0])
    else:
        sign = basis_change_sign(c_std, list(tangent_basis)) if c_std else 1
        if sign < 0:
            raise ValueError("complex subspace orientation conflicts with token")
    return comp


def pushforward(form: Alt, tangent_basis) -> Pushforward:
    """`quotient_pushforward` with its own split and a kill loop that stops
    at the first nonzero value on a subset meeting the complex part."""
    c_basis, degenerate = max_complex_subspace(list(tangent_basis))
    if degenerate:
        raise ValueError("quotient pushforward on a degenerate subspace")
    comp = oriented_quotient_basis(tangent_basis, c_basis)
    if form.degree != len(comp):
        raise ValueError("form degree does not match quotient dimension")
    kills = True
    if c_basis:
        pool = list(comp) + standard_complex_basis(c_basis)
        for key in combinations(range(len(pool)), form.degree):
            if max(key, default=-1) < len(comp):
                continue
            if not evaluate_cform(form, [pool[i] for i in key]).is_zero():
                kills = False
                break
    density = evaluate_cform(form, comp)
    sign = 0 if density.is_zero() or density.im != 0 else (1 if density.re > 0 else -1)
    return Pushforward(density=density, sign=sign, real=density.im == 0,
                       kills_complex=kills)


def is_etp(x) -> ValidityReport:
    """The cycle check with realness from `restrict` on the tangent basis and
    the kill check from the reference pushforward."""
    if x.k < x.n:
        raise ValueError("dimension below n cannot carry a cycle structure")
    deg = 2 * x.n - x.k
    for c in x.cells:
        if c.frame.is_zero():
            continue
        name = _cell_name(c.poly)
        if c.frame.degree != deg:
            return ValidityReport(False, f"cell {name}: frame degree {c.frame.degree} != {deg}")
        basis = c.poly.tangent_basis
        if max_complex_subspace(list(basis))[1]:
            return ValidityReport(False, f"cell {name}: degenerate cell with nonzero frame")
        if not restrict(c.frame, list(basis))[1]:
            return ValidityReport(False, f"cell {name}: restriction not real-valued")
        if not pushforward(c.frame, basis).kills_complex:
            return ValidityReport(False,
                                  f"cell {name}: frame does not vanish on the complex subspace")
    if boundary(x).support_cells():
        return ValidityReport(False, "boundary support nonempty")
    return ValidityReport(True)
