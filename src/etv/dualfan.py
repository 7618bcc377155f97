"""Homogeneous cycles from convex polytopes in the dual space.

For a bounded rational polytope in the dual space, the fan of dual cones
of its m-faces carries frames (-i)^m rho(p_face), where p_face is the odd
volume multivector of the face.  The sign of each frame is coordinated
through the nondegenerate pairing Im<z, z*> between the cone's quotient
space and the face tangent space: the frame is stored at the cell
orientation (Q, complex-standard) where the pairing determinant of
(Q, face basis) is positive.

The cocycle and volume-recursion checks stay in V-form: the facets of a
face come from the one hull of its vertices, each signed by (outward
vector, facet basis) against the face basis.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exterior import Alt, ComplexSplit, complex_split, pairing, rho, wedge
from .framed import EtvRep, FramedCell, FramedSet, canonicalize
from .linalg import basis_change_sign, det
from .polyhedra import VPolytope, _dual_n, dual_cone, volume_multivector
from .scalars import CRat


def symplectic_orientation_sign(basis_q, basis_f) -> int:
    """Sign of det[Im <q_i, f_j>]: the orientation the symplectic power
    assigns to (basis_q followed by basis_f)."""
    if len(basis_q) != len(basis_f):
        raise ValueError("pairing needs equal dimensions")
    if not basis_q:
        return 1
    mat = [[pairing(q, f).im for f in basis_f] for q in basis_q]
    d = det(mat)
    if d == 0:
        raise ValueError("degenerate pairing between quotient and face")
    return 1 if d > 0 else -1


def minus_i_power(m: int) -> CRat:
    return [CRat(1), CRat(0, -1), CRat(-1), CRat(0, 1)][m % 4]


class DualFanEtp(NamedTuple):
    """Dual-fan cycle of a polytope: cones keyed by the faces they refine."""
    gamma: VPolytope
    k: int
    result: EtvRep
    face_map: list   # (face, cone, frame) triples, degenerate faces framed zero

    def framed_rep(self) -> FramedSet:
        """The unmerged fan representative; support functions are linear on
        each of its cones."""
        return FramedSet(_dual_n(self.gamma), self.k,
                         [FramedCell(cone, frame) for _, cone, frame in self.face_map])


def dual_fan_frame(face: VPolytope, split: ComplexSplit) -> Alt:
    """Frame of the dual cone of a nondegenerate face, at the cone's
    canonical orientation; `split` is the complex split of the cone."""
    fbasis = list(face.tangent_basis)
    w = rho(volume_multivector(face, fbasis)).scale(minus_i_power(len(fbasis)))
    sign = symplectic_orientation_sign(split.quotient_basis, fbasis)
    return w if sign > 0 else -w


def dual_fan_etp(gamma: VPolytope, k: int, validate=True) -> DualFanEtp:
    """The homogeneous k-cycle of dual cones of (2n-k)-faces of gamma."""
    n = _dual_n(gamma)
    if not n <= k <= 2 * n:
        raise ValueError(f"k={k} outside [{n}, {2 * n}]")
    m = 2 * n - k
    if m > gamma.dim:
        raise ValueError(f"polytope has no faces of dimension {m}")
    face_map = []
    cells = []
    for face in gamma.faces(m):
        cone = dual_cone(gamma, face)
        # at a valid grade a face is degenerate exactly when its cone is
        split = complex_split(cone.tangent_basis)
        frame = Alt(m) if split.degenerate else dual_fan_frame(face, split)
        face_map.append((face, cone, frame))
        cells.append(FramedCell(cone, frame))
    framed = FramedSet(n, k, cells)
    result = canonicalize(framed, validate=validate)
    return DualFanEtp(gamma=gamma, k=k, result=result, face_map=face_map)


def valid_k_range(gamma: VPolytope):
    n = _dual_n(gamma)
    return range(max(n, 2 * n - gamma.dim), 2 * n + 1)


# ---------------------------------------------------------------------------
# cocycle checks

def _oriented_facets(face: VPolytope):
    """(facet, sign) pairs of a face: its facets from the one hull of its
    vertices, each signed by (outward vector, facet basis) against the face
    basis.  The outward vector u - w runs from a vertex w of the face off the
    facet to a vertex u of the facet."""
    basis = list(face.tangent_basis)
    out = []
    for facet in face.faces(face.dim - 1):
        u = facet.vertices[0]
        w = next(v for v in face.vertices if v not in facet.vertices)
        outward = tuple(a - b for a, b in zip(u, w))
        out.append((facet, basis_change_sign([outward, *facet.tangent_basis], basis)))
    return out


def pascal_check(gamma: VPolytope, m: int) -> bool:
    """Oriented volume multivectors of m-faces sum to zero around every
    (m+1)-face; the complexified cochain also vanishes beyond dimension n."""
    n = _dual_n(gamma)
    if m < 0 or m > gamma.dim:
        raise ValueError("face dimension out of range")
    if m + 1 <= gamma.dim:
        for face in gamma.faces(m + 1):
            total = Alt(m)
            for sub, sign in _oriented_facets(face):
                total = total + volume_multivector(sub, list(sub.tangent_basis)).scale(sign)
            if not total.is_zero():
                return False
    if m > n:
        for face in gamma.faces(m):
            basis = list(face.tangent_basis)
            if not rho(volume_multivector(face, basis)).is_zero():
                return False
    return True


def volume_recursion_check(gamma: VPolytope, m: int) -> bool:
    """rho(p) of every (m+1)-face equals the cone recursion over its m-faces,
    for two independent choices of the base points."""
    return _volume_recursion(gamma, m, rho, (0, 1))


def real_volume_recursion_check(gamma: VPolytope, m: int) -> bool:
    """The real multivector recursion, prior to complexification."""
    return _volume_recursion(gamma, m, lambda mv: mv, (0,))


def _volume_recursion(gamma: VPolytope, m: int, lift, choices) -> bool:
    """lift(p) of every (m+1)-face is the cone recursion over its m-faces,
    lifted by `lift`, for each choice of base point (a vertex index)."""
    if m + 1 > gamma.dim:
        raise ValueError("no faces of dimension m+1")
    for face in gamma.faces(m + 1):
        lhs = lift(volume_multivector(face, list(face.tangent_basis)))
        for choice in choices:
            total = Alt(m + 1)
            for sub, sign in _oriented_facets(face):
                w = sub.vertices[choice % len(sub.vertices)]
                p_sub = lift(volume_multivector(sub, list(sub.tangent_basis))).scale(sign)
                w_vec = lift(Alt(1, {(i,): x for i, x in enumerate(w) if x != 0}))
                total = total + wedge(w_vec, p_sub)
            if total.scale(Fraction(1, m + 1)) != lhs:
                return False
    return True
