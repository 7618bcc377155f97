"""Zero-value criterion for mixed products and its constructive witnesses.

A family of nonempty finite covector sets is degenerate when every
transversal selection is linearly dependent.  The witness algorithm
follows the constructive narrowing: grow a maximal nondegenerate
subfamily with independent representatives, then repeatedly shrink to the
subfamily whose sets lie in the span of their own representatives; the
loop ends with p sets inside a (p-1)-dimensional subspace.  The greedy pass
decides the verdict too, so a caller that wants both takes them from one
search (`_find_witness`).

Independence and span tests reduce one vector at a time against one
incremental echelon form (`linalg.EchelonBasis`); the backtracking search
pushes a vector when it is independent of the chosen ones and pops it when
the branch fails.  Each test is cheap, but the search still tries every
partial transversal in the worst case, so it is exponential in the number
of sets; matroid intersection (Edmonds 1970) would make it polynomial.

The same machinery runs over Q (real bodies, mixed volumes) and over Q(i)
(hyperplane equations of corner loci).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING, NamedTuple

from .linalg import EchelonBasis, _real_ambient, kernel_basis, rref
from .scalars import CRat

if TYPE_CHECKING:
    from .framed import EtvRep
    from .monge import AffineFunc, PLFunction

_ZERO = Fraction(0)
_BRUTEFORCE_CAP = 12  # sets; `witness_bruteforce` tries every subset


class _Family(NamedTuple):
    n: int
    sets: tuple   # tuple of tuples of CRat-coordinate covectors


class VectorFamily(_Family):
    """Nonempty finite sets of nonzero covectors in an n-dim complex space.

    The check sits in `__new__`, which a `NamedTuple` body cannot define;
    unpickling and `copy` call it too, and so do `_make` and `_replace`,
    which builds through `_make`.
    """
    __slots__ = ()

    def __new__(cls, n, sets):
        for s in sets:
            if not s:
                raise ValueError("family sets must be nonempty")
            for v in s:
                if all(c.is_zero() for c in v):
                    raise ValueError("family vectors must be nonzero")
        return super().__new__(cls, n, sets)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def k(self):
        return len(self.sets)


class DegeneracyWitness(NamedTuple):
    p: int
    set_indices: tuple     # indices of B_1..B_p in the family
    subspace_basis: tuple  # (p-1) covectors spanning H

    def validate(self, family: VectorFamily) -> bool:
        span = EchelonBasis(self.subspace_basis)
        if len(span) != self.p - 1:
            return False
        if len(self.set_indices) != self.p:
            return False
        return all(span.contains(v)
                   for i in self.set_indices for v in family.sets[i])


def _extend_transversal(sets, span):
    """Backtracking search for an independent transversal of the sets.

    `span` holds the vectors chosen so far and is left as it was found.
    """
    if not sets:
        return []
    head, tail = sets[0], sets[1:]
    for v in head:
        if span.add(v):
            rest = _extend_transversal(tail, span)
            span.pop()
            if rest is not None:
                return [v] + rest
    return None


def _subfamily_transversal(family: VectorFamily, indices):
    return _extend_transversal([family.sets[i] for i in indices], EchelonBasis())


def is_nondegenerate(family: VectorFamily) -> bool:
    """Some selection of one vector per set is linearly independent."""
    if family.k > family.n:
        return False
    return _subfamily_transversal(family, range(family.k)) is not None


def degeneracy_witness(family: VectorFamily) -> DegeneracyWitness:
    """Constructive witness: p sets inside a (p-1)-dim subspace.  Raises
    ValueError on a nondegenerate family."""
    witness = _find_witness(family)
    if witness is None:
        raise ValueError("family is nondegenerate; no witness exists")
    return witness


def _find_witness(family: VectorFamily):
    """The witness of a degenerate family, or None when it is nondegenerate:
    the verdict and the witness of one search.

    Implements the narrowing proof: maximal nondegenerate subfamily with
    representatives c_i, an outside set C whose span lies in span(c_i),
    then repeated restriction to the sets contained in the current span.
    The greedy pass decides degeneracy on the way: the family is
    nondegenerate exactly when it chooses every set.  It stops at n chosen
    sets, since n + 1 vectors in an n-dimensional space are dependent.
    """
    chosen: list = []
    reps: list = []
    for i in range(family.k):
        if len(chosen) == family.n:
            break
        transversal = _subfamily_transversal(family, chosen + [i])
        if transversal is not None:
            chosen.append(i)
            reps = transversal
    if len(chosen) == family.k:
        return None
    outside = next(i for i in range(family.k) if i not in chosen)
    rep_of = dict(zip(chosen, reps))

    current = list(chosen)
    while True:
        basis = rref([rep_of[i] for i in current])[0]
        span = EchelonBasis(basis)
        inside = [i for i in current
                  if all(span.contains(v) for v in family.sets[i])]
        if len(inside) == len(current):
            witness = DegeneracyWitness(
                p=len(current) + 1,
                set_indices=tuple(sorted(current + [outside])),
                subspace_basis=tuple(basis))
            if not witness.validate(family):
                raise AssertionError("constructed witness failed validation")
            return witness
        if not inside:
            raise AssertionError("narrowing emptied the subfamily")
        current = inside


def witness_bruteforce(family: VectorFamily):
    """Smallest index subset with dim span of its union below its size."""
    if family.k > _BRUTEFORCE_CAP:
        raise ValueError("family too large for subset enumeration")
    for p in range(1, family.k + 1):
        for subset in combinations(range(family.k), p):
            vecs = [v for i in subset for v in family.sets[i]]
            basis = rref(vecs)[0]
            if len(basis) <= p - 1:
                return DegeneracyWitness(p=p, set_indices=subset,
                                         subspace_basis=tuple(basis))
    return None


# ---------------------------------------------------------------------------
# hyperplane equations of hypersurface cycles

def _normalize_line(w):
    for c in w:
        if not c.is_zero():
            return tuple(x / c for x in w)
    raise ValueError("zero covector has no direction")


def hyperplane_equations(p: EtvRep) -> list:
    """Per-cell complex covectors vanishing on the cell tangent spaces,
    normalized so the first nonzero coordinate is one."""
    from .exterior import real_covector_to_ccov
    if p.dim != p.n - 1:
        raise ValueError("hyperplane equations need a hypersurface cycle")
    out = []
    for c in p.cells():
        rows = list(c.poly.tangent_basis)
        ann = kernel_basis([list(r) for r in rows], 2 * p.n)
        if len(ann) != 1:
            raise ValueError("cell tangent space is not a hyperplane")
        w = real_covector_to_ccov(ann[0])
        out.append(_normalize_line(w))
    return out


# ---------------------------------------------------------------------------
# the zero criterion for mixed products

class HDegeneracyCertificate(NamedTuple):
    """A subset of the functions descends along a complex subspace.

    After adding the linear correctors, every function named in `subset`
    is invariant under translations by the subspace spanned by h_basis
    (complex vectors of C^n).
    """
    subset: tuple
    h_basis: tuple      # complex vectors (CRat coordinates)
    correctors: tuple   # AffineFunc per subset member


def validate_h_certificate(cert: HDegeneracyCertificate, funcs) -> bool:
    """Corrected functions must have all piece differentials constant along H."""
    from .exterior import _complex_pairing
    if not cert.h_basis:
        return False
    for idx, corr in zip(cert.subset, cert.correctors):
        h = funcs[idx]
        base = tuple(-c for c in corr.w)
        for piece in h.plus:
            diff = tuple(a - b for a, b in zip(piece.w, base))
            for hv in cert.h_basis:
                if not _complex_pairing(hv, diff).is_zero():
                    return False
    return True


def _corrector(h: PLFunction) -> AffineFunc:
    """The negated first plus functional of h, which its certificate adds."""
    from .monge import AffineFunc
    return AffineFunc(tuple(-c for c in h.plus[0].w), -h.plus[0].c)


def ma_zero_criterion(*funcs: PLFunction):
    """Verdict for vanishing of the mixed product of convex PL functions.

    Returns (zero, certificate): zero is True iff the family of hyperplane
    equations of the corner loci is degenerate, in which case a validated
    descent certificate for a subset of the functions is attached.

    The equations are the facet rows of the linearity tiling of each
    function, with no corner locus built.  A row a of a region P is the
    normal a_P - a_Q of a wall between P and a region Q, where the jump
    d^c(h_P) - d^c(h_Q) is nonzero (distinct upper vertices of one lifted
    hull have distinct slopes), so the walls carry the corner locus; and h
    is affine exactly when its tiling has one region.
    """
    from .exterior import complex_annihilator, real_covector_to_ccov
    from .monge import linearity_complex
    n = funcs[0].n
    for h in funcs:
        if not h.is_convex():
            raise ValueError("criterion needs convex functions")
        if h.n != n:
            raise ValueError("ambient mismatch")
    sets = []
    for idx, h in enumerate(funcs):
        tiling = linearity_complex(h)
        if len(tiling) == 1:
            # affine function: its factor vanishes outright
            cert = HDegeneracyCertificate(
                subset=(idx,), h_basis=tuple(complex_annihilator((), n)),
                correctors=(_corrector(h),))
            return True, cert
        sets.append(tuple(dict.fromkeys(_normalize_line(real_covector_to_ccov(a))
                                        for lc in tiling for a, _ in lc.poly.ineq)))
    witness = _find_witness(VectorFamily(n=n, sets=tuple(sets)))
    if witness is not None:
        h_basis = complex_annihilator(witness.subspace_basis, n)
        cert = HDegeneracyCertificate(
            subset=witness.set_indices, h_basis=tuple(h_basis),
            correctors=tuple(_corrector(funcs[i]) for i in witness.set_indices))
        if not validate_h_certificate(cert, funcs):
            raise AssertionError("descent certificate failed validation")
        return True, cert
    return False, None


# ---------------------------------------------------------------------------
# the mixed volume criterion

def _body_direction_set(points, n):
    """Span basis of the difference space of a body, as complex covectors."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    diffs = [tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]]
    basis = rref(diffs)[0] if diffs else []
    return tuple(tuple(CRat(x) for x in b) for b in basis)


def mixed_volume_zero_criterion(*bodies):
    """Zero mixed volume iff some p bodies translate into a (p-1)-dim subspace.

    Bodies are point lists in R^n.  Returns (zero, subset, subspace_basis)
    with real basis vectors when zero, else (False, None, None).
    """
    n = _real_ambient(bodies)
    sets = []
    for i, b in enumerate(bodies):
        dirs = _body_direction_set(b, n)
        if not dirs:
            # a single point translates into the origin: p = 1, H = 0
            return True, (i,), ()
        sets.append(dirs)
    witness = _find_witness(VectorFamily(n=n, sets=tuple(sets)))
    if witness is None:
        return False, None, None
    real_basis = tuple(tuple(c.re for c in w) for w in witness.subspace_basis)
    return True, witness.set_indices, real_basis
