"""Reference transversality: recursion over every pair of faces of every
pair of touching cells, one intersection in canonical form per pair.

This is the construction that `etv.intersection.transversal` replaced by
one rank test per minimal face of each cell intersection; the tests
compare the two.
"""

from etv.framed import _framed
from etv.linalg import rank


def _spaces_transversal(a, b):
    rows = list(a.tangent_basis) + list(b.tangent_basis)
    return rank(rows) == a.ambient


def _pair_transversal(a, b, memo):
    key = (a.key, b.key)
    if key in memo:
        return memo[key]
    result = True
    inter = a.intersect(b).canonical()
    if not inter.is_empty():
        if not _spaces_transversal(a, b):
            result = False
        else:
            for fa, _ in a.facets_with_normals():
                if not _pair_transversal(fa, b, memo):
                    result = False
                    break
            if result:
                for fb, _ in b.facets_with_normals():
                    if not _pair_transversal(a, fb, memo):
                        result = False
                        break
    memo[key] = result
    return result


def transversal(x, y):
    """Every pair of touching faces has tangent spaces summing to R^{2n}."""
    xf = _framed(x)
    yf = _framed(y)
    memo = {}
    for a in xf.support_cells():
        for b in yf.support_cells():
            if not _pair_transversal(a.poly, b.poly, memo):
                return False
    return True
