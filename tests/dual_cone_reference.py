"""Reference dual cone: one inequality per vertex of gamma off delta, put in
canonical form by LP.

This is the construction that `etv.polyhedra.dual_cone` replaced by the
normal cone read off the face lattice, with no LP; the tests compare the
keys of the two.
"""

from fractions import Fraction as F

from etv.exterior import real_functional_of_dual_point
from etv.polyhedra import HPoly


def dual_cone_by_lp(gamma, delta) -> HPoly:
    """Cone of z where max over gamma of Re<z, .> is attained on all of
    delta, a set of vertices of gamma: the equalities Re<z, u - u0> = 0 over
    delta and the inequalities Re<z, v - u0> <= 0 over the other vertices,
    with the implicit equalities and redundant rows found by LP."""
    u0 = delta.vertices[0]

    def row(v):
        return real_functional_of_dual_point(tuple(a - b for a, b in zip(v, u0))), F(0)

    eqs = [row(u) for u in delta.vertices[1:]]
    ineqs = [row(v) for v in gamma.vertices if v not in set(delta.vertices)]
    return HPoly(gamma.ambient, eqs, ineqs).canonical()
