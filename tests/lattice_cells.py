"""Hypothesis strategies for small lattice cells in R^2 and in planes of C^2."""

from fractions import Fraction as F

from hypothesis import strategies as st

from etv.polyhedra import HPoly, VPolytope


def plane_cell(rows, plane):
    """The cell {w : rows} of R^2, in R^2 itself (plane None) or embedded in
    C^2 = R^4 as z = (w1, w2, m1 . w + c1, m2 . w + c2) for plane = (m1, c1, m2, c2)."""
    if plane is None:
        return HPoly(2, ineq=rows).canonical()
    m1, c1, m2, c2 = plane
    eq = [((F(-m1[0]), F(-m1[1]), F(1), F(0)), F(c1)),
          ((F(-m2[0]), F(-m2[1]), F(0), F(1)), F(c2))]
    ineq = [((c[0], c[1], F(0), F(0)), r) for c, r in rows]
    return HPoly(4, eq=eq, ineq=ineq).canonical()


coord = st.integers(-3, 3)
normal = st.tuples(coord, coord).filter(lambda v: v != (0, 0))


@st.composite
def region(draw):
    """Rows of a lattice polygon, a half-plane or a cone in R^2."""
    kind = draw(st.sampled_from(["polygon", "halfplane", "cone"]))
    if kind == "polygon":
        pts = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=5, unique=True))
        return list(VPolytope.from_points([tuple(map(F, p)) for p in pts]).to_hpoly().ineq)
    apex = draw(st.tuples(coord, coord))
    normals = draw(st.lists(normal, min_size=1 if kind == "halfplane" else 2,
                            max_size=1 if kind == "halfplane" else 2))
    return [((F(u), F(v)), F(u * apex[0] + v * apex[1])) for u, v in normals]


planes = st.one_of(st.none(), st.tuples(st.tuples(coord, coord), coord,
                                        st.tuples(coord, coord), coord))
