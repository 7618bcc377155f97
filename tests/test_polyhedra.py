from fractions import Fraction as F
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etv.polyhedra as polyhedra
from etv.dualfan import dual_fan_etp, valid_k_range
from etv.exterior import Alt
from etv.monge import linearity_complex, support_function
import hull_reference as ref
from canonical_reference import canonical_reference
from linearity_reference import full_dimensional
from etv.linalg import det, kernel_basis, rank
from orientation_reference import coords_in_basis
from etv.polyhedra import (HPoly, PolyhedralSet, VPolytope, common_refinement,
                           dual_cone, hyperplanes_of_cells,
                           split_by_hyperplanes, triangulate, volume, volume_multivector)
from lattice_cells import coord, normal, plane_cell, planes, region


def pt(*xs):
    return tuple(F(x) for x in xs)


def square2d():
    return VPolytope.from_points([pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)])


UNIT_SQUARE = [((F(1), F(0)), F(1)), ((F(-1), F(0)), F(0)),
               ((F(0), F(1)), F(1)), ((F(0), F(-1)), F(0))]


@pytest.fixture
def lp_calls(monkeypatch):
    """Counts the LPs that `etv.polyhedra` solves."""
    calls = [0]
    solve = polyhedra.solve_lp

    def counting(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(polyhedra, "solve_lp", counting)
    return calls


class TestHPoly:
    def test_canonical_detects_implicit_equality(self):
        # x <= 0 and x >= 0 collapse to x = 0
        p = HPoly(2, ineq=[((F(1), F(0)), F(0)), ((F(-1), F(0)), F(0))]).canonical()
        assert p.dim == 1
        assert len(p.eq) == 1 and not p.ineq

    def test_redundant_removed(self):
        p = HPoly(2, ineq=[((F(1), F(0)), F(1)), ((F(1), F(0)), F(2))]).canonical()
        assert len(p.ineq) == 1

    def test_empty(self):
        p = HPoly(1, ineq=[((F(1),), F(0)), ((F(-1),), F(-1))])
        assert p.is_empty()

    def test_relint_membership(self):
        p = HPoly(2, ineq=[((F(1), F(0)), F(1)), ((F(-1), F(0)), F(0)),
                           ((F(0), F(1)), F(1)), ((F(0), F(-1)), F(0))]).canonical()
        q = p.relint_point()
        assert all(x > 0 for x in q) and all(x < 1 for x in q)

    def test_vertices_of_unit_square(self):
        p = square2d().to_hpoly()
        assert sorted(p.vertices()) == [pt(0, 0), pt(0, 1), pt(1, 0), pt(1, 1)]

    def test_translate_keeps_key_of_fresh_canonical(self):
        p = HPoly(2, ineq=UNIT_SQUARE).canonical()
        shifted = p.translate(pt(F(1, 2), 0))
        fresh = HPoly(2, ineq=[(a, b + a[0] / 2) for a, b in UNIT_SQUARE]).canonical()
        assert shifted.key == fresh.key
        assert ((F(-2), F(0)), F(-1)) in shifted.ineq

    def test_translate_renormalizes_equalities(self):
        line = HPoly(2, eq=[((F(1), F(1)), F(0))], ineq=[((F(-1), F(0)), F(0))]).canonical()
        shifted = line.translate(pt(F(1, 3), 0))
        fresh = HPoly(2, eq=[((F(1), F(1)), F(1, 3))],
                      ineq=[((F(-1), F(0)), F(-1, 3))]).canonical()
        assert shifted.key == fresh.key

    @pytest.mark.parametrize("vec", [pt(1), pt(1, 0, 0)])
    def test_translate_needs_one_entry_per_coordinate(self, vec):
        square = HPoly(2, ineq=UNIT_SQUARE)
        segment = VPolytope.from_points([pt(0, 0), pt(1, 0)])
        for p in (square, square.canonical(), segment):
            with pytest.raises(ValueError, match="coordinates in R\\^2"):
                p.translate(vec)

    def test_smallest_face(self):
        p = square2d().to_hpoly()
        f = p.smallest_face_at(pt(0, F(1, 2)))
        assert f.dim == 1
        v = p.smallest_face_at(pt(0, 0))
        assert v.dim == 0


class TestRecessionCone:
    def test_segment(self):
        seg = HPoly(2, eq=[((F(0), F(1)), F(0))],
                    ineq=[((F(1), F(0)), F(1)), ((F(-1), F(0)), F(0))]).canonical()
        assert seg.recession_cone().dim == 0

    def test_halfline(self):
        ray = HPoly(2, eq=[((F(0), F(1)), F(2))],
                    ineq=[((F(-1), F(0)), F(-1))]).canonical()
        rc = ray.recession_cone()
        assert rc.dim == 1 and rc.contains_point(pt(1, 0)) and not rc.contains_point(pt(-1, 0))

    def test_line(self):
        line = HPoly(2, eq=[((F(0), F(1)), F(3))]).canonical()
        rc = line.recession_cone()
        assert rc.dim == 1 and rc.contains_point(pt(-1, 0))


class TestFaces:
    def test_square_edges(self):
        assert len(square2d().faces(1)) == 4

    def test_segment_top_face(self):
        seg = VPolytope.from_points([pt(0, 0), pt(1, 0)])
        fs = seg.faces(1)
        assert len(fs) == 1 and set(fs[0].vertices) == {pt(0, 0), pt(1, 0)}

    def test_point(self):
        p = VPolytope.from_points([pt(2, 3)])
        assert len(p.faces(0)) == 1

    def test_diamond_property_cube(self):
        cube = VPolytope.from_points([pt(a, b, c) for a in (0, 1) for b in (0, 1)
                                      for c in (0, 1)])
        lattice = cube.face_vertex_sets()
        verts = lattice[0]
        faces2 = lattice[2]
        for v in verts:
            for f in faces2:
                if v <= f:
                    between = [e for e in lattice[1] if v <= e and e <= f]
                    assert len(between) == 2

    def test_hexagon_face_counts(self):
        hexa = VPolytope.from_points([pt(2, 0), pt(1, 2), pt(-1, 2), pt(-2, 0),
                                      pt(-1, -2), pt(1, -2)])
        assert len(hexa.faces(0)) == 6 and len(hexa.faces(1)) == 6


class TestDualCone:
    def test_segment_whole_face(self):
        gamma = VPolytope.from_points([pt(0, 0), pt(1, 0)])  # [0,1] in C^1*
        cone = dual_cone(gamma, gamma)
        # imaginary axis {x1 = 0}
        assert cone.dim == 1
        assert cone.contains_point(pt(0, 5)) and cone.contains_point(pt(0, -5))
        assert not cone.contains_point(pt(1, 0))

    def test_vertex_halfplane(self):
        gamma = VPolytope.from_points([pt(0, 0), pt(1, 0)])
        v = VPolytope.from_points([pt(1, 0)])
        cone = dual_cone(gamma, v)
        assert cone.dim == 2
        assert cone.contains_point(pt(3, 1)) and not cone.contains_point(pt(-1, 0))

    def test_point_polytope(self):
        gamma = VPolytope.from_points([pt(2, 1)])
        cone = dual_cone(gamma, gamma)
        assert cone.dim == 2 and not cone.ineq and not cone.eq

    def test_dimension_complement(self):
        gamma = square2d()
        for m in (0, 1, 2):
            for f in gamma.faces(m):
                assert dual_cone(gamma, f).dim == 2 - m

    def test_dual_cones_partition(self):
        gamma = square2d()
        cones = [dual_cone(gamma, f) for m in (0, 1, 2) for f in gamma.faces(m)]
        probes = [pt(1, 1), pt(-2, 3), pt(0, 1), pt(F(1, 3), F(-1, 7)), pt(0, 0)]
        for q in probes:
            hits = [c for c in cones if c.contains_point(q)]
            assert hits  # cones cover the plane
        top = [c for c in cones if c.dim == 2]
        for a, b in combinations(top, 2):
            inter = a.intersect(b).canonical()
            assert inter.is_empty() or inter.dim < 2  # interiors disjoint


class TestVolumeMultivector:
    def test_unit_segment(self):
        seg = VPolytope.from_points([pt(0, 0), pt(1, 0)])
        p = volume_multivector(seg, (pt(1, 0),))
        assert p == Alt(1, {(0,): F(1)})

    def test_unit_square(self):
        p = volume_multivector(square2d(), (pt(1, 0), pt(0, 1)))
        assert p == Alt(2, {(0, 1): F(1)})

    def test_triangle_half(self):
        tri = VPolytope.from_points([pt(0, 0), pt(1, 0), pt(0, 1)])
        p = volume_multivector(tri, (pt(1, 0), pt(0, 1)))
        assert p == Alt(2, {(0, 1): F(1, 2)})

    def test_odd_under_flip(self):
        seg = VPolytope.from_points([pt(0, 0), pt(1, 0)])
        p = volume_multivector(seg, (pt(-1, 0),))
        assert p == Alt(1, {(0,): F(-1)})


class TestRefinement:
    def test_crossing_lines(self):
        xline = HPoly(2, eq=[((F(1), F(0)), F(0))]).canonical()
        yline = HPoly(2, eq=[((F(0), F(1)), F(0))]).canonical()
        X = PolyhedralSet.from_cells(1, 2, [xline])
        Y = PolyhedralSet.from_cells(1, 2, [yline])
        px, py, refined = common_refinement(X, Y)
        assert len(refined.cells) == 4  # four rays
        refined.validate_face_to_face()

    def test_idempotent_on_equal_input(self):
        xline = HPoly(2, eq=[((F(1), F(0)), F(0))]).canonical()
        X = PolyhedralSet.from_cells(1, 2, [xline])
        px, py, refined = common_refinement(X, X)
        assert len(refined.cells) == 1

    def test_parallel_lines_unmerged(self):
        a = HPoly(2, eq=[((F(1), F(0)), F(0))]).canonical()
        b = HPoly(2, eq=[((F(1), F(0)), F(1))]).canonical()
        X = PolyhedralSet.from_cells(1, 2, [a])
        Y = PolyhedralSet.from_cells(1, 2, [b])
        _, _, refined = common_refinement(X, Y)
        assert len(refined.cells) == 2

    def test_split_square_by_diagonal(self):
        sq = square2d().to_hpoly()
        pieces = split_by_hyperplanes(sq, [((F(1), F(-1)), F(0))])
        assert len(pieces) == 2
        assert sum(VPolytope.from_points(p.vertices()).volume() for p in pieces) == 1

    def test_split_empty_cell_has_no_pieces(self):
        empty = HPoly(2, ineq=[((F(1), F(0)), F(0)), ((F(-1), F(0)), F(-1))])
        assert split_by_hyperplanes(empty, [((F(0), F(1)), F(0))]) == []


class TestLocalization:
    def test_square_boundary_at_corner(self):
        sq = square2d().to_hpoly()
        edges = [f for f, _ in sq.facets_with_normals()]
        corner = pt(0, 0)
        cones = [f.localized_cone(corner) for f in edges if f.contains_point(corner)]
        assert len(cones) == 2
        for c in cones:
            assert c.dim == 1 and c.contains_point(pt(0, 0))

    def test_edge_localization_is_line(self):
        sq = square2d().to_hpoly()
        edge = sq.smallest_face_at(pt(0, F(1, 2)))
        cone = edge.localized_cone(pt(0, F(1, 2)))
        assert cone.dim == 1
        assert cone.contains_point(pt(0, 1)) and cone.contains_point(pt(0, -1))

    def test_fan_localizes_to_itself(self):
        ray = HPoly(2, eq=[((F(0), F(1)), F(0))], ineq=[((F(-1), F(0)), F(0))]).canonical()
        loc = ray.localized_cone(pt(0, 0))
        assert loc.same_set(ray)


class TestTriangulateCell:
    def test_square_volume(self):
        sq = square2d().to_hpoly()
        simplices = triangulate(sq.vertices())
        total = F(0)
        for s in simplices:
            v0 = s[0]
            mat = [[a - b for a, b in zip(v, v0)] for v in s[1:]]
            total += abs(det(mat)) / 2
        assert total == 1


class TestRandomFaceLattice:
    def test_diamond_property_random_3_polytopes(self):
        import random
        rng = random.Random(97)
        for _ in range(3):
            pts = set()
            while len(pts) < 7:
                pts.add((F(rng.randint(-3, 3)), F(rng.randint(-3, 3)),
                         F(rng.randint(-3, 3))))
            poly = VPolytope.from_points(list(pts))
            if poly.dim != 3:
                continue
            lattice = poly.face_vertex_sets()
            for v in lattice[0]:
                for f in lattice[2]:
                    if v <= f:
                        between = [e for e in lattice[1] if v <= e and e <= f]
                        assert len(between) == 2


class TestLPAgainstEnumeration:
    def test_random_bounded_lp_matches_vertex_enumeration(self):
        import random
        from etv.lp import solve_lp
        rng = random.Random(31337)
        for _ in range(25):
            d = rng.randint(2, 3)
            box = [([F(1) if j == i else F(0) for j in range(d)], F(rng.randint(1, 3)))
                   for i in range(d)]
            box += [([F(-1) if j == i else F(0) for j in range(d)], F(rng.randint(0, 3)))
                    for i in range(d)]
            cuts = []
            for _ in range(rng.randint(0, 3)):
                coeffs = [F(rng.randint(-2, 2)) for _ in range(d)]
                if any(coeffs):
                    cuts.append((coeffs, F(rng.randint(-1, 4))))
            poly = HPoly(d, ineq=box + cuts).canonical()
            obj = [F(rng.randint(-3, 3)) for _ in range(d)]
            res = poly.maximize(obj)
            if poly.is_empty():
                assert res.status == "infeasible"
                continue
            best = max(sum(c * x for c, x in zip(obj, v)) for v in poly.vertices())
            assert res.status == "optimal" and res.value == best


class TestCanonicalMemo:
    def test_unit_square_lp_count(self, lp_calls):
        polyhedra._CANONICAL_MEMO.clear()
        # x <= 1, -x <= 0, y <= 1, -y <= 0.  The origin is in the square: no
        # emptiness LP, and x <= 1, y <= 1 are slack there.  The scan LP of
        # -x <= 0 returns the vertex (1, 0), tight on -y <= 0, so that row
        # gets a scan LP too: 2 scan LPs, then one redundancy LP per row
        square = HPoly(2, ineq=UNIT_SQUARE).canonical()
        assert lp_calls[0] == 2 + 4
        again = HPoly(2, ineq=UNIT_SQUARE[::-1] + UNIT_SQUARE[:1]).canonical()
        assert lp_calls[0] == 2 + 4 and again.key == square.key

    def test_memo_is_capped_first_in_first_out(self):
        polyhedra._CANONICAL_MEMO.clear()
        cap = polyhedra._CANONICAL_MEMO_CAP
        halfspaces = [HPoly(1, ineq=[((F(1),), F(k))]) for k in range(cap + 20)]
        for h in halfspaces:
            h.canonical()
            assert len(polyhedra._CANONICAL_MEMO) <= cap
        keys = [(1, frozenset(), frozenset(h.ineq)) for h in halfspaces]
        assert keys[0] not in polyhedra._CANONICAL_MEMO
        assert keys[-1] in polyhedra._CANONICAL_MEMO

    def test_empty_input_is_remembered(self, lp_calls):
        polyhedra._CANONICAL_MEMO.clear()
        rows = [((F(1),), F(0)), ((F(-1),), F(-1))]
        assert HPoly(1, ineq=rows).canonical().is_empty()
        calls = lp_calls[0]
        assert HPoly(1, ineq=rows[::-1]).canonical().is_empty()
        assert lp_calls[0] == calls


class TestTangentMemo:
    def test_memo_is_capped_first_in_first_out(self):
        polyhedra._TANGENT_MEMO.clear()
        cap = polyhedra._TANGENT_MEMO_CAP
        lines = [HPoly(2, eq=[((F(1), F(k)), F(0))]).canonical() for k in range(cap + 20)]
        for line in lines:
            assert len(line.tangent_basis) == 1
            assert len(polyhedra._TANGENT_MEMO) <= cap
        keys = [(2, tuple(a for a, _ in line.eq)) for line in lines]
        assert keys[0] not in polyhedra._TANGENT_MEMO
        assert keys[-1] in polyhedra._TANGENT_MEMO

    def test_cells_of_one_hull_direction_share_one_basis(self):
        polyhedra._TANGENT_MEMO.clear()
        hull = [((F(0), F(0), F(1)), F(0))]
        square = [(a + (F(0),), b) for a, b in UNIT_SQUARE]
        strip = HPoly(3, hull, square[:2]).canonical()
        square = HPoly(3, hull, square).canonical()
        assert strip.key != square.key
        assert strip.tangent_basis is square.tangent_basis

    def test_memo_equals_a_fresh_kernel_on_every_corpus_cone(self, polytope_corpus):
        cones = [cone for _, gamma in polytope_corpus for k in valid_k_range(gamma)
                 for _, cone, _ in dual_fan_etp(gamma, k, validate=False).face_map]
        assert len({(c.ambient, c.eq) for c in cones}) > 20
        polyhedra._TANGENT_MEMO.clear()
        for memo in ("cold", "warm"):
            for cone in cones:
                fresh = tuple(kernel_basis([a for a, _ in cone.eq], cone.ambient))
                again = HPoly(cone.ambient, cone.eq, cone.ineq, _canonical=True)
                assert again.tangent_basis == fresh, memo


small = st.integers(-2, 2)
row3 = st.tuples(st.tuples(small, small, small), small)


@settings(max_examples=40, deadline=None)
@given(eq=st.lists(row3, max_size=2), ineq=st.lists(row3, min_size=1, max_size=5),
       data=st.data())
def test_canonical_key_ignores_order_duplicates_and_positive_scaling(eq, ineq, data):
    def frac(rows):
        return [(tuple(F(x) for x in a), F(b)) for a, b in rows]

    def variant(rows):
        if not rows:
            return rows
        extra = data.draw(st.lists(st.sampled_from(rows), max_size=2))
        rows = data.draw(st.permutations(rows + extra))
        scales = data.draw(st.lists(st.fractions(min_value=F(1, 3), max_value=3),
                                    min_size=len(rows), max_size=len(rows)))
        return [(tuple(t * x for x in a), t * b) for t, (a, b) in zip(scales, rows)]

    eq, ineq = frac(eq), frac(ineq)
    polyhedra._CANONICAL_MEMO.clear()
    key = HPoly(3, eq, ineq).canonical().key
    eq2, ineq2 = variant(eq), variant(ineq)
    assert HPoly(3, eq2, ineq2).canonical().key == key  # warm memo
    polyhedra._CANONICAL_MEMO.clear()
    assert HPoly(3, eq2, ineq2).canonical().key == key  # cold memo


def _split_by_straddle_lps(cell, hyperplanes):
    """Reference split that decides every cut by a min/max LP pair."""
    pieces = [cell.canonical()]
    for a, b in hyperplanes:
        nxt = []
        for piece in pieces:
            lo, hi = piece.minimize(a), piece.maximize(a)
            if (lo.status == "unbounded" or lo.value < b) and \
                    (hi.status == "unbounded" or hi.value > b):
                nxt.extend(p for p in (piece.with_constraint(a, b).canonical(),
                                       piece.with_constraint(tuple(-x for x in a), -b)
                                       .canonical()) if not p.is_empty())
            else:
                nxt.append(piece)
        pieces = nxt
    return pieces


class TestSplitOwnWalls:
    def test_own_walls_cost_no_lp(self, lp_calls):
        sq = square2d().to_hpoly()
        walls = hyperplanes_of_cells([sq])
        walls += [(tuple(-x for x in a), -b) for a, b in walls]
        lp_calls[0] = 0
        assert split_by_hyperplanes(sq, walls) == [sq]
        assert lp_calls[0] == 0

    @pytest.mark.parametrize("cell", [
        square2d().to_hpoly(),
        VPolytope.from_points([pt(0, 0, 0), pt(2, 0, 0), pt(0, 2, 0)]).to_hpoly(),
        dual_cone(square2d(), VPolytope.from_points([pt(1, 1)])),
    ])
    def test_pieces_match_straddle_lps(self, cell):
        gamma = VPolytope.from_points([pt(0, 0), pt(1, 0), pt(0, 1)])
        hyps = [((F(1), F(-1)), F(0)), ((F(1), F(1)), F(1)), ((F(0), F(1)), F(1, 2))]
        hyps += hyperplanes_of_cells([dual_cone(gamma, f) for f in gamma.faces(1)])
        if cell.ambient == 3:
            hyps = [(a + (F(1),), b) for a, b in hyps]
        hyps += hyperplanes_of_cells([cell])
        pieces = split_by_hyperplanes(cell, hyps)
        # every piece keeps its own walls uncut, and the cuts are the reference's
        for piece in pieces:
            for a, b in piece.eq + piece.ineq:
                assert split_by_hyperplanes(piece, [(a, b)]) == [piece]
        assert sorted(repr(p.key) for p in pieces) == \
            sorted(repr(p.key) for p in _split_by_straddle_lps(cell, hyps))
        assert len(pieces) > 1


# ---------------------------------------------------------------------------
# facets from the known hull against one canonical() per facet

def _facets_by_canonical(cell):
    """Reference facets: a full `canonical()` of the cell with each row made
    an equality, kept when nonempty of dimension one less than the cell."""
    out = []
    for a, b in cell.ineq:
        f = HPoly(cell.ambient, cell.eq + ((a, b),), cell.ineq).canonical()
        if not f.is_empty() and f.dim == cell.dim - 1:
            out.append((f, (a, b)))
    return out


def _fresh(cell):
    """A copy of a canonical cell with none of its lazy values computed."""
    out = HPoly(cell.ambient, cell.eq, cell.ineq, _canonical=True)
    out._empty = False
    return out


def _assert_faces_match_reference(cell):
    """Facets, keys, normals and order agree with the reference on the cell
    and on all of its faces; returns the number of cells compared."""
    frontier, seen = [cell], {cell.key}
    while frontier:
        nxt = []
        for c in frontier:
            got = _fresh(c).facets_with_normals()
            want = _facets_by_canonical(c)
            assert [(f.key, row) for f, row in got] == [(f.key, row) for f, row in want]
            for f, _ in got:
                assert f._canonical and not f.is_empty() and f.dim == c.dim - 1
                if f.key not in seen:
                    seen.add(f.key)
                    nxt.append(f)
        frontier = nxt
    return len(seen)


class TestFacetsFromHull:
    def test_dual_fan_cells_match_reference(self, polytope_corpus):
        compared = 0
        for _, gamma in polytope_corpus:
            for k in valid_k_range(gamma):
                for cell in dual_fan_etp(gamma, k, validate=False).framed_rep().cells:
                    compared += _assert_faces_match_reference(cell.poly)
        assert compared >= 400

    def test_corner_locus_cells_match_reference(self, polytope_corpus):
        compared = 0
        for _, gamma in polytope_corpus:
            for lc in linearity_complex(support_function(gamma)):
                compared += _assert_faces_match_reference(lc.poly)
        assert compared >= 250

    @settings(max_examples=60, deadline=None)
    @given(rows=region(), cuts=st.lists(st.tuples(normal, coord), max_size=2), plane=planes)
    def test_random_cells_match_reference(self, rows, cuts, plane):
        rows = rows + [((F(u), F(v)), F(d)) for (u, v), d in cuts]
        cell = plane_cell(rows, plane)
        if not cell.is_empty():
            _assert_faces_match_reference(cell)

    def test_no_canonical_no_emptiness_lp(self, polytope_corpus, lp_calls, monkeypatch):
        cube = _fresh(VPolytope.from_points([pt(a, b, c) for a in (0, 1) for b in (0, 1)
                                             for c in (0, 1)]).to_hpoly())
        hexagon = dict(polytope_corpus)["hexagon"]
        cells = [_fresh(hexagon.to_hpoly())] + [
            _fresh(c.poly) for k in valid_k_range(hexagon)
            for c in dual_fan_etp(hexagon, k, validate=False).framed_rep().cells]

        def forbidden(*args):
            raise AssertionError("facets built through canonical() or is_empty()")

        with monkeypatch.context() as m:
            m.setattr(HPoly, "canonical", forbidden)
            m.setattr(HPoly, "is_empty", forbidden)
            lp_calls[0] = 0
            cube_facets = cube.facets_with_normals()
            # one redundancy LP for each of the 4 side rows of each of 6 facets
            assert lp_calls[0] == 24
            lp_calls[0] = 0
            for c in cells:
                c.facets_with_normals()
            hexagon_lps = lp_calls[0]
        assert len(cube_facets) == 6 and all(f.dim == 2 for f, _ in cube_facets)
        # the polygon's 6 edges see 4 side rows each (the opposite edge is
        # parallel); each 2-cone edge sees only the other ray's row, which is
        # alone and so irredundant without an LP; rays see none
        assert hexagon_lps == 6 * 4


# ---------------------------------------------------------------------------
# faces of an H-polyhedron by one descent against the hull lattice

class TestHPolyFaces:
    def test_corpus_faces_match_hull_lattice_and_row_choices(self, polytope_corpus):
        compared = 0
        for _, gamma in polytope_corpus:
            cell = gamma.to_hpoly()
            lattice = gamma.face_vertex_sets()
            for d in range(-1, gamma.dim + 2):
                faces = cell.faces(d)
                want = {frozenset(gamma.vertices[i] for i in s) for s in lattice.get(d, ())}
                assert len(faces) == len(want)
                assert len({f.key for f in faces}) == len(faces)
                assert all(f.dim == d for f in faces)
                assert {frozenset(f.vertices()) for f in faces} == want
                assert all(f.vertices() == ref.cell_vertices(f) for f in faces)
                compared += len(faces)
            assert cell.vertices() == sorted(gamma.vertices)
        assert compared >= 150

    @settings(max_examples=60, deadline=None)
    @given(rows=region(), cuts=st.lists(st.tuples(normal, coord), max_size=2), plane=planes)
    def test_random_cells_vertices_match_row_choices(self, rows, cuts, plane):
        rows = rows + [((F(u), F(v)), F(d)) for (u, v), d in cuts]
        cell = plane_cell(rows, plane)
        if cell.is_empty():
            assert cell.faces(0) == [] and cell.vertices() == []
        elif cell.is_bounded():
            assert cell.vertices() == ref.cell_vertices(cell)
        else:
            with pytest.raises(ValueError):
                cell.vertices()

    def test_cone_with_lineality(self):
        # {x >= 0, y >= 0} in R^3: a 2-cone times the z-axis
        wedge = HPoly(3, ineq=[((F(-1), F(0), F(0)), F(0)),
                               ((F(0), F(-1), F(0)), F(0))]).canonical()
        assert wedge.faces(3) == [wedge]
        halves = wedge.faces(2)
        assert len(halves) == 2 and all(len(h.ineq) == 1 for h in halves)
        (axis,) = wedge.faces(1)
        assert axis.ineq == () and axis.dim == 1
        assert axis.same_set(HPoly(3, eq=[((F(1), F(0), F(0)), F(0)),
                                          ((F(0), F(1), F(0)), F(0))]))
        assert wedge.faces(0) == [] and wedge.faces(4) == []
        with pytest.raises(ValueError):
            wedge.vertices()

    def test_faces_need_canonical_form(self):
        with pytest.raises(ValueError):
            HPoly(2, ineq=UNIT_SQUARE).faces(0)


# ---------------------------------------------------------------------------
# one hull per point set against a new chart and hull per face

def _other_basis(basis):
    """Another basis of the same space: the first vector times -2, every
    later one plus its predecessor (determinant -2)."""
    out = [tuple(-2 * x for x in basis[0])]
    out += [tuple(a + b for a, b in zip(basis[i], basis[i - 1]))
            for i in range(1, len(basis))]
    return out


def _chart_volume(simplex, origin, basis):
    """Volume of a simplex in the chart of `basis`."""
    coords = [coords_in_basis(basis, tuple(a - b for a, b in zip(p, origin)))
              for p in simplex]
    return abs(det([[a - b for a, b in zip(c, coords[0])] for c in coords[1:]])) / \
        factorial(len(basis))


def _assert_triangulates(points):
    """The simplices are points of the set, of the hull's dimension, and
    their chart volumes add up to the reference hull volume."""
    pts = sorted(set(points))
    coords, origin, basis = ref.chart(pts)
    simplices = triangulate(points)
    assert simplices and all(set(s) <= set(pts) for s in simplices)
    for s in simplices:
        assert len(s) == len(basis) + 1
        assert rank([tuple(a - b for a, b in zip(p, s[0])) for p in s[1:]]) == len(basis)
    total = sum((_chart_volume(s, origin, basis) for s in simplices), F(0)) if basis \
        else F(1)
    assert total == ref.volume_of_full_dim(coords)
    return total


def _assert_matches_reference(points):
    """Lattice, volume, volume multivectors and triangulation of the point
    list (repeats and non-vertices allowed) against the reference."""
    assert VPolytope.from_points(points).vertices == tuple(ref.extreme_points(points))
    poly = VPolytope(vertices=tuple(points))
    assert poly.face_vertex_sets() == ref.face_vertex_sets(list(points))
    assert poly.volume() == ref.volume_of_full_dim(ref.chart(list(points))[0])
    basis = list(poly.tangent_basis)
    assert volume_multivector(poly, basis) == ref.volume_multivector(poly, basis)
    if basis:
        other = _other_basis(basis)
        assert volume_multivector(poly, other) == ref.volume_multivector(poly, other)
    total = _assert_triangulates(points)
    assert volume(points) == (total if len(basis) == len(points[0]) else 0)


@st.composite
def point_sets(draw):
    """Up to 7 lattice points in R^1-R^4 on an affine image of Z^k, k <= d,
    so flat sets are common, with repeats and non-vertices."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(0, d))
    image = [draw(st.tuples(*[small] * d)) for _ in range(k)]
    shift = draw(st.tuples(*[small] * d))
    pts = []
    for c in draw(st.lists(st.tuples(*[small] * k), min_size=1, max_size=6)):
        pts.append(tuple(F(s + sum(ci * v[j] for ci, v in zip(c, image)))
                         for j, s in enumerate(shift)))
    return pts + draw(st.lists(st.sampled_from(pts), max_size=1))


class TestOneHullPerPointSet:
    def test_corpus_faces_match_reference(self, polytope_corpus):
        compared = 0
        for _, gamma in polytope_corpus:
            for m in range(gamma.dim + 1):
                for face in gamma.faces(m):
                    _assert_matches_reference(list(face.vertices))
                    compared += 1
        assert compared >= 150

    def test_corpus_cells_triangulate_like_reference(self, polytope_corpus):
        for _, gamma in polytope_corpus:
            for m in range(gamma.dim + 1):
                for face in gamma.faces(m):
                    cell = face.to_hpoly()
                    basis = list(cell.tangent_basis)
                    if not basis:
                        continue
                    origin = cell.vertices()[0]

                    def total(simplices):
                        return sum(_chart_volume(s, origin, basis) for s in simplices)
                    assert total(triangulate(cell.vertices())) == \
                        total(ref.triangulate_cell(cell)) > 0

    @settings(max_examples=80, deadline=None)
    @given(points=point_sets())
    def test_point_sets_match_reference(self, points):
        _assert_matches_reference(points)

    def test_vertices_need_no_lp(self, polytope_corpus, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("vertices found by an LP")

        monkeypatch.setattr(polyhedra, "solve_lp", forbidden)
        for _, gamma in polytope_corpus:
            v = gamma.vertices
            mids = [tuple((a + b) / 2 for a, b in zip(p, q)) for p, q in zip(v, v[1:])]
            assert VPolytope.from_points(list(v) + mids + list(v)).vertices == v
            assert gamma.minkowski(gamma).vertices == gamma.scale(2).vertices

    def test_one_hull_per_call(self, monkeypatch):
        calls = [0]
        hull = polyhedra._hull_facets

        def counting(points):
            calls[0] += 1
            return hull(points)

        monkeypatch.setattr(polyhedra, "_hull_facets", counting)
        cube = [pt(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        flat = [pt(a, b, a + b, 1) for a in (0, 1, 2) for b in (0, 1)]
        for points in (cube, flat):
            calls[0] = 0
            VPolytope(vertices=tuple(points)).face_vertex_sets()
            assert calls[0] == 1
            calls[0] = 0
            triangulate(points)
            assert calls[0] == 1


# ---------------------------------------------------------------------------
# LPs skipped at known points, against the reference canonical form

def _lp_kind(record, ambient):
    """emptiness (zero objective), scan (a row minimized), slack (the
    max-slack LP, one variable more than the ambient space) or redundancy
    (a row maximized) LP, from one record of `lp_kinds`."""
    maximize, nonzero, width = record
    if not maximize:
        return "scan" if nonzero else "emptiness"
    return "slack" if width == ambient + 1 else "redundancy"


@pytest.fixture
def lp_kinds(monkeypatch):
    """(maximize, nonzero objective, number of variables) of each LP that
    `etv.polyhedra` solves, in order."""
    records = []
    solve = polyhedra.solve_lp

    def recording(objective, *args, **kwargs):
        records.append((kwargs.get("maximize", False), any(objective), len(objective)))
        return solve(objective, *args, **kwargs)

    monkeypatch.setattr(polyhedra, "solve_lp", recording)
    return records


@st.composite
def hpoly_rows(draw):
    """(ambient, eq, ineq) of a small H-polyhedron in R^1 to R^4: random rows,
    optionally all through the origin (a cone), with a row pinched to an
    equality by its negation, a row made empty by a shifted negation, and
    duplicate and positively scaled copies of rows."""
    d = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    row = st.tuples(vec, st.integers(-2, 2))
    eq = draw(st.lists(row, max_size=2))
    ineq = draw(st.lists(row, min_size=1, max_size=6))
    if draw(st.booleans()):
        eq = [(a, 0) for a, _ in eq]
        ineq = [(a, 0) for a, _ in ineq]
    twist = draw(st.sampled_from(["none", "pinch", "empty"]))
    a, b = draw(st.sampled_from(ineq))
    if twist == "pinch":
        ineq.append(([-x for x in a], -b))
    elif twist == "empty":
        ineq.append(([-x for x in a], -b - 1))
    for (a, b), t in draw(st.lists(st.tuples(st.sampled_from(ineq), st.integers(1, 3)),
                                   max_size=2)):
        ineq.append(([t * x for x in a], t * b))
    frac = [(tuple(F(x) for x in a), F(b)) for a, b in ineq]
    return d, [(tuple(F(x) for x in a), F(b)) for a, b in eq], \
        draw(st.permutations(frac))


class TestKnownPointShortcuts:
    @settings(max_examples=150, deadline=None)
    @given(rows=hpoly_rows())
    def test_keys_match_reference(self, rows):
        ambient, eq, ineq = rows
        want = canonical_reference(ambient, eq, ineq)
        polyhedra._CANONICAL_MEMO.clear()
        assert HPoly(ambient, eq, ineq).canonical().key == want.key
        assert HPoly(ambient, eq, ineq).is_empty() == want.is_empty()

    @settings(max_examples=150, deadline=None)
    @given(rows=hpoly_rows())
    def test_full_dimensional_matches_reference(self, rows):
        ambient, _, ineq = rows
        want = canonical_reference(ambient, (), ineq)
        full = want.dim == ambient
        for warm in (False, True):
            polyhedra._CANONICAL_MEMO.clear()
            if warm:  # the memo holds the canonical form of the same input
                HPoly(ambient, (), ineq).canonical()
            got = full_dimensional(ambient, ineq)
            assert (got is not None) == full
            if full:
                assert got.key == want.key
            # a cold call leaves the memo right for `canonical`
            assert HPoly(ambient, (), ineq).canonical().key == want.key

    def test_cone_costs_no_emptiness_lp(self, polytope_corpus, lp_kinds):
        # x + y = 0, x >= 0, z >= 0
        cone = HPoly(3, eq=[((F(1), F(1), F(0)), F(0))],
                     ineq=[((F(-1), F(0), F(0)), F(0)), ((F(0), F(0), F(-1)), F(0))])
        assert not cone.is_empty() and lp_kinds == []
        # the origin misses y <= -1, so the cut cone pays its emptiness LP
        assert not HPoly(3, cone.eq, cone.ineq + (((F(0), F(1), F(0)), F(-1)),)).is_empty()
        assert [_lp_kind(r, 3) for r in lp_kinds] == ["emptiness"]
        cones = 0
        for _, gamma in polytope_corpus:
            for m in range(gamma.dim + 1):
                for face in gamma.faces(m):
                    polyhedra._CANONICAL_MEMO.clear()
                    lp_kinds.clear()
                    dual_cone(gamma, face)
                    assert "emptiness" not in [_lp_kind(r, gamma.ambient) for r in lp_kinds]
                    cones += 1
        assert cones >= 150


# ---------------------------------------------------------------------------
# closed-form affine hulls and tangent cones against their LP construction

def _affine_hull_by_lp(cell):
    return canonical_reference(cell.ambient, cell.eq, ())


def _localized_cone_by_lp(cell, p):
    return canonical_reference(cell.ambient, [(a, F(0)) for a, _ in cell.eq],
                               [(a, F(0)) for a, _ in cell.tight_at(p)])


def _assert_closed_forms_match_lp(cell):
    """The affine hull of the cell and of each of its faces, and the tangent
    cone of each at the relative interior point of each face, against the
    LP construction; the closed forms solve no LP.  Returns the number of
    tangent cones compared."""
    faces = [f for d in range(cell.dim + 1) for f in cell.faces(d)]
    points = [f.relint_point() for f in faces]
    want = [(f, _affine_hull_by_lp(f), [(p, _localized_cone_by_lp(f, p))
                                        for p in points if f.contains_point(p)])
            for f in faces]

    def forbidden(*args, **kwargs):
        raise AssertionError("an LP in a closed-form hull or cone")

    compared = 0
    with pytest.MonkeyPatch.context() as m:
        m.setattr(polyhedra, "solve_lp", forbidden)
        for f, hull, cones in want:
            got = f.affine_hull()
            assert got._canonical and got.key == hull.key
            for p, cone in cones:
                got = f.localized_cone(p)
                assert got._canonical and got.key == cone.key
                compared += 1
    return compared


class TestClosedFormHullAndCone:
    @settings(max_examples=80, deadline=None)
    @given(rows=hpoly_rows())
    def test_random_polyhedra_and_faces(self, rows):
        ambient, eq, ineq = rows
        cell = HPoly(ambient, eq, ineq).canonical()
        if not cell.is_empty():
            assert _assert_closed_forms_match_lp(cell) >= 1

    def test_corpus_fans_and_linearity_cells(self, polytope_corpus):
        compared = 0
        for _, gamma in polytope_corpus:
            cells = [lc.poly for lc in linearity_complex(support_function(gamma))]
            cells += [c.poly for k in valid_k_range(gamma)[:1]
                      for c in dual_fan_etp(gamma, k, validate=False).framed_rep().cells]
            for cell in cells:
                compared += _assert_closed_forms_match_lp(cell)
        assert compared >= 500

    def test_non_canonical_cell(self):
        square = HPoly(2, ineq=UNIT_SQUARE + [((F(1), F(1)), F(5))])
        corner = pt(0, 0)
        assert square.localized_cone(corner).key == \
            _localized_cone_by_lp(square.canonical(), corner).key
        assert square.affine_hull().key == HPoly(2).canonical().key
