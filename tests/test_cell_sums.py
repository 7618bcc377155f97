"""Frames summed per canonical cell, against the references of
`cycle_reference` that locate frames by points, cones and walls."""

import json
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycle_reference as ref
import linearity_reference
import etv.framed as framed
import etv.intersection as intersection
from conftest import corpus_n1, corpus_n2
from etv import jsonio
from etv.cli import main
from etv.dualfan import dual_fan_etp, valid_k_range
from etv.exterior import Alt
from etv.framed import (FramedCell, FramedSet, add, canonicalize, equivalent,
                        irreducible_components, is_etp, is_positive, negate, scale,
                        split_positive, translate, unit_positive_frame)
from etv.intersection import bergman_fan
from etv.monge import (AffineFunc, PLFunction, affine_zero, corner_locus, dc_weighted,
                       linearity_complex)
from etv.polyhedra import HPoly
from etv.scalars import CRat


def _bytes(x):
    return json.dumps(jsonio.framedset_to_json(x), sort_keys=True)


def _shift(ambient):
    return tuple(F(int(j == 0)) for j in range(ambient))


def _random_pl(rng, n, convex):
    def family(size):
        return tuple(dict.fromkeys(
            AffineFunc(tuple(CRat(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(n)),
                       F(rng.randint(-2, 2)))
            for _ in range(size)))
    minus = (affine_zero(n),) if convex else family(2)
    return PLFunction(n, family(rng.randint(2, 3)), minus)


def _pl_functions():
    """60 PL functions on C^1 and C^2, half of them convex."""
    rng = random.Random(8)
    return [_random_pl(rng, 1 + i % 2, convex=i % 4 < 2) for i in range(60)]


@pytest.fixture
def unmerged(monkeypatch):
    """Merging replaced by a pass-through in the library and in the reference,
    so that both return their frame sums as framed sets.  Merging is the same
    `canonicalize` on both sides; on the larger corpus fans it takes seconds
    per call."""
    for module in (framed, intersection, ref):
        monkeypatch.setattr(module, "canonicalize", lambda x, validate=True: x)


def test_sums_match_point_location(polytope_corpus, unmerged):
    """Every corpus fan at every grade: the unmerged per-face fan against the
    merged one, against the negative of the merged one and against a
    translate of the merged one; the recession fans of the merged fan and
    of its translate."""
    verdicts = Counter()
    for name, gamma in polytope_corpus:
        for k in valid_k_range(gamma):
            fan = dual_fan_etp(gamma, k)
            rep, res = fan.framed_rep(), fan.result
            moved = translate(res, _shift(res.framed.ambient))
            for p, q in ((rep, res), (negate(res), rep), (rep, moved)):
                verdict = equivalent(p, q)
                assert verdict == ref.equivalent(p, q), (name, k)
                verdicts[verdict] += 1
                assert _bytes(add(p, q)) == _bytes(ref.add(p, q)), (name, k)
            for x in (res, moved):
                assert _bytes(bergman_fan(x)) == _bytes(ref.bergman_fan(x)), (name, k)
    assert verdicts[True] >= 20 and verdicts[False] >= 40


def test_results_match_point_location(polytope_corpus):
    """Merged results on the fans of C^1, where merging is cheap."""
    for name, gamma in polytope_corpus:
        for k in valid_k_range(gamma) if gamma.ambient == 2 else ():
            fan = dual_fan_etp(gamma, k)
            rep, res = fan.framed_rep(), fan.result
            for p, q in ((rep, res), (negate(res), rep)):
                assert _bytes(add(p, q)) == _bytes(ref.add(p, q)), (name, k)
            moved = translate(res, _shift(res.framed.ambient))
            assert _bytes(bergman_fan(moved)) == _bytes(ref.bergman_fan(moved)), (name, k)


def test_corner_locus_matches_wall_pass():
    nonzero = 0
    for h in _pl_functions():
        locus = corner_locus(h)
        assert _bytes(locus) == _bytes(ref.corner_locus(h)), h
        nonzero += not locus.is_zero()
    assert nonzero >= 50


def test_linearity_walls_are_two_sided():
    """Each facet of a linearity cell is a facet of exactly one other cell,
    so the boundary of the tiling framed by d^c(h) leaves jumps only: in
    the lifted-hull tiling and in the LP tiling of the reference."""
    for h in _pl_functions():
        for tiling in (linearity_complex, linearity_reference.linearity_complex):
            sides = Counter(f.key for lc in tiling(h)
                            for f, _ in lc.poly.facets_with_normals())
            assert set(sides.values()) <= {2}


def test_a_cell_listed_twice_counts_twice(polytope_corpus):
    fan = dual_fan_etp(dict(polytope_corpus)["triangle"], 1).result
    twice = FramedSet(fan.n, fan.k, list(fan.cells()) * 2)
    assert is_etp(twice).ok
    assert equivalent(twice, scale(2, fan))
    assert equivalent(add(twice, fan), scale(3, fan))
    assert equivalent(canonicalize(twice), scale(2, fan))


def _real_line(*factors):
    """The real line of C, listed once per factor, framed by that multiple
    of its positive frame."""
    line = HPoly(2, eq=[((F(0), F(1)), F(0))]).canonical()
    omega = unit_positive_frame(line.tangent_basis, 1)
    return [FramedCell(line, omega.scale(t)) for t in factors]


def test_a_chain_with_nonreal_frames_on_a_repeated_cell():
    """(1+i)w and (1-i)w on the same line are the chain 2w."""
    twice = FramedSet(1, 1, _real_line(CRat(1, 1), CRat(1, -1)))
    assert is_etp(twice).ok
    assert twice.cells == _real_line(2)
    assert equivalent(canonicalize(twice), FramedSet(1, 1, _real_line(2)))


def test_cli_reads_a_repeated_cell_as_the_sum(capsys, tmp_path):
    def write(name, cells):
        obj = {"n": 1, "k": 1, "cells": [entry for c in cells for entry in
                                          jsonio.framedset_to_json(FramedSet(1, 1, [c]))["cells"]]}
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    twice = write("twice.json", _real_line(CRat(1, 1), CRat(1, -1)))
    assert main(["validate-etp", twice]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert main(["equivalent", twice, write("double.json", _real_line(2))]) == 0
    assert json.loads(capsys.readouterr().out)["equivalent"] is True


def test_positivity_reads_the_summed_frame():
    x = FramedSet(1, 1, _real_line(2, -1))
    assert is_positive(x)
    assert split_positive(x)[1].is_zero()


def test_a_repeated_cell_is_one_component():
    components = irreducible_components(FramedSet(1, 1, _real_line(1, 1)))
    assert [c.cells() for c in components] == [_real_line(2)]


def test_weighted_boundary_of_a_cancelled_plane():
    """The plane listed with frames 1 and -1 is the zero chain, on which
    max(0, Re z) is affine wherever it is supported."""
    plane = HPoly(2).canonical()
    x = FramedSet(1, 2, [FramedCell(plane, Alt(0, {(): CRat(t)})) for t in (1, -1)])
    h = PLFunction.convex(1, [affine_zero(1), AffineFunc((CRat(1),), F(0))])
    assert dc_weighted(h, x).is_zero()


_CORPUS_FANS: dict = {}


def _corpus_fan(index):
    grades = [(name, gamma, k) for name, gamma in corpus_n1() + corpus_n2()
              for k in valid_k_range(gamma)]
    name, gamma, k = grades[index % len(grades)]
    if (name, k) not in _CORPUS_FANS:
        _CORPUS_FANS[name, k] = dual_fan_etp(gamma, k).framed_rep()
    return _CORPUS_FANS[name, k]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_split_and_shuffled_frames_sum_back(data):
    """Each frame of a corpus fan split into random rational parts, listed in
    a random order, is the same framed set."""
    fan = _corpus_fan(data.draw(st.integers(0, 10 ** 6)))
    parts = []
    for c in fan.cells:
        shares = data.draw(st.lists(st.fractions(-3, 3, max_denominator=4), max_size=2))
        for t in shares + [1 - sum(shares, F(0))]:
            parts.append(FramedCell(c.poly, c.frame.scale(t)))
    shuffled = FramedSet(fan.n, fan.k, data.draw(st.permutations(parts)))
    assert shuffled.cells == fan.cells


def _refuse(*args):
    raise AssertionError("point location or cone containment called")


_FANS = ["hexagon", "mink-sq-diag", "tri-mixed"]


def _min_grade_fan(corpus, name):
    gamma = dict(corpus)[name]
    return dual_fan_etp(gamma, min(valid_k_range(gamma)))


@pytest.mark.parametrize("name", _FANS)
def test_recession_fan_tests_no_cone_containment(polytope_corpus, monkeypatch, name):
    fan = _min_grade_fan(polytope_corpus, name).result
    moved = translate(fan, _shift(fan.framed.ambient))
    with monkeypatch.context() as m:
        m.setattr(HPoly, "contains_poly", _refuse)
        image = bergman_fan(moved)
    assert equivalent(image, fan)


@pytest.mark.parametrize("name", _FANS)
def test_equivalence_locates_no_points(polytope_corpus, monkeypatch, name):
    fan = _min_grade_fan(polytope_corpus, name)
    moved = translate(fan.result, _shift(fan.result.framed.ambient))
    monkeypatch.setattr(HPoly, "relint_point", _refuse)
    assert equivalent(fan.framed_rep(), fan.result)
    assert not equivalent(moved, fan.result)
