"""Region merging and facet-index components against the pairwise oracles of
`merge_reference`, over the corpus fans at every valid grade and the corner
loci of their support functions; components of a set that is not
face-to-face; and one cycle built two ways."""

import json
from fractions import Fraction as F

import pytest

import etv.monge as monge
import merge_reference as ref
from etv import jsonio
from etv.dualfan import dual_fan_etp, valid_k_range
from etv.exterior import Alt
from etv.framed import (FramedCell, FramedSet, canonicalize, equivalent,
                        irreducible_components, is_etp, translate)
from etv.intersection import bergman_fan
from etv.monge import AffineFunc, PLFunction, affine_zero, corner_locus, support_function
from etv.polyhedra import HPoly
from etv.scalars import CRat


def _ridges(n):
    """max(0, x1, 2 x1 - 2, 3 x1 - 6) on C^n: three parallel walls."""
    def func(slope, c):
        return AffineFunc((CRat(slope),) + (CRat(0),) * (n - 1), F(c))
    return PLFunction.convex(n, [affine_zero(n), func(1, 0), func(2, -2), func(3, -6)])


def _partition(components):
    return {frozenset(c.poly.key for c in cells) for cells in components}


@pytest.fixture(scope="module")
def outputs(polytope_corpus):
    """(new, oracle) outputs: every corpus fan at every valid grade, then the
    corner locus of every corpus support function and of two ridges."""
    fans = [dual_fan_etp(gamma, k, validate=False).framed_rep()
            for _, gamma in polytope_corpus for k in valid_k_range(gamma)]
    pairs = [(canonicalize(rep, validate=False), ref.canonicalize(rep, validate=False))
             for rep in fans]
    functions = [support_function(gamma) for _, gamma in polytope_corpus]
    functions += [_ridges(1), _ridges(2)]
    loci = [corner_locus(h) for h in functions]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(monge, "canonicalize", ref.canonicalize)
        pairs += zip(loci, [corner_locus(h) for h in functions])
    return pairs


def test_equivalent_to_pairwise_and_never_more_cells(outputs):
    fewer = 0
    for new, old in outputs:
        assert equivalent(new, old)
        assert len(new.cells()) <= len(old.cells())
        fewer += len(new.cells()) < len(old.cells())
    assert fewer >= 10


def test_components_match_intersection_lps(outputs):
    assert max(len(irreducible_components(new)) for new, _ in outputs) == 3
    for new, old in outputs:
        comps = irreducible_components(new)
        assert _partition(c.cells() for c in comps) == \
            _partition(ref.irreducible_components(new))
        # merging keeps the support connected the same way
        assert len(comps) == len(ref.irreducible_components(old))


def _quadrants(x0):
    """The four quadrants of the plane around (x0, 0), each with frame 1."""
    frame = Alt(0, {(): CRat(1)})
    return [FramedCell(HPoly(2, ineq=[((F(sx), F(0)), F(sx * x0)),
                                      ((F(0), F(sy)), F(0))]).canonical(), frame)
            for sx in (1, -1) for sy in (1, -1)]


def test_components_join_only_across_whole_facets():
    """Two quadrant fans, one shifted along the x axis: the first quadrant of
    one meets the fourth of the other along [0, 1] x {0}, part of a facet of
    each.  The intersection LPs join them; the facet index does not, so the
    set, which is not face-to-face, has one component per fan."""
    x = FramedSet(1, 2, _quadrants(0) + _quadrants(1))
    assert is_etp(x).ok
    assert len(ref.irreducible_components(x)) == 1
    comps = irreducible_components(x)
    assert _partition(c.cells() for c in comps) == \
        {frozenset(c.poly.key for c in _quadrants(x0)) for x0 in (0, 1)}


def _bytes(x):
    return json.dumps(jsonio.framedset_to_json(x), sort_keys=True)


def test_fan_and_recession_fan_of_its_translate_agree(polytope_corpus):
    """One class built two ways gives one representative, byte for byte."""
    shift = (F(1, 2), F(-1), F(3, 2), F(-2))
    for name, gamma in polytope_corpus:
        for k in valid_k_range(gamma):
            fan = dual_fan_etp(gamma, k).result
            moved = translate(fan, shift[:gamma.ambient])
            assert _bytes(bergman_fan(moved)) == _bytes(fan), (name, k)
