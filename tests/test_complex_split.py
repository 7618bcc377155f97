"""The complex split of a tangent space against its first construction.

`etv.exterior.complex_split` takes E & JE as the kernel of the annihilator
of E and of its image under J, and the quotient basis from one greedy scan;
`tests/orientation_reference.py` intersects the row spaces of E and JE and
picks both bases by rank calls.  The tests compare the complex bases,
quotient bases, `Pushforward` fields and `is_etp` witnesses on every cell
of the corpus dual fans, on corner loci of PL functions, on the cells of a
mixed product in C^3 and on random subspaces, with valid and corrupted
frames, and count the calls the split saves.
"""

import random
import sys
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orientation_reference as oref
from etv import exterior, framed, intersection, polyhedra
from etv.dualfan import dual_fan_etp, valid_k_range
from etv.exterior import (Alt, ComplexSplit, complex_split, max_complex_subspace,
                          quotient_pushforward)
from etv.framed import FramedCell, FramedSet, cell_sign, is_etp
from etv.intersection import generic_shift, product, transversal_intersection
from etv.linalg import rank
from etv.monge import (AffineFunc, PLFunction, affine_zero, corner_locus,
                       embed_real, mixed_volume_via_ma, support_function)
from etv.polyhedra import VPolytope
from etv.scalars import CRat


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_same_split(basis, frame=None):
    """Same complex basis, quotient basis and pushforward as the reference."""
    c_ref, degenerate = oref.max_complex_subspace(list(basis))
    assert max_complex_subspace(list(basis)) == (c_ref, degenerate)
    split = _outcome(complex_split, basis)
    quotient = [] if degenerate else _outcome(oref.oriented_quotient_basis, basis, c_ref)
    if isinstance(quotient, tuple):  # the token reverses a complex E
        assert split == quotient
        return
    assert split.degenerate == degenerate
    assert list(split.complex_basis) == c_ref == oref.standard_complex_basis(c_ref)
    assert list(split.quotient_basis) == quotient
    if frame is not None:
        assert _outcome(quotient_pushforward, frame, basis) == \
            _outcome(oref.pushforward, frame, basis)


def _corrupted(frame: Alt, n: int):
    """The frame times i, and the frame plus each unit term of its degree."""
    return [frame.scale(CRat(0, 1))] + [frame + Alt(frame.degree, {key: CRat(1)})
                                        for key in combinations(range(n), frame.degree)]


def _corpus_fans(polytope_corpus):
    return [dual_fan_etp(gamma, k, validate=False)
            for _, gamma in polytope_corpus for k in valid_k_range(gamma)]


class TestCorpusFans:
    def test_every_cone_at_every_grade(self, polytope_corpus):
        cones = 0
        for fan in _corpus_fans(polytope_corpus):
            for _, cone, frame in fan.face_map:
                assert_same_split(cone.tangent_basis, frame)
                cones += 1
            rep = fan.framed_rep()
            assert is_etp(rep) == oref.is_etp(rep)
        assert cones > 100

    def test_corrupted_frames(self, polytope_corpus):
        # a complex-linear form that is real on E kills C_E, so every frame
        # that fails the kill check fails the realness check first
        witnesses, kills = set(), set()
        for fan in _corpus_fans(polytope_corpus):
            rep = fan.framed_rep()
            for i, c in enumerate(rep.cells):
                if c.frame.is_zero() or complex_split(c.poly.tangent_basis).degenerate:
                    continue
                for bad in _corrupted(c.frame, rep.n):
                    assert_same_split(c.poly.tangent_basis, bad)
                    kill = quotient_pushforward(bad, c.poly.tangent_basis).kills_complex
                    # so `is_etp` needs no kill check of its own
                    assert kill or not exterior.restrict(bad, list(c.poly.tangent_basis))[1]
                    kills.add(kill)
                    cells = list(rep.cells)
                    cells[i] = FramedCell(c.poly, bad)
                    x = FramedSet(rep.n, rep.k, cells)
                    got = is_etp(x)
                    assert got == oref.is_etp(x)
                    witnesses.add(got.witness)
        assert kills == {True, False}
        assert any(w and w.endswith("restriction not real-valued") for w in witnesses)


def _random_pl(rng, n):
    def affine():
        w = tuple(CRat(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n))
        return AffineFunc(w=w, c=F(rng.randint(-2, 2)))
    plus = [affine_zero(n)] + [affine() for _ in range(rng.randint(1, 3))]
    minus = [affine() for _ in range(rng.randint(0, 1))]
    return PLFunction(n, tuple(plus), tuple(minus))


class TestCornerLoci:
    def test_random_pl_functions(self):
        rng = random.Random(11)
        checked = 0
        for n in (1,) * 8 + (2,) * 4:
            locus = corner_locus(_random_pl(rng, n))
            for c in locus.cells():
                assert_same_split(c.poly.tangent_basis, c.frame)
                checked += 1
            assert is_etp(locus.framed) == oref.is_etp(locus.framed)
        assert checked > 10


class TestMixedProduct:
    def test_cells_of_a_product_in_c3(self):
        bodies = [[(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 0, 0), (0, 0, 1)],
                  [(1, 0, 0), (2, 1, 1)]]
        loci = [corner_locus(support_function(embed_real(
            [tuple(map(F, p)) for p in b]))) for b in bodies]
        p12 = product(loci[0], loci[1])
        p123 = product(p12, loci[2])
        assert not p123.is_zero()
        for rep in loci + [p12, p123]:
            for c in rep.cells():
                assert_same_split(c.poly.tangent_basis, c.frame)
            assert is_etp(rep.framed) == oref.is_etp(rep.framed)


entry = st.integers(-2, 2)


@st.composite
def subspace_and_form(draw):
    """A random basis in R^{2n}, n = 1..3, and a random complex form of the
    degree of its quotient when it has one."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 2 * n))
    basis = [tuple(F(draw(entry)) for _ in range(2 * n)) for _ in range(k)]
    c_ref, degenerate = oref.max_complex_subspace(basis)
    m = k - len(c_ref)
    terms = {key: CRat(draw(entry), draw(entry))
             for key in combinations(range(n), m) if draw(st.booleans())}
    return basis, Alt(m, terms)


class TestRandomSubspaces:
    @settings(max_examples=300, deadline=None)
    @given(case=subspace_and_form())
    @example(case=([(F(1), F(0), F(0), F(0)), (F(0), F(1), F(0), F(0))], Alt(0)))
    @example(case=([(F(0), F(1)), (F(1), F(0))], Alt(0, {(): CRat(1)})))
    @example(case=([(F(1), F(0), F(0), F(0)), (F(0), F(1), F(0), F(0)),
                    (F(0), F(0), F(1), F(0))], Alt(1, {(1,): CRat(0, 1)})))
    def test_same_split_and_pushforward(self, case):
        basis, form = case
        if rank(basis) < len(basis):
            c_ref, degenerate = oref.max_complex_subspace(basis)
            assert max_complex_subspace(basis) == (c_ref, degenerate)
            split = _outcome(complex_split, basis)
            assert isinstance(split, ComplexSplit) == degenerate  # else dependent
            return
        assert_same_split(basis, form)

    def test_degenerate_and_complex_examples(self):
        e = [tuple(F(int(i == j)) for j in range(6)) for i in range(6)]
        assert complex_split([e[0], e[2]]).degenerate             # k < n
        assert complex_split(e[:4]).degenerate                    # C^2 in C^3
        assert complex_split([e[0], e[2], e[4]]) == ComplexSplit(False, (), (e[0], e[2], e[4]))
        assert complex_split(e[:5]) == ComplexSplit(False, tuple(e[:4]), (e[4],))
        assert complex_split(e) == ComplexSplit(False, tuple(e), ())
        with pytest.raises(ValueError, match="orientation conflicts"):
            complex_split([e[1], e[0]] + e[2:])


class TestSplitMemo:
    def test_memo_is_capped_first_in_first_out(self):
        exterior._SPLIT_MEMO.clear()
        cap = exterior._SPLIT_MEMO_CAP
        lines = [((F(1), F(k)),) for k in range(cap + 20)]  # real lines in C^1
        for line in lines:
            assert complex_split(line) == ComplexSplit(False, (), line)
            assert len(exterior._SPLIT_MEMO) <= cap
        assert lines[0] not in exterior._SPLIT_MEMO
        assert lines[-1] in exterior._SPLIT_MEMO

    def test_memo_equals_a_fresh_split_on_every_corpus_basis(self, polytope_corpus):
        bases = {cone.tangent_basis: None for fan in _corpus_fans(polytope_corpus)
                 for _, cone, _ in fan.face_map}
        # each basis and its reverse, which orients E the other way when E
        # has odd dimension
        bases = list(bases) + [basis[::-1] for basis in bases]
        exterior._SPLIT_MEMO.clear()
        for memo in ("cold", "warm"):
            for basis in bases:
                assert _outcome(complex_split, basis) == \
                    _outcome(exterior._complex_split, basis), memo


class TestCallCounts:
    def test_mixed_volume_computes_each_split_and_kernel_once(self, monkeypatch):
        """One mixed volume of a triangle and two segments in R^3 meets the
        same few tangent spaces on many fresh cells: each split and each
        tangent kernel is computed once."""
        splits, kernels = [], []
        split, kernel = exterior.max_complex_subspace, polyhedra.kernel_basis

        def counting_split(basis):
            splits.append(tuple(basis))
            return split(basis)

        def counting_kernel(rows, ncols, *args):
            # hull facets take kernels too; count those of tangent bases
            if sys._getframe(1).f_code.co_name == "tangent_basis":
                kernels.append((tuple(map(tuple, rows)), ncols))
            return kernel(rows, ncols, *args)

        monkeypatch.setattr(exterior, "max_complex_subspace", counting_split)
        monkeypatch.setattr(polyhedra, "kernel_basis", counting_kernel)
        for module in (exterior, polyhedra):
            for name, memo in vars(module).items():
                if name.endswith("_MEMO"):
                    memo.clear()
        bodies = [[(1, 0, -1), (2, 0, -1), (1, 1, -1)], [(0, 0, 0), (0, 1, 1)],
                  [(-1, 1, 0), (0, 1, 1)]]
        assert mixed_volume_via_ma(*[embed_real([tuple(map(F, p)) for p in b])
                                     for b in bodies]) == F(1, 6)
        assert len(splits) == len(set(splits)) > 5
        assert len(kernels) == len(set(kernels)) > 5

    def test_is_etp_never_restricts(self, polytope_corpus, monkeypatch):
        fans = [fan.framed_rep() for fan in _corpus_fans(polytope_corpus)]

        def refuse(*args):
            raise AssertionError("is_etp called restrict")

        monkeypatch.setattr(exterior, "restrict", refuse)
        monkeypatch.setattr(framed, "restrict", refuse, raising=False)
        assert all(is_etp(rep).ok for rep in fans)

    def test_cell_sign_evaluates_once(self, monkeypatch):
        fan = dual_fan_etp(VPolytope.from_points(
            [tuple(map(F, p)) for p in ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0))]), 3)
        evaluate = exterior.evaluate_cform
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return evaluate(*args)

        monkeypatch.setattr(exterior, "evaluate_cform", counting)
        for c in fan.result.cells():
            assert complex_split(c.poly.tangent_basis).complex_basis  # C_E != 0
            calls[0] = 0
            assert cell_sign(c.frame, c.poly.tangent_basis) == 1
            assert calls[0] == 1

    def test_transversal_intersection_signs_each_parent_once(self, polytope_corpus,
                                                             monkeypatch):
        corpus = dict(polytope_corpus)
        x = dual_fan_etp(corpus["tri-mixed"], 3).result
        y = dual_fan_etp(corpus["simplex3"], 3).result
        shifted = y.framed.translated(generic_shift(x, y, seed=3).shift)
        signed = [0]

        def counting(frame, tangent_basis):
            signed[0] += 1
            return cell_sign(frame, tangent_basis)

        monkeypatch.setattr(intersection, "cell_sign", counting)
        inter = transversal_intersection(x, shifted)
        assert len(inter.support_cells()) == 10  # from 3 x 6 parent cells
        assert signed[0] == len(x.cells()) + len(y.cells())  # one per parent cell
