"""Tableau families: validation, enumeration, the layer-transfer engine
against enumeration, targeted counts, and the two-entry lattice-path
bijection."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from skewpoly.equivalence import brute_coefficient, enumerate_shapes
from skewpoly.errors import InvalidArg, InvalidBound
from skewpoly.polynomials import dual_grothendieck, grothendieck, schur
from skewpoly.shapes import EMPTY_SHAPE, normalize, parse_shape
from skewpoly.tableaux import (
    Filling,
    LatticePath,
    enumerate_rpp,
    enumerate_ssyt,
    enumerate_svt,
    path_to_rpp12,
    rpp12_to_path,
    rpp_monomial_count,
    ssyt_monomial_count,
    svt_monomial_count,
)

HOOK = normalize((2, 1))
PROFILED = normalize((5, 5, 4, 2, 2, 2), (4, 2, 1, 1, 1))


def small_shapes():
    texts = ["1", "2,1", "2,2", "3,1/1", "2,2/1", "3,2,1/1", "2,1,1", "3,2/2"]
    return st.sampled_from([parse_shape(t) for t in texts])


class TestFillingValidation:
    def test_set_valued_example(self):
        sh = normalize((4, 2, 2))
        f = Filling.from_rows(
            sh,
            "svt",
            [[{1, 2}, {2, 3}, {6}, {9}], [{3}, {5}], [{6}, {6, 7}]],
        )
        assert f.size == 11
        assert f.weight() == {1: 1, 2: 2, 3: 2, 5: 1, 6: 3, 7: 1, 9: 1}

    def test_rpp_column_distinct_weight(self):
        sh = normalize((5, 5, 4), (1, 1))
        f = Filling.from_rows(
            sh, "rpp", [[1, 1, 2, 7], [1, 2, 2, 8], [1, 2, 2, 2]]
        )
        assert f.weight() == {1: 3, 2: 3, 7: 1, 8: 1}

    def test_ssyt_weight_counts_entries(self):
        f = Filling.from_rows(HOOK, "ssyt", [[1, 1], [2]])
        assert f.weight() == {1: 2, 2: 1}

    def test_rejects_weak_column_in_ssyt(self):
        with pytest.raises(InvalidArg):
            Filling.from_rows(HOOK, "ssyt", [[1, 1], [1]])

    def test_rejects_decreasing_row(self):
        with pytest.raises(InvalidArg):
            Filling.from_rows(HOOK, "rpp", [[2, 1], [2]])

    def test_rejects_svt_order_violation(self):
        # max of the left set must not exceed min of the right set
        with pytest.raises(InvalidArg):
            Filling.from_rows(HOOK, "svt", [[{1, 3}, {2}], [{4}]])

    def test_values_accessor(self):
        f = Filling.from_rows(HOOK, "rpp", [[1, 2], [1]])
        assert f.values(1, 2) == (2,)
        assert f.values(2, 1) == (1,)


class TestEnumeration:
    def test_rpp_hook_two_entries(self):
        rows = [
            tuple(f.values(r, c)[0] for r, c in [(1, 1), (1, 2), (2, 1)])
            for f in enumerate_rpp(HOOK, 2)
        ]
        assert len(rows) == 5
        assert len(set(rows)) == 5
        assert set(rows) == {
            (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 2, 2)
        }

    def test_ssyt_hook_two_entries(self):
        fillings = list(enumerate_ssyt(HOOK, 2))
        assert len(fillings) == 2

    def test_svt_sets_and_order(self):
        fillings = list(enumerate_svt(normalize((1,)), 2, 3))
        cells = [f.values(1, 1) for f in fillings]
        assert cells == [(1,), (1, 2), (2,)]

    def test_empty_shape_single_filling(self):
        for stream in (
            enumerate_rpp(EMPTY_SHAPE, 3),
            enumerate_ssyt(EMPTY_SHAPE, 3),
            enumerate_svt(EMPTY_SHAPE, 3, 5),
        ):
            fillings = list(stream)
            assert len(fillings) == 1
            assert fillings[0].weight() == {}

    def test_svt_bound_must_cover_cells(self):
        with pytest.raises(InvalidBound):
            list(enumerate_svt(HOOK, 2, 2))

    @given(small_shapes(), st.integers(min_value=1, max_value=3))
    @settings(deadline=None, max_examples=40)
    def test_no_duplicates(self, shape, max_entry):
        seen = set()
        for f in enumerate_rpp(shape, max_entry):
            assert f not in seen
            seen.add(f)
        ssyt = list(enumerate_ssyt(shape, max_entry))
        assert len(set(ssyt)) == len(ssyt)

    @given(small_shapes())
    @settings(deadline=None, max_examples=20)
    def test_ssyt_within_rpp(self, shape):
        rpps = set(enumerate_rpp(shape, 3))
        ssyt = list(enumerate_ssyt(shape, 3))
        for f in ssyt:
            assert Filling(shape, "rpp", dict(f.cells)) in rpps
        assert len(ssyt) <= len(rpps)


def shapes_upto(cells: int):
    return [sh for n in range(cells + 1) for sh in enumerate_shapes(n)]


def tally(fillings, k, signed_cells=None):
    """Fillings counted by exponent vector in k variables; with
    signed_cells, each carries the sign (-1)**(size - signed_cells)."""
    counts = {}
    for f in fillings:
        w = f.weight()
        vec = tuple(w.get(v, 0) for v in range(1, k + 1))
        sign = -1 if signed_cells is not None and (f.size - signed_cells) % 2 else 1
        counts[vec] = counts.get(vec, 0) + sign
    return counts


def sorted_terms(counts):
    """The counts at weakly decreasing exponent vectors, keyed by
    their exponent partitions: the coefficients of a symmetric series,
    read without dividing by orbit sizes."""
    return {
        tuple(e for e in vec if e): c
        for vec, c in counts.items()
        if c and list(vec) == sorted(vec, reverse=True)
    }


class TestEngine:
    """The layer-transfer engine against enumeration, on every shape up
    to a fixed size."""

    def test_schur_matches_enumeration(self):
        for sh in shapes_upto(6):
            for m in {1, 2, sh.cells}:
                want = sorted_terms(tally(enumerate_ssyt(sh, m), m))
                assert dict(schur(sh, m).terms()) == want, (str(sh), m)

    def test_dual_grothendieck_matches_enumeration(self):
        for sh in shapes_upto(6):
            for m in {1, 2, sh.cells}:
                want = sorted_terms(tally(enumerate_rpp(sh, m), m))
                assert dict(dual_grothendieck(sh, m).terms()) == want, (str(sh), m)

    def test_grothendieck_matches_enumeration(self):
        for sh in shapes_upto(5):
            bound = sh.cells + 2
            for m in range(1, 5):
                fillings = enumerate_svt(sh, m, bound)
                want = sorted_terms(tally(fillings, m, signed_cells=sh.cells))
                assert dict(grothendieck(sh, m, bound).terms()) == want, (str(sh), m)

    def test_targeted_counts_match_enumeration(self):
        vectors = list(itertools.product(range(4), repeat=3))
        for sh in shapes_upto(5):
            rpp = tally(enumerate_rpp(sh, 3), 3)
            ssyt = tally(enumerate_ssyt(sh, 3), 3)
            svt = tally(enumerate_svt(sh, 3, 9), 3)
            for vec in vectors:
                assert rpp_monomial_count(sh, vec) == rpp.get(vec, 0), (str(sh), vec)
                assert ssyt_monomial_count(sh, vec) == ssyt.get(vec, 0), (str(sh), vec)
                assert svt_monomial_count(sh, vec) == svt.get(vec, 0), (str(sh), vec)

    def test_targeted_coefficients_are_symmetric(self):
        # every permutation of an exponent vector has the coefficient
        # that the series stores once, at its sorted key
        vectors = list(itertools.product(range(4), repeat=3))
        for sh in shapes_upto(5):
            series = {
                "s": schur(sh, 3),
                "g": dual_grothendieck(sh, 3),
                "G": grothendieck(sh, 3, 9),
            }
            for kind, poly in series.items():
                for vec in vectors:
                    got = brute_coefficient(sh, kind, vec)
                    assert got == poly.coefficient(vec), (str(sh), kind, vec)


class TestTargetedCounts:
    def test_rpp_counts_on_profiled_shape(self):
        assert rpp_monomial_count(PROFILED, (2, 4)) == 8
        assert rpp_monomial_count(PROFILED, (2, 5)) == 8

    def test_svt_counts_from_known_pair(self):
        a = parse_shape("8,6,4,2/4,1")
        b = parse_shape("8,6,4,2/3,2")
        assert svt_monomial_count(a, (6, 6, 3, 1)) == 353
        assert svt_monomial_count(b, (6, 6, 3, 1)) == 354

    def test_ssyt_count_requires_exact_total(self):
        assert ssyt_monomial_count(HOOK, (2, 2)) == 0  # degree 4 != 3 cells
        assert ssyt_monomial_count(HOOK, (2, 1)) == 1
        assert ssyt_monomial_count(HOOK, (1, 1, 1)) == 2

    @given(small_shapes(), st.lists(st.integers(0, 3), min_size=1, max_size=3))
    @settings(deadline=None, max_examples=30)
    def test_counts_match_enumeration(self, shape, target):
        target = tuple(target)
        k = len(target)

        def exps(f):
            w = f.weight()
            return tuple(w.get(v, 0) for v in range(1, k + 1))

        brute = sum(
            1
            for f in enumerate_rpp(shape, k)
            if exps(f) == target
        )
        assert rpp_monomial_count(shape, target) == brute
        brute_s = sum(
            1 for f in enumerate_ssyt(shape, k) if exps(f) == target
        )
        assert ssyt_monomial_count(shape, target) == brute_s
        size = sum(target)
        if size >= shape.cells:
            brute_v = sum(
                1
                for f in enumerate_svt(shape, k, max(size, shape.cells))
                if exps(f) == target and f.size == size
            )
            assert svt_monomial_count(shape, target) == brute_v


class TestLatticePaths:
    FIGURE = parse_shape("4,3,3,2/2")

    def test_figure_shape_path(self):
        path = LatticePath(self.FIGURE, (4, 3, 0, 0))
        assert path.interior_edges == ((3, 2),)

    def test_heights_must_fall_within_columns(self):
        with pytest.raises(InvalidArg):
            LatticePath(self.FIGURE, (4, 3, 4, 0))
        with pytest.raises(InvalidArg):
            LatticePath(self.FIGURE, (3, 4, 0, 0))  # not weakly decreasing

    def test_total_count_on_figure_shape(self):
        fillings = list(enumerate_rpp(self.FIGURE, 2))
        assert len(fillings) == 48

    def test_round_trip_identity(self):
        for f in enumerate_rpp(self.FIGURE, 2):
            assert path_to_rpp12(rpp12_to_path(f)) == f

    def test_mixed_columns_equal_interior_edges(self):
        for f in enumerate_rpp(self.FIGURE, 2):
            mixed = sum(
                1
                for c, (top, bot) in enumerate(
                    self.FIGURE.column_intervals, 1
                )
                if len({f.values(r, c)[0] for r in range(top, bot + 1)}) == 2
            )
            assert mixed == len(rpp12_to_path(f).interior_edges)

    def test_rejects_larger_entries(self):
        f = Filling.from_rows(HOOK, "rpp", [[1, 3], [1]])
        with pytest.raises(InvalidArg):
            rpp12_to_path(f)

    @given(small_shapes())
    @settings(deadline=None, max_examples=20)
    def test_bijection_on_small_shapes(self, shape):
        fillings = list(enumerate_rpp(shape, 2))
        paths = {rpp12_to_path(f) for f in fillings}
        assert len(paths) == len(fillings)
        for f in fillings:
            assert path_to_rpp12(rpp12_to_path(f)) == f
