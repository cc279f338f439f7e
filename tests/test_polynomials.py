"""Truncated symmetric polynomials: the three families, comparison
semantics, and the Schur expansion."""

import pytest
from hypothesis import given, settings, strategies as st

from skewpoly.errors import (
    IncomparableTruncation,
    InvalidArg,
    InvalidBound,
)
from skewpoly.polynomials import (
    EXACT,
    PARTIAL_DEGREE,
    PARTIAL_VARS,
    TruncatedSymPoly,
    dual_grothendieck,
    equal,
    grothendieck,
    orbit_size,
    schur,
    schur_expand,
    verify_symmetry,
)
from skewpoly.shapes import EMPTY_SHAPE, normalize, parse_shape

HOOK = normalize((2, 1))
BENT = parse_shape("2,2/1")


def small_shapes():
    texts = ["1", "2,1", "2,2", "2,2/1", "3,1/1", "2,1,1", "3,2/2"]
    return st.sampled_from([parse_shape(t) for t in texts])


class TestConstruction:
    def test_schur_hook(self):
        p = schur(HOOK, 2)
        assert dict(p.terms()) == {(2, 1): 1}
        assert p.complete and p.degree_bound == 3
        p3 = schur(HOOK, 3)
        assert dict(p3.terms()) == {(2, 1): 1, (1, 1, 1): 2}

    def test_dual_grothendieck_hook(self):
        p = dual_grothendieck(HOOK, 3)
        assert dict(p.terms()) == {
            (1, 1): 1,
            (2,): 1,
            (2, 1): 1,
            (1, 1, 1): 2,
        }
        assert p.complete

    def test_grothendieck_bent_strip(self):
        p = grothendieck(BENT, 3, 5)
        assert dict(p.terms()) == {
            (2, 1): 1,
            (1, 1, 1): 2,
            (2, 1, 1): -3,
            (2, 2): -1,
            (2, 2, 1): 2,
        }
        assert not p.complete

    def test_grothendieck_bound_below_cells(self):
        with pytest.raises(InvalidBound):
            grothendieck(HOOK, 2, 2)

    def test_empty_shape(self):
        p = dual_grothendieck(EMPTY_SHAPE, 2)
        assert dict(p.terms()) == {(): 1}

    def test_immutability(self):
        p = schur(HOOK, 2)
        with pytest.raises(AttributeError):
            p.num_vars = 5

    def test_coefficient_access(self):
        p = dual_grothendieck(HOOK, 3)
        assert p.coefficient((2, 1)) == 1
        assert p.coefficient((1, 1, 1, 1)) == 0  # more parts than variables
        assert p.coefficient((4,)) == 0  # beyond bound, complete
        G = grothendieck(HOOK, 2, 4)
        with pytest.raises(InvalidBound):
            G.coefficient((4, 1))  # beyond an incomplete window

    def test_to_text_layout(self):
        text = schur(HOOK, 2).to_text()
        assert text.splitlines()[0] == "vars=2 degree_bound=3 complete=true"
        assert "[2,1] 1" in text


class TestDegreeWindows:
    @given(small_shapes(), st.integers(min_value=1, max_value=4))
    @settings(deadline=None, max_examples=30)
    def test_schur_homogeneous(self, sh, m):
        assert all(sum(k) == sh.cells for k, _ in schur(sh, m).terms())

    @given(small_shapes(), st.integers(min_value=1, max_value=4))
    @settings(deadline=None, max_examples=30)
    def test_dual_degrees_between_cols_and_cells(self, sh, m):
        for key, _ in dual_grothendieck(sh, m).terms():
            assert sh.cols <= sum(key) <= sh.cells

    @given(small_shapes(), st.integers(min_value=1, max_value=3))
    @settings(deadline=None, max_examples=30)
    def test_grothendieck_sign_pattern(self, sh, m):
        for key, c in grothendieck(sh, m, sh.cells + 2).terms():
            assert sum(key) >= sh.cells
            sign = -1 if (sum(key) - sh.cells) % 2 else 1
            assert c * sign > 0

    def test_top_degree_of_dual_matches_schur(self):
        # the degree-cells slice of g is the Schur polynomial
        for sh in (HOOK, BENT, parse_shape("3,2/1")):
            g = dual_grothendieck(sh, sh.cells)
            s = schur(sh, sh.cells)
            top = {k: v for k, v in g.terms() if sum(k) == sh.cells}
            assert top == dict(s.terms())

    def test_bottom_degree_of_grothendieck_matches_schur(self):
        for sh in (HOOK, BENT):
            G = grothendieck(sh, 3, sh.cells + 2)
            bottom = {k: v for k, v in G.terms() if sum(k) == sh.cells}
            assert bottom == dict(schur(sh, 3).terms())


class TestEqualSemantics:
    def test_unequal_reports_first_differing_key(self):
        v = equal(schur(normalize((2,)), 2), schur(normalize((1, 1)), 2))
        assert not v.equal
        assert v.evidence == EXACT
        assert v.witness == (2,)

    def test_exact_when_vars_reach_degree(self):
        v = equal(dual_grothendieck(HOOK, 3), dual_grothendieck(BENT, 3))
        assert v.equal and v.evidence == EXACT

    def test_partial_vars(self):
        v = equal(dual_grothendieck(HOOK, 2), dual_grothendieck(BENT, 2))
        assert v.equal and v.evidence == PARTIAL_VARS and v.budget == 2

    def test_partial_degree_for_truncations(self):
        v = equal(grothendieck(HOOK, 3, 5), grothendieck(BENT, 3, 5))
        assert v.equal
        assert v.evidence == PARTIAL_DEGREE and v.budget == 5

    def test_mixed_complete_and_truncated(self):
        v = equal(schur(HOOK, 3), grothendieck(HOOK, 3, HOOK.cells))
        assert v.equal and v.evidence == PARTIAL_DEGREE

    def test_dual_vs_grothendieck_differ_below_cells(self):
        v = equal(dual_grothendieck(BENT, 3), grothendieck(BENT, 3, 5))
        assert not v.equal
        assert v.evidence == EXACT
        assert v.witness == (1, 1)

    def test_incomparable_truncations(self):
        with pytest.raises(IncomparableTruncation):
            equal(grothendieck(HOOK, 2, 4), grothendieck(HOOK, 2, 5))

    def test_different_variable_counts_restrict(self):
        v = equal(schur(HOOK, 4), schur(HOOK, 2))
        assert v.equal and v.evidence == PARTIAL_VARS and v.budget == 2

    @given(small_shapes(), small_shapes(), st.integers(min_value=1, max_value=3))
    @settings(deadline=None, max_examples=30)
    def test_verdict_symmetric(self, a, b, m):
        va = equal(dual_grothendieck(a, m), dual_grothendieck(b, m))
        vb = equal(dual_grothendieck(b, m), dual_grothendieck(a, m))
        assert va.equal == vb.equal
        assert va.evidence == vb.evidence


class TestArithmetic:
    def test_add_and_scale(self):
        g = dual_grothendieck(HOOK, 3)
        assert dict((g + g).terms()) == {k: 2 * v for k, v in g.terms()}
        assert dict((g * 2).terms()) == dict((g + g).terms())
        assert dict((g - g).terms()) == {}

    def test_restrict_vars(self):
        assert schur(HOOK, 4).restrict_vars(2) == schur(HOOK, 2)

    def test_orbit_arithmetic(self):
        assert orbit_size((2, 1), 3) == 6
        assert orbit_size((1, 1), 3) == 3
        assert orbit_size((2, 2, 1), 2) == 0


class TestSchurExpansion:
    def test_hook_dual_expansion(self):
        assert schur_expand(dual_grothendieck(HOOK, 3)) == {
            (2, 1): 1,
            (2,): 1,
        }

    def test_straight_schur_is_itself(self):
        for text in ("2,1", "3,2", "2,2"):
            sh = parse_shape(text)
            assert schur_expand(schur(sh, sh.cells)) == {sh.outer: 1}

    def test_skew_schur_expansion_round_trip(self):
        sh = parse_shape("3,2/1")
        m = sh.cells
        coeffs = schur_expand(schur(sh, m))
        total = None
        for nu, c in coeffs.items():
            term = schur(normalize(nu), m) * c
            total = term if total is None else total + term
        assert total == schur(sh, m)

    def test_requires_enough_variables(self):
        with pytest.raises(InvalidArg):
            schur_expand(schur(HOOK, 2))

    def test_requires_complete(self):
        with pytest.raises(InvalidArg):
            schur_expand(grothendieck(HOOK, 3, 5))


class TestSymmetryWitness:
    @given(small_shapes(), st.integers(min_value=2, max_value=3))
    @settings(deadline=None, max_examples=15)
    def test_streams_are_symmetric(self, sh, m):
        assert verify_symmetry(sh, "rpp", m)
        assert verify_symmetry(sh, "ssyt", m)
        assert verify_symmetry(sh, "svt", m, sh.cells + 2)
