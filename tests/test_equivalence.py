"""Invariant filter, closed-form coefficients vs the enumeration oracle,
shape enumeration, coincidence search, and the staircase checker."""

import pytest
from hypothesis import given, settings, strategies as st

from skewpoly.equivalence import (
    G_equivalent,
    brute_coefficient,
    check_staircase,
    coeff_reports,
    coeff_two_var,
    coeff_x1cube_x2n,
    coeff_x1cube_x2nm1,
    coeff_x1sq_x2n,
    degree_slice_coeffs,
    enumerate_shapes,
    filter_report,
    fingerprint,
    g_equivalent,
    necessary_filter,
    schur_equivalent_shapes,
    search_coincidences,
    staircase,
    subpartitions,
    two_var_vector,
)
from skewpoly.errors import InvalidArg, InvalidBound
from skewpoly.polynomials import (
    EXACT,
    PARTIAL_DEGREE,
    PARTIAL_VARS,
    dual_grothendieck,
)
from skewpoly.shapes import (
    EMPTY_SHAPE,
    bottleneck_profile,
    normalize,
    parse_shape,
    rotate180,
    shape_syntax,
)

PROFILED = parse_shape("5,5,4,2,2,2/4,2,1,1,1")
RSW_A = parse_shape("6,5,5,3,2,2/4,2,1,1")
RSW_B = parse_shape("6,5,5,4,4,2/4,3,3,1")
STAIR_A = parse_shape("8,6,4,2/3,3,1")
STAIR_B = parse_shape("8,6,4,2/5,1,1")


def shapes_upto(cells: int):
    return [sh for n in range(1, cells + 1) for sh in enumerate_shapes(n)]


class TestFilter:
    def test_schur_equivalent_pair_fails_with_witness(self):
        report = filter_report(RSW_A, RSW_B)
        assert not report.passed
        assert report.reasons == ("b2+b5: 2 vs 1", "b3+b4: 0 vs 1")
        assert not necessary_filter(RSW_A, RSW_B)

    def test_grothendieck_equivalent_pair_fails_with_witness(self):
        report = filter_report(STAIR_A, STAIR_B)
        assert not report.passed
        assert "b4+b5: 1 vs 0" in report.reasons

    def test_rotation_always_passes(self):
        for sh in shapes_upto(5):
            assert necessary_filter(sh, rotate180(sh)), shape_syntax(sh)

    def test_filter_agrees_with_fingerprint(self):
        pool = enumerate_shapes(4)
        for a in pool:
            for b in pool:
                same = fingerprint(a) == fingerprint(b)
                assert necessary_filter(a, b) == same, (a, b)

    def test_cell_count_mismatch(self):
        report = filter_report(parse_shape("2,1"), parse_shape("2,2"))
        assert not report.passed
        assert "cells: 3 vs 4" in report.reasons


class TestClosedForms:
    def test_two_var_vector_of_profiled_example(self):
        assert two_var_vector(PROFILED) == (5, 8, 8)

    def test_two_var_rejects_out_of_range(self):
        with pytest.raises(InvalidArg):
            coeff_two_var(PROFILED, 0)
        with pytest.raises(InvalidArg):
            coeff_two_var(PROFILED, 4)  # above ceil(n/2) = 3

    def test_x1sq_value_on_profiled_example(self):
        # C(6,2) - C(4,2) - C(2,2) = 8
        assert coeff_x1sq_x2n(PROFILED) == 8
        assert brute_coefficient(PROFILED, "g", (2, 5)) == 8

    def test_proved_formulas_exact_on_connected_shapes(self):
        for sh in shapes_upto(6):
            if not sh.connected:
                continue
            n = sh.cols
            for r in range(1, (n + 1) // 2 + 1):
                want = brute_coefficient(sh, "g", (n + 1 - r, r))
                assert coeff_two_var(sh, r) == want, (shape_syntax(sh), r)
            assert coeff_x1sq_x2n(sh) == brute_coefficient(sh, "g", (2, n))

    def test_unproved_x1cube_x2n_matches_small_connected(self):
        for sh in shapes_upto(6):
            if not sh.connected or sh.cols < 1:
                continue
            want = brute_coefficient(sh, "g", (3, sh.cols))
            assert coeff_x1cube_x2n(sh) == want, shape_syntax(sh)

    def test_unproved_x1cube_x2nm1_has_known_counterexamples(self):
        # smallest shapes where the stated closed form disagrees with
        # direct enumeration; the oracle values are authoritative
        sq = parse_shape("2,2")
        assert coeff_x1cube_x2nm1(sq) == 1
        assert brute_coefficient(sq, "g", (3, 1)) == 0
        bent = parse_shape("2,2,1/1")
        assert coeff_x1cube_x2nm1(bent) == -1
        assert brute_coefficient(bent, "g", (3, 1)) == 0

    def test_formulas_fail_off_the_connected_domain(self):
        # the lattice-path arguments behind the closed forms need a
        # connected shape; the minimal disconnected shape breaks them
        disc = parse_shape("2,1/1")
        assert not disc.connected
        assert coeff_two_var(disc, 1) == 1
        assert brute_coefficient(disc, "g", (2, 1)) == 0

    def test_reports_route_and_compare(self):
        reports = coeff_reports(PROFILED, (2, 4))
        assert [r.formula for r in reports] == ["two_var"]
        rep = reports[0]
        assert rep.closed_form == 8 and rep.brute_force == 8 and rep.agrees
        obj = rep.to_json_obj()
        assert obj["agrees"] is True

    def test_brute_coefficient_kinds(self):
        hook = parse_shape("2,1")
        assert brute_coefficient(hook, "s", (1, 1, 1)) == 2
        assert brute_coefficient(hook, "G", (2, 1, 1)) == -3
        with pytest.raises(InvalidArg):
            brute_coefficient(hook, "h", (1,))
        with pytest.raises(InvalidArg):
            brute_coefficient(hook, "g", (2, -1))


class TestShapeEnumeration:
    def test_counts(self):
        assert [len(enumerate_shapes(n)) for n in range(6)] == [
            1,
            1,
            3,
            9,
            28,
            87,
        ]

    def test_zero_cells_is_empty_shape(self):
        assert enumerate_shapes(0) == [EMPTY_SHAPE]

    def test_contains_antidiagonal(self):
        assert normalize((4, 3, 2, 1), (3, 2, 1)) in enumerate_shapes(4)

    def test_all_normalized_and_distinct(self):
        for n in range(1, 6):
            batch = enumerate_shapes(n)
            assert len(set(batch)) == len(batch)
            for sh in batch:
                assert sh.cells == n
                assert normalize(sh.outer, sh.inner) == sh


class TestDeciders:
    def test_filter_rejection_is_exact_evidence(self):
        verdict = g_equivalent(RSW_A, RSW_B)
        assert not verdict.equal and verdict.evidence == EXACT

    def test_rotation_exact_at_full_budget(self):
        sh = parse_shape("3,2/1")
        verdict = g_equivalent(sh, rotate180(sh))
        assert verdict.equal and verdict.evidence == EXACT

    def test_budget_caps_to_partial(self):
        sh = parse_shape("3,2/1")
        verdict = g_equivalent(sh, rotate180(sh), budget_vars=2)
        assert verdict.equal
        assert verdict.evidence == PARTIAL_VARS and verdict.budget == 2

    def test_grothendieck_equivalent_requires_degree_at_least_cells(self):
        with pytest.raises(InvalidBound):
            G_equivalent(STAIR_A, STAIR_B, 2, STAIR_A.cells - 1)

    def test_grothendieck_rotation_partial_degree(self):
        sh = parse_shape("2,2/1")
        verdict = G_equivalent(sh, rotate180(sh), 3, sh.cells + 2)
        assert verdict.equal and verdict.evidence == PARTIAL_DEGREE

    def test_schur_shapes_decider(self):
        verdict = schur_equivalent_shapes(RSW_A, RSW_B, budget_vars=3)
        assert verdict.equal  # Schur-equivalent despite failing the filter


class TestSearch:
    def test_three_cell_classes(self):
        classes = search_coincidences(3, "skew", budget_vars=3)
        got = {
            frozenset(shape_syntax(s) for s in cl.members) for cl in classes
        }
        assert got == {
            frozenset({"3"}),
            frozenset({"1,1,1"}),
            frozenset({"2,1", "2,2/1"}),
            frozenset({"3,1/1", "3,2/2"}),
            frozenset({"2,1,1/1", "2,2,1/1,1"}),
            frozenset({"3,2,1/2,1"}),
        }
        assert all(cl.evidence == EXACT for cl in classes)

    def test_ribbon_class_sizes_at_four_cells(self):
        classes = search_coincidences(4, "ribbon", budget_vars=4)
        assert sorted(len(cl.members) for cl in classes) == [1, 1, 1, 1, 2, 2]

    def test_members_share_counting_invariants(self):
        for cl in search_coincidences(5, "skew", budget_vars=5):
            first = cl.members[0]
            prof = bottleneck_profile(first, max_width=1)
            for other in cl.members[1:]:
                p = bottleneck_profile(other, max_width=1)
                assert other.rows == first.rows
                assert other.cols == first.cols
                assert other.cells == first.cells
                assert p.sum_b == prof.sum_b

    def test_g_classes_refine_schur_classes(self):
        for cl in search_coincidences(5, "skew", budget_vars=5):
            first = cl.members[0]
            for other in cl.members[1:]:
                assert schur_equivalent_shapes(first, other, 5).equal

    def test_representative_is_sorted_first(self):
        for cl in search_coincidences(4, "skew", budget_vars=4):
            syntaxes = sorted(shape_syntax(s) for s in cl.members)
            assert shape_syntax(cl.representative) == syntaxes[0]

    def test_singleton_buckets_build_no_polynomial(self, monkeypatch):
        import skewpoly.equivalence as equivalence

        built = []
        real = equivalence.dual_grothendieck

        def counting(shape, m):
            built.append(shape)
            return real(shape, m)

        monkeypatch.setattr(equivalence, "dual_grothendieck", counting)
        classes = search_coincidences(5, "skew", budget_vars=3)
        buckets = {}
        for sh in enumerate_shapes(5):
            buckets.setdefault(fingerprint(sh), []).append(sh)
        shared = [sh for group in buckets.values() if len(group) > 1 for sh in group]
        assert sorted(built, key=shape_syntax) == sorted(shared, key=shape_syntax)
        singles = [cl for cl in classes if len(buckets[cl.fingerprint]) == 1]
        assert singles
        for cl in singles:
            assert cl.evidence == PARTIAL_VARS and cl.budget == 3

    def test_class_records_serialize(self):
        cl = search_coincidences(3, "skew", budget_vars=3)[0]
        obj = cl.to_json_obj()
        assert obj["evidence"] == EXACT
        assert obj["members"]


class TestStaircase:
    def test_subpartition_count(self):
        assert staircase(3) == (2, 1)
        assert len(list(subpartitions(staircase(3)))) == 5

    def test_subpartitions_are_contained(self):
        limit = (3, 1)
        subs = list(subpartitions(limit))
        assert () in subs and limit in subs
        padded = limit + (0,) * 5
        for mu in subs:
            assert all(m <= padded[i] for i, m in enumerate(mu))

    def test_small_staircases_pass(self):
        report = check_staircase(3)
        assert report.n == 3 and len(report.cases) == 5
        assert report.passed and report.violations == ()
        for case in report.cases:
            assert case.g_verdict.equal and case.G_verdict.equal

    def test_requires_n_at_least_two(self):
        with pytest.raises(InvalidArg):
            check_staircase(1)


class TestDegreeSlices:
    def test_slice_matches_full_polynomial(self):
        sh = parse_shape("3,2/1")
        poly = dual_grothendieck(sh, sh.cells)
        for d in range(sh.cols, sh.cells + 1):
            want = {k: v for k, v in poly.terms() if sum(k) == d}
            assert degree_slice_coeffs(sh, d) == want

    def test_empty_cases(self):
        assert degree_slice_coeffs(EMPTY_SHAPE, 0) == {(): 1}
        assert degree_slice_coeffs(parse_shape("2,1"), 1) == {}

    @given(st.sampled_from(shapes_upto(4)))
    @settings(deadline=None, max_examples=20)
    def test_slices_sum_to_monomial_total(self, sh):
        from skewpoly.polynomials import orbit_size

        poly = dual_grothendieck(sh, sh.cells)
        total = sum(
            c * orbit_size(k, sh.cells) for k, c in poly.terms()
        )
        by_slice = 0
        for d in range(0, sh.cells + 1):
            for k, c in degree_slice_coeffs(sh, d).items():
                by_slice += c * orbit_size(k, sh.cells)
        assert by_slice == total
