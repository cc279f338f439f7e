"""Equivalence deciders and coincidence search over skew shapes.

The pipeline is filter-then-build: cheap invariants that g-equal
shapes provably share (cell, row, and column counts; the bottleneck
pair sums b_i + b_{n-i+1}; the sum of squared bottleneck counts; the
multisets of k-row overlap compositions, which even Schur equality
forces) run before any polynomial is built, and a mismatch certifies
inequality outright.

Closed-form coefficient formulas in the bottleneck data are provided
alongside a brute-force count of the tableaux of one weight, the
oracle; the report type carries both values so a disagreement is
surfaced rather than absorbed (two of the formulas are empirical, so
the oracle is authoritative).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from math import comb
from typing import Iterator, Sequence

from .errors import InvalidArg, InvalidBound
from .polynomials import (
    EXACT,
    PARTIAL_VARS,
    EqualityVerdict,
    dual_grothendieck,
    equal,
    grothendieck,
    schur,
)
from .shapes import (
    EMPTY_SHAPE,
    Partition,
    SkewShape,
    bottleneck_profile,
    normalize,
    shape_syntax,
    transpose,
)
from .tableaux import RPP, SET_VALUED, SSYT, _coefficient

Fingerprint = tuple


def fingerprint(shape: SkewShape) -> Fingerprint:
    """Invariants shared by g-equivalent shapes, as one hashable key.

    (cells, rows, columns, bottleneck pair sums, sum of squared
    bottleneck counts, row length multiset, sorted k-row overlap
    multisets for k from 2 to the row count).
    """
    prof = bottleneck_profile(shape, max_width=1)
    lengths = tuple(sorted(l - m for l, m in zip(shape.outer, shape.inner_padded)))
    overlaps = tuple(
        tuple(sorted(shape.row_overlaps(k))) for k in range(2, shape.rows + 1)
    )
    return (
        shape.cells,
        shape.rows,
        shape.cols,
        prof.pair_sums,
        prof.sum_b_squares,
        lengths,
        overlaps,
    )


@dataclass(frozen=True)
class FilterReport:
    """Outcome of the necessary-condition filter, with the violated
    invariants spelled out when it rejects."""

    passed: bool
    reasons: tuple[str, ...] = ()


def filter_report(a: SkewShape, b: SkewShape) -> FilterReport:
    if a.cells != b.cells:
        return FilterReport(False, (f"cells: {a.cells} vs {b.cells}",))
    if a.rows != b.rows:
        return FilterReport(False, (f"rows: {a.rows} vs {b.rows}",))
    if a.cols != b.cols:
        return FilterReport(False, (f"columns: {a.cols} vs {b.cols}",))
    pa = bottleneck_profile(a, max_width=1)
    pb = bottleneck_profile(b, max_width=1)
    n = a.cols
    reasons = []
    for i, (u, v) in enumerate(zip(pa.pair_sums, pb.pair_sums), 1):
        if u != v:
            j = n - i + 1
            name = f"b{i}+b{j}" if j != i else f"b{i}"
            reasons.append(f"{name}: {u} vs {v}")
    if reasons:
        return FilterReport(False, tuple(reasons))
    if pa.sum_b_squares != pb.sum_b_squares:
        return FilterReport(
            False,
            (f"sum of squared bottlenecks: {pa.sum_b_squares} vs {pb.sum_b_squares}",),
        )
    la = sorted(l - m for l, m in zip(a.outer, a.inner_padded))
    lb = sorted(l - m for l, m in zip(b.outer, b.inner_padded))
    if la != lb:
        return FilterReport(False, ("row length multisets differ",))
    for k in range(2, a.rows + 1):
        if sorted(a.row_overlaps(k)) != sorted(b.row_overlaps(k)):
            return FilterReport(
                False, (f"row overlap multisets differ at height {k}",)
            )
    return FilterReport(True)


def necessary_filter(a: SkewShape, b: SkewShape) -> bool:
    """True unless some invariant certifies that the shapes are not
    g-equivalent."""
    return filter_report(a, b).passed


def _pair_sums(shape: SkewShape) -> tuple[int, ...]:
    return bottleneck_profile(shape, max_width=1).pair_sums


def coeff_two_var(shape: SkewShape, r: int) -> int:
    """Closed form for the coefficient of x1^r x2^(n-r+1) in g.

    With k = ceil(n/2), pair sums f_i (the middle one being b_k alone
    for odd n), the value is (m-1) + sum over j of (min(j, r)-1) f_j.
    The derivation assumes r <= n-r+1, so r beyond ceil(n/2) is
    rejected; by symmetry that coefficient is t_{n-r+1}.
    """
    n = shape.cols
    k = (n + 1) // 2
    if not 1 <= r <= k:
        raise InvalidArg(f"r must be between 1 and {k}, got {r}")
    f = _pair_sums(shape)
    total = shape.rows - 1
    for j in range(2, k + 1):
        total += (min(j, r) - 1) * f[j - 1]
    return total


def coeff_x1sq_x2n(shape: SkewShape) -> int:
    """Closed form for the coefficient of x1^2 x2^n in g:
    C(m,2) - sum C(b_i+1, 2)."""
    b = bottleneck_profile(shape, max_width=1).b
    return comb(shape.rows, 2) - sum(comb(bi + 1, 2) for bi in b)


def coeff_x1cube_x2nm1(shape: SkewShape) -> int:
    """Closed form for the coefficient of x1^3 x2^(n-1) in g.

    Stated without proof in terms of the width-1 and width-2
    bottleneck counts; the brute-force oracle is authoritative where
    they disagree.  Needs at least two columns.
    """
    n = shape.cols
    if n < 2:
        raise InvalidArg(f"the formula needs at least 2 columns, got {n}")
    m = shape.rows
    prof = bottleneck_profile(shape, max_width=2)
    b = prof.b
    b2 = prof.wide[2]
    mu1_height = len(shape.inner)
    lam_n_height = sum(1 for part in shape.outer if part >= n)
    total = comb(m, 2) - sum(comb(bi + 1, 2) for bi in b)
    total += sum(comb(b2[i - 1] + 1, 2) for i in range(2, n - 1))
    total += (m - 2) * sum(b[i - 1] for i in range(2, n))
    penalty = b[1] * (m - mu1_height - 1)
    penalty += b[n - 2] * (lam_n_height - 1)
    penalty += sum(b[i - 1] * b[i] for i in range(2, n - 1))
    return total - penalty


def coeff_x1cube_x2n(shape: SkewShape) -> int:
    """Closed form for the coefficient of x1^3 x2^n in g.

    Stated without proof; the brute-force oracle is authoritative
    where they disagree.
    """
    n = shape.cols
    if n < 1:
        raise InvalidArg("the formula needs at least one column")
    m = shape.rows
    prof = bottleneck_profile(shape, max_width=min(2, n))
    b = prof.b
    b2 = prof.wide.get(2, ())
    total = comb(m + 1, 3)
    for i in range(1, n + 1):
        bi = b[i - 1]
        total -= (m - 1) * comb(bi + 1, 2) - 2 * comb(bi, 3) - bi * (bi - 1)
    for i in range(1, n):
        total -= (
            comb(b2[i - 1] + 2, 3)
            + (b[i - 1] + b[i]) * comb(b2[i - 1] + 1, 2)
            + b[i - 1] * b2[i - 1] * b[i]
        )
    return total


_FAMILIES = {"s": SSYT, "g": RPP, "G": SET_VALUED}


def brute_coefficient(shape: SkewShape, kind: str, exps: Sequence[int]) -> int:
    """Coefficient of x1^e1 x2^e2 ... counted over tableaux of exactly
    that weight.

    kind is "s", "g", or "G"; the G value carries the sign
    (-1)**(degree - cells).
    """
    if kind not in _FAMILIES:
        raise InvalidArg(f"unknown polynomial kind {kind!r}")
    return _coefficient(shape, _FAMILIES[kind], exps)


@dataclass(frozen=True)
class CoeffFormulaReport:
    """A closed-form coefficient value next to its brute-force oracle."""

    shape: SkewShape
    monomial: tuple[int, ...]
    formula: str
    closed_form: int
    brute_force: int

    @property
    def agrees(self) -> bool:
        return self.closed_form == self.brute_force

    def to_json_obj(self) -> dict:
        return {
            "shape": shape_syntax(self.shape),
            "monomial": list(self.monomial),
            "formula": self.formula,
            "closed_form": self.closed_form,
            "brute_force": self.brute_force,
            "agrees": self.agrees,
        }


def coeff_reports(shape: SkewShape, exps: Sequence[int]) -> list[CoeffFormulaReport]:
    """Evaluate every closed form that covers the given g-monomial and
    pair each with the brute-force value.

    Exponent patterns covered: (r, n-r+1) for the degree-(n+1) family,
    and the degree-(n+2) and -(n+3) pairs {2,n}, {3,n-1}, {3,n}.  Small
    column counts can match several families at once; each match is
    reported.  The brute-force value is counted once, and only when
    some closed form matches.
    """
    target = tuple(exps)
    if any(e < 0 for e in target):
        raise InvalidArg(f"exponents must be nonnegative, got {target}")
    n = shape.cols
    forms = []
    if len(target) == 2 and all(e >= 1 for e in target):
        p, q = target
        if p + q == n + 1:
            forms.append(("two_var", coeff_two_var(shape, min(p, q))))
        if {p, q} == {2, n} and p + q == n + 2:
            forms.append(("x1sq_x2n", coeff_x1sq_x2n(shape)))
        if n >= 2 and {p, q} == {3, n - 1} and p + q == n + 2:
            forms.append(("x1cube_x2nm1", coeff_x1cube_x2nm1(shape)))
        if {p, q} == {3, n} and p + q == n + 3:
            forms.append(("x1cube_x2n", coeff_x1cube_x2n(shape)))
    if not forms:
        return []
    oracle = brute_coefficient(shape, "g", target)
    return [
        CoeffFormulaReport(shape, target, name, value, oracle)
        for name, value in forms
    ]


def _var_budget(cells: int, budget_vars: int | None) -> int:
    """Variables to compare polynomials of a shape with this many cells
    in: the cell count, capped by the budget, and at least 1 unless the
    shape is empty."""
    m = cells if budget_vars is None else min(budget_vars, cells)
    return max(m, 1) if cells else 0


def g_equivalent(
    a: SkewShape, b: SkewShape, budget_vars: int | None = None
) -> EqualityVerdict:
    """Decide g-equality of two shapes.

    The necessary filter runs first; a rejection is a certified
    negative with no polynomial built.  Otherwise the dual stable
    Grothendieck polynomials are compared in min(budget_vars, cells)
    variables, which is exact when that reaches the cell count.
    """
    if not necessary_filter(a, b):
        return EqualityVerdict(equal=False, evidence=EXACT)
    m = _var_budget(a.cells, budget_vars)
    return equal(dual_grothendieck(a, m), dual_grothendieck(b, m))


def G_equivalent(
    a: SkewShape, b: SkewShape, budget_vars: int, budget_degree: int
) -> EqualityVerdict:
    """Compare stable Grothendieck truncations of two shapes.

    G equality is only semi-decidable by truncation, so an equal
    verdict always carries partial-degree evidence; a difference
    inside the window is a certified negative.  The g filter does not
    apply here: shapes can be G-equivalent while failing it.
    """
    if budget_degree < max(a.cells, b.cells):
        raise InvalidBound(
            f"degree budget {budget_degree} is below the cell count"
            f" {max(a.cells, b.cells)}"
        )
    return equal(
        grothendieck(a, budget_vars, budget_degree),
        grothendieck(b, budget_vars, budget_degree),
    )


def schur_equivalent_shapes(
    a: SkewShape, b: SkewShape, budget_vars: int | None = None
) -> EqualityVerdict:
    """Compare skew Schur polynomials in min(budget_vars, cells)
    variables (exact at the cell count)."""
    m = _var_budget(max(a.cells, b.cells), budget_vars)
    return equal(schur(a, m), schur(b, m))


def enumerate_shapes(cells: int) -> list[SkewShape]:
    """All normalized skew shapes with the given cell count.

    A normalized shape is determined by its row intervals read bottom
    to top: the bottom row starts in column 1, starts and ends weakly
    increase going up, and each row starts at most one column past the
    end of the row below (no empty column).  The recursion walks
    exactly those sequences, so every shape appears once.
    """
    if cells < 0:
        raise InvalidArg(f"cell count must be nonnegative, got {cells}")
    if cells == 0:
        return [EMPTY_SHAPE]
    out: list[SkewShape] = []

    def build(rows_below: list[tuple[int, int]], remaining: int) -> None:
        if remaining == 0:
            intervals = rows_below[::-1]
            outer = tuple(e for _, e in intervals)
            inner = tuple(s - 1 for s, _ in intervals if s > 1)
            out.append(SkewShape(outer, inner))
            return
        s_lo, e_below = rows_below[-1]
        for s in range(s_lo, e_below + 2):
            e_min = max(e_below, s)
            for e in range(e_min, s + remaining):
                if e - s + 1 <= remaining:
                    build(rows_below + [(s, e)], remaining - (e - s + 1))

    for e in range(1, cells + 1):
        build([(1, e)], cells - e)
    return out


@dataclass(frozen=True)
class EquivClass:
    """A set of shapes with pairwise-equal g, plus the shared
    fingerprint and the weakest evidence used to merge members."""

    representative: SkewShape
    members: tuple[SkewShape, ...]
    fingerprint: Fingerprint
    evidence: str
    budget: int | None = None

    def to_json_obj(self) -> dict:
        return {
            "representative": shape_syntax(self.representative),
            "members": [shape_syntax(s) for s in self.members],
            "size": len(self.members),
            "evidence": self.evidence,
            "budget": self.budget,
        }


def _resolve_bucket(
    shapes: tuple[SkewShape, ...], budget_vars: int | None
) -> list[tuple[tuple[SkewShape, ...], str, int | None]]:
    """Group one fingerprint bucket into exact-equality classes of the
    g polynomials at the budgeted variable count.

    A bucket of one shape is its own class, and its g is not built; its
    evidence still records the variable budget.
    """
    groups: dict[tuple | None, list[SkewShape]] = {}
    evidence = EXACT
    budget = None
    for shape in shapes:
        m = _var_budget(shape.cells, budget_vars)
        if m < shape.cells:
            evidence = PARTIAL_VARS
            budget = m
        key = tuple(dual_grothendieck(shape, m).terms()) if len(shapes) > 1 else None
        groups.setdefault(key, []).append(shape)
    out = []
    for members in groups.values():
        members.sort(key=shape_syntax)
        out.append((tuple(members), evidence, budget))
    return out


def search_coincidences_iter(
    cells: int,
    shape_class: str = "skew",
    budget_vars: int | None = None,
    jobs: int | None = None,
    time_limit: float | None = None,
) -> Iterator[EquivClass]:
    """Stream the g-equality classes of all shapes of one size.

    Shapes are bucketed by fingerprint (shapes in different buckets
    are certifiably inequivalent), then each bucket is split by
    comparing the polynomials themselves.  Buckets resolve in sorted
    fingerprint order, one emitted class at a time, so long sweeps
    produce output incrementally; a time limit stops cleanly at a
    bucket boundary.
    """
    if shape_class == "skew":
        shapes = enumerate_shapes(cells)
    elif shape_class == "ribbon":
        from .ribbons import all_ribbons

        shapes = [r.shape for r in all_ribbons(cells)]
        if cells == 0:
            shapes = [EMPTY_SHAPE]
    else:
        raise InvalidArg(f"unknown shape class {shape_class!r}")
    buckets: dict[Fingerprint, list[SkewShape]] = {}
    for shape in shapes:
        buckets.setdefault(fingerprint(shape), []).append(shape)
    ordered = sorted(buckets.items(), key=lambda kv: kv[0])
    tasks = [tuple(sorted(v, key=shape_syntax)) for _, v in ordered]
    resolve = partial(_resolve_bucket, budget_vars=budget_vars)
    start = time.monotonic()

    def emit(fp: Fingerprint, groups) -> Iterator[EquivClass]:
        for members, evidence, budget in groups:
            yield EquivClass(
                representative=members[0],
                members=members,
                fingerprint=fp,
                evidence=evidence,
                budget=budget,
            )

    if jobs and jobs > 1 and len(tasks) > 1:
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            for (fp, _), groups in zip(
                ordered, pool.imap(resolve, tasks)
            ):
                yield from emit(fp, groups)
                if time_limit is not None and time.monotonic() - start > time_limit:
                    return
    else:
        for (fp, _), task in zip(ordered, tasks):
            yield from emit(fp, resolve(task))
            if time_limit is not None and time.monotonic() - start > time_limit:
                return


def search_coincidences(
    cells: int,
    shape_class: str = "skew",
    budget_vars: int | None = None,
    jobs: int | None = None,
) -> list[EquivClass]:
    """All g-equality classes of one size, sorted by representative."""
    classes = list(
        search_coincidences_iter(cells, shape_class, budget_vars, jobs)
    )
    classes.sort(key=lambda c: shape_syntax(c.representative))
    return classes


def subpartitions(limit: Partition) -> Iterator[Partition]:
    """All partitions contained in the given one, lexicographically."""

    def walk(i: int, prev: int, prefix: tuple[int, ...]) -> Iterator[Partition]:
        yield prefix
        if i >= len(limit):
            return
        for part in range(1, min(limit[i], prev) + 1):
            yield from walk(i + 1, part, prefix + (part,))

    yield from walk(0, limit[0] if limit else 0, ())


def staircase(n: int) -> Partition:
    return tuple(range(n - 1, 0, -1))


@dataclass(frozen=True)
class StaircaseCase:
    inner: Partition
    shape: SkewShape
    g_verdict: EqualityVerdict
    G_verdict: EqualityVerdict

    @property
    def passed(self) -> bool:
        return self.g_verdict.equal and self.G_verdict.equal

    def to_json_obj(self) -> dict:
        return {
            "inner": list(self.inner),
            "shape": shape_syntax(self.shape),
            "g": self.g_verdict.to_json_obj(),
            "G": self.G_verdict.to_json_obj(),
            "passed": self.passed,
        }


@dataclass(frozen=True)
class StaircaseReport:
    n: int
    cases: tuple[StaircaseCase, ...]

    @property
    def passed(self) -> bool:
        return all(case.passed for case in self.cases)

    @property
    def violations(self) -> tuple[StaircaseCase, ...]:
        return tuple(case for case in self.cases if not case.passed)


def check_staircase(
    n: int,
    budget_vars: int | None = None,
    budget_degree: int | None = None,
    g_budget_vars: int | None = None,
) -> StaircaseReport:
    """Test transpose invariance of g and G over every subshape of the
    staircase with n-1 top-row cells.

    For each inner partition inside the staircase, g is compared at
    the cell count (or g_budget_vars if tighter) and G truncated at
    budget_degree (default cells+2) in budget_vars (default 4)
    variables.
    """
    if n < 2:
        raise InvalidArg(f"staircase order must be at least 2, got {n}")
    delta = staircase(n)
    cases = []
    for inner in subpartitions(delta):
        shape = normalize(delta, inner)
        flipped = transpose(shape)
        cells = shape.cells
        gm = _var_budget(cells, g_budget_vars)
        gv = equal(dual_grothendieck(shape, gm), dual_grothendieck(flipped, gm))
        Gm = 4 if budget_vars is None else budget_vars
        Gd = cells + 2 if budget_degree is None else budget_degree
        Gv = equal(grothendieck(shape, Gm, Gd), grothendieck(flipped, Gm, Gd))
        cases.append(StaircaseCase(inner, shape, gv, Gv))
    return StaircaseReport(n, tuple(cases))


def degree_slice_coeffs(shape: SkewShape, degree: int) -> dict[tuple[int, ...], int]:
    """Coefficient map of g restricted to one exact degree.

    The degree-d terms of g in d variables, which hold every exponent
    partition of d; zero coefficients are omitted.
    """
    poly = dual_grothendieck(shape, max(degree, 0))
    return {key: c for key, c in poly.terms() if sum(key) == degree}


def two_var_vector(shape: SkewShape) -> tuple[int, ...]:
    """The closed-form degree-(n+1) two-variable coefficients
    (t_1, ..., t_k), k = ceil(n/2)."""
    n = shape.cols
    return tuple(coeff_two_var(shape, r) for r in range(1, (n + 1) // 2 + 1))
