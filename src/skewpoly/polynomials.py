"""Truncated exact-integer symmetric polynomials over skew shapes.

A TruncatedSymPoly is the restriction of a symmetric series to
num_vars variables, stored sparsely by exponent partition: since the
series is symmetric, the coefficient on x1^k1...xj^kj determines the
whole orbit of that monomial, so one weakly decreasing key per orbit
suffices.  degree_bound caps the stored degree; complete means the
restriction genuinely has no terms above the bound (true for s and g,
false for a G truncation, whose series has terms of every degree).

The three constructors take their coefficients from the layer-transfer
engine in skewpoly.tableaux, which counts each orbit once at its sorted
key; verify_symmetry checks that premise against enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import (
    IncomparableTruncation,
    InvalidArg,
    InvalidBound,
    NotSymmetric,
)
from .shapes import Partition, SkewShape, as_partition
from .tableaux import (
    RPP,
    SET_VALUED,
    SSYT,
    _series,
    enumerate_rpp,
    enumerate_ssyt,
    enumerate_svt,
)

Key = tuple[int, ...]

EXACT = "exact"
PARTIAL_VARS = "partial_vars"
PARTIAL_DEGREE = "partial_degree"


def as_key(exps: Iterable[int]) -> Key:
    """Normalize an exponent multiset to its partition key."""
    vals = tuple(sorted((e for e in exps if e), reverse=True))
    if any(e < 0 for e in vals):
        raise InvalidArg(f"exponents must be nonnegative, got {vals}")
    return vals


def orbit_size(key: Key, num_vars: int) -> int:
    """Number of distinct monomials in num_vars variables with this
    exponent partition."""
    if len(key) > num_vars:
        return 0
    denom = factorial(num_vars - len(key))
    run = 1
    for a, b in zip(key, key[1:]):
        run = run + 1 if a == b else 1
        if run > 1:
            denom *= run
    return factorial(num_vars) // denom


class TruncatedSymPoly:
    """Symmetric polynomial in num_vars variables, coefficients keyed
    by exponent partition, truncated at degree_bound."""

    __slots__ = ("num_vars", "degree_bound", "complete", "coeffs", "_hash")

    def __init__(
        self,
        num_vars: int,
        degree_bound: int,
        complete: bool,
        coeffs: Mapping[Key, int],
    ):
        if num_vars < 0:
            raise InvalidArg(f"num_vars must be nonnegative, got {num_vars}")
        if degree_bound < 0:
            raise InvalidBound(f"degree_bound must be nonnegative, got {degree_bound}")
        clean: dict[Key, int] = {}
        for key, value in sorted(coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0])):
            if value == 0:
                continue
            if tuple(sorted(key, reverse=True)) != tuple(key) or any(e <= 0 for e in key):
                raise InvalidArg(f"key {key} is not an exponent partition")
            if len(key) > num_vars:
                raise InvalidArg(f"key {key} uses more than {num_vars} variables")
            if sum(key) > degree_bound:
                raise InvalidBound(f"key {key} exceeds degree bound {degree_bound}")
            clean[tuple(key)] = value
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "degree_bound", degree_bound)
        object.__setattr__(self, "complete", complete)
        object.__setattr__(self, "coeffs", MappingProxyType(clean))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TruncatedSymPoly is immutable")

    def coefficient(self, exps: Iterable[int]) -> int:
        """Coefficient on the monomial with the given exponents.

        Keys longer than num_vars or (for complete polynomials) deeper
        than the bound are genuinely absent, hence 0; asking a
        truncated polynomial beyond its bound is unanswerable.
        """
        key = as_key(exps)
        if len(key) > self.num_vars:
            return 0
        if sum(key) > self.degree_bound:
            if self.complete:
                return 0
            raise InvalidBound(
                f"degree {sum(key)} is beyond the truncation bound {self.degree_bound}"
            )
        return self.coeffs.get(key, 0)

    def terms(self) -> list[tuple[Key, int]]:
        """Coefficients sorted by (degree, key), ascending."""
        return list(self.coeffs.items())

    def degree(self) -> int:
        """Largest stored degree (0 for the zero polynomial)."""
        return max((sum(k) for k in self.coeffs), default=0)

    def restrict_vars(self, k: int) -> "TruncatedSymPoly":
        """Restriction to the first k variables: drop longer keys."""
        if k < 0:
            raise InvalidArg(f"variable count must be nonnegative, got {k}")
        if k >= self.num_vars:
            return self
        kept = {key: c for key, c in self.coeffs.items() if len(key) <= k}
        return TruncatedSymPoly(k, self.degree_bound, self.complete, kept)

    def _combine(self, other: "TruncatedSymPoly", sign: int) -> "TruncatedSymPoly":
        if not isinstance(other, TruncatedSymPoly):
            return NotImplemented
        if self.num_vars != other.num_vars:
            raise InvalidArg(
                f"cannot add polynomials in {self.num_vars} and {other.num_vars} variables"
            )
        if self.complete and other.complete:
            bound = max(self.degree_bound, other.degree_bound)
            complete = True
        else:
            bounds = [
                p.degree_bound for p in (self, other) if not p.complete
            ]
            bound = min(bounds)
            complete = False
        merged = dict(self.coeffs)
        for key, c in other.coeffs.items():
            merged[key] = merged.get(key, 0) + sign * c
        merged = {k: v for k, v in merged.items() if v and sum(k) <= bound}
        return TruncatedSymPoly(self.num_vars, bound, complete, merged)

    def __add__(self, other: "TruncatedSymPoly") -> "TruncatedSymPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "TruncatedSymPoly") -> "TruncatedSymPoly":
        return self._combine(other, -1)

    def __mul__(self, scalar: int) -> "TruncatedSymPoly":
        if not isinstance(scalar, int):
            return NotImplemented
        if scalar == 0:
            return TruncatedSymPoly(self.num_vars, self.degree_bound, self.complete, {})
        return TruncatedSymPoly(
            self.num_vars,
            self.degree_bound,
            self.complete,
            {k: scalar * c for k, c in self.coeffs.items()},
        )

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncatedSymPoly)
            and self.num_vars == other.num_vars
            and self.degree_bound == other.degree_bound
            and self.complete == other.complete
            and dict(self.coeffs) == dict(other.coeffs)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            item = (
                self.num_vars,
                self.degree_bound,
                self.complete,
                tuple(self.coeffs.items()),
            )
            object.__setattr__(self, "_hash", hash(item))
        return self._hash

    def __repr__(self) -> str:
        shown = ", ".join(f"{list(k)}:{c}" for k, c in list(self.coeffs.items())[:4])
        more = "..." if len(self.coeffs) > 4 else ""
        return (
            f"TruncatedSymPoly(vars={self.num_vars}, degree<={self.degree_bound},"
            f" complete={self.complete}, {{{shown}{more}}})"
        )

    def to_text(self) -> str:
        """Line-oriented form: a header, then one sorted term per line."""
        lines = [
            f"vars={self.num_vars} degree_bound={self.degree_bound}"
            f" complete={'true' if self.complete else 'false'}"
        ]
        for key, c in self.terms():
            lines.append(f"[{','.join(str(e) for e in key)}] {c}")
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "num_vars": self.num_vars,
            "degree_bound": self.degree_bound,
            "complete": self.complete,
            "terms": [[list(key), c] for key, c in self.terms()],
        }


@dataclass(frozen=True)
class EqualityVerdict:
    """Outcome of comparing two polynomials, with its evidence level.

    evidence is exact when the comparison settles equality of the
    underlying series: for an equal verdict that needs both operands
    complete and enough variables (a symmetric function of degree d is
    determined by its restriction to d variables); a coefficient that
    differs inside the compared window always certifies inequality.
    partial_vars carries the variable count actually compared,
    partial_degree the degree window.
    """

    equal: bool
    evidence: str
    budget: int | None = None
    compared_vars: int = 0
    witness: Key | None = None

    def describe(self) -> str:
        if self.evidence == EXACT:
            tail = "exact"
        elif self.evidence == PARTIAL_VARS:
            tail = f"verified in {self.budget} variables"
        else:
            tail = f"verified up to degree {self.budget} in {self.compared_vars} variables"
        head = "equal" if self.equal else "not equal"
        if not self.equal and self.witness is not None:
            head += f" (coefficient differs on [{','.join(str(e) for e in self.witness)}])"
        return f"{head}; {tail}"

    def to_json_obj(self) -> dict:
        return {
            "equal": self.equal,
            "evidence": self.evidence,
            "budget": self.budget,
            "compared_vars": self.compared_vars,
            "witness": None if self.witness is None else list(self.witness),
        }


def equal(a: TruncatedSymPoly, b: TruncatedSymPoly) -> EqualityVerdict:
    """Compare two polynomials on their common window.

    Different variable counts are reconciled by restricting the larger
    to the smaller.  Two incomplete truncations with different bounds
    share no sound window and raise IncomparableTruncation; otherwise
    the window is every degree up to the incomplete operand's bound.
    """
    k = min(a.num_vars, b.num_vars)
    ra, rb = a.restrict_vars(k), b.restrict_vars(k)
    if not a.complete and not b.complete and a.degree_bound != b.degree_bound:
        raise IncomparableTruncation(
            f"truncations at degree {a.degree_bound} and {b.degree_bound}"
            " have no common exact window"
        )
    if a.complete and b.complete:
        window = None
        ca, cb = dict(ra.coeffs), dict(rb.coeffs)
    else:
        window = min(p.degree_bound for p in (a, b) if not p.complete)
        ca = {key: c for key, c in ra.coeffs.items() if sum(key) <= window}
        cb = {key: c for key, c in rb.coeffs.items() if sum(key) <= window}
    if ca != cb:
        diffs = sorted(
            (key for key in set(ca) | set(cb) if ca.get(key, 0) != cb.get(key, 0)),
            key=lambda key: (sum(key), key),
        )
        return EqualityVerdict(
            equal=False, evidence=EXACT, compared_vars=k, witness=diffs[0]
        )
    if window is not None:
        return EqualityVerdict(
            equal=True, evidence=PARTIAL_DEGREE, budget=window, compared_vars=k
        )
    if k >= max(a.degree_bound, b.degree_bound):
        return EqualityVerdict(equal=True, evidence=EXACT, compared_vars=k)
    return EqualityVerdict(
        equal=True, evidence=PARTIAL_VARS, budget=k, compared_vars=k
    )


def schur(shape: SkewShape, num_vars: int) -> TruncatedSymPoly:
    """Sum of x^T over semistandard tableaux with entries <= num_vars.

    Homogeneous of degree cells(shape); complete at any variable count.
    """
    return TruncatedSymPoly(
        num_vars, shape.cells, True, _series(shape, SSYT, num_vars, shape.cells)
    )


def dual_grothendieck(shape: SkewShape, num_vars: int) -> TruncatedSymPoly:
    """Sum of x^P over reverse plane partitions with entries <= num_vars.

    Every term has degree between the column count and cells(shape),
    so the restriction is complete at any variable count.
    """
    return TruncatedSymPoly(
        num_vars, shape.cells, True, _series(shape, RPP, num_vars, shape.cells)
    )


def grothendieck(shape: SkewShape, num_vars: int, degree_bound: int) -> TruncatedSymPoly:
    """Signed sum of x^T over set-valued tableaux with entries <=
    num_vars, truncated at total size degree_bound.

    The series has terms of every degree >= cells, so the result is
    never complete.  degree_bound below cells admits no filling.
    """
    if degree_bound < shape.cells:
        raise InvalidBound(
            f"degree bound {degree_bound} is below the {shape.cells} cells of {shape}"
        )
    return TruncatedSymPoly(
        num_vars,
        degree_bound,
        False,
        _series(shape, SET_VALUED, num_vars, degree_bound),
    )


@lru_cache(maxsize=None)
def _schur_straight(key: Key, num_vars: int) -> TruncatedSymPoly:
    return schur(SkewShape(as_partition(key), ()), num_vars)


def schur_expand(p: TruncatedSymPoly) -> dict[Partition, int]:
    """Write p as an integer combination of straight-shape Schur
    polynomials, degree by degree.

    Within one degree the Schur polynomial s_nu has monomial keys no
    greater than nu in lexicographic order, with coefficient 1 on nu
    itself, so repeatedly stripping the lexicographically largest
    remaining key is an exact change of basis.  Requires a complete
    polynomial with num_vars at least its degree, else the expansion
    would not determine the series.
    """
    if not p.complete:
        raise InvalidArg("cannot expand a degree-truncated polynomial")
    if p.num_vars < p.degree():
        raise InvalidArg(
            f"{p.num_vars} variables cannot determine a degree-{p.degree()} expansion"
        )
    residue = dict(p.coeffs)
    out: dict[Partition, int] = {}
    while residue:
        key = max(residue, key=lambda k: (sum(k), k))
        c = residue.pop(key)
        if c == 0:
            continue
        out[key] = c
        for skey, sc in _schur_straight(key, p.num_vars).coeffs.items():
            if skey == key:
                continue
            value = residue.get(skey, 0) - c * sc
            if value:
                residue[skey] = value
            else:
                residue.pop(skey, None)
    return out


def verify_symmetry(
    shape: SkewShape, kind: str, num_vars: int, degree_bound: int | None = None
) -> bool:
    """Recompute raw exponent vectors from the filling stream and check
    that coefficients are constant on every symmetry orbit.

    This is the witness that the engine may count each orbit once at
    its sorted key; it materializes full vectors and is meant for small
    shapes only.  Raises NotSymmetric on the first violating orbit.
    """
    raw: dict[tuple[int, ...], int] = {}
    if kind == SSYT:
        stream = enumerate_ssyt(shape, num_vars)
    elif kind == RPP:
        stream = enumerate_rpp(shape, num_vars)
    elif kind == SET_VALUED:
        if degree_bound is None:
            degree_bound = shape.cells + 2
        stream = enumerate_svt(shape, num_vars, degree_bound)
    else:
        raise InvalidArg(f"unknown filling kind {kind!r}")
    for filling in stream:
        w = filling.weight()
        vec = tuple(w.get(v, 0) for v in range(1, num_vars + 1))
        if kind == SET_VALUED:
            raw[vec] = raw.get(vec, 0) + (
                1 if (filling.size - shape.cells) % 2 == 0 else -1
            )
        else:
            raw[vec] = raw.get(vec, 0) + 1
    for vec, count in raw.items():
        rep = tuple(sorted(vec, reverse=True))
        if raw.get(rep, 0) != count:
            raise NotSymmetric(
                f"{kind} of {shape}: exponent vector {vec} has coefficient"
                f" {count} but its orbit representative {rep} has {raw.get(rep, 0)}"
            )
    return True
