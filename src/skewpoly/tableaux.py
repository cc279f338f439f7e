"""Tableaux over skew shapes: enumeration, and the layer-transfer engine
that counts them by weight.

Three filling families over a common cell grid:

- ssyt: semistandard Young tableaux, rows weakly increasing left to
  right, columns strictly increasing top to bottom, one entry per cell.
- svt: set-valued tableaux, a nonempty finite set per cell, where A <= B
  means max(A) <= min(B) and A < B means max(A) < min(B); rows weakly
  increase, columns strictly increase.
- rpp: reverse plane partitions, rows and columns weakly increasing.

Enumeration is cell by cell in column-major order (leftmost column
first, top to bottom inside a column), so each cell only checks its
upper and left neighbors, both already placed.  Streams are generators,
contain no duplicates, and yield in lexicographic order of the
column-major sequence of per-cell value tuples.  The zero-cell shape
yields exactly one empty filling.

The enumerations are the reference that tests compare against and the
input of the lattice-path bijection.  Counting goes through one engine
instead: in a filling with entries at most v, the cells whose largest
entry is at most v form a partition nu between inner and outer, so a
filling is a chain of partitions, one layer per entry value.  Layer v
adds the cells whose largest entry is v (see _moves for each family's
rule and weight).  _series walks weakly decreasing exponent keys depth
first, sharing prefixes, and gives every coefficient of a truncated
series; _coefficient runs the same layers on one exponent vector and
backs the *_monomial_count functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator, Mapping, Sequence

from .errors import InvalidArg, InvalidBound
from .shapes import Partition, SkewShape

SSYT = "ssyt"
SET_VALUED = "svt"
RPP = "rpp"
KINDS = (SSYT, SET_VALUED, RPP)

Cell = tuple[int, int]


@lru_cache(maxsize=None)
def _grid(shape: SkewShape) -> tuple[tuple[Cell, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Column-major cell list with neighbor indices.

    Returns (cells, up, left, col_of) where up[i] and left[i] are the
    indices of the neighbor above and to the left of cells[i], or -1
    when that neighbor is outside the shape, and col_of[i] is the
    1-based column of cells[i].
    """
    cells = tuple(shape.cells_colmajor())
    index = {cell: i for i, cell in enumerate(cells)}
    up = tuple(index.get((r - 1, c), -1) for r, c in cells)
    left = tuple(index.get((r, c - 1), -1) for r, c in cells)
    col_of = tuple(c for _, c in cells)
    return cells, up, left, col_of


class Filling:
    """An assignment of sorted value tuples to the cells of a shape.

    ssyt and rpp fillings hold one value per cell; svt fillings hold a
    nonempty strictly increasing tuple.  Construction validates the
    ordering constraints of the requested kind.
    """

    __slots__ = ("shape", "kind", "cells", "_hash")

    def __init__(self, shape: SkewShape, kind: str, cells: Mapping[Cell, Sequence[int]]):
        if kind not in KINDS:
            raise InvalidArg(f"unknown filling kind {kind!r}")
        grid_cells = _grid(shape)[0]
        normalized: dict[Cell, tuple[int, ...]] = {}
        for cell in grid_cells:
            if cell not in cells:
                raise InvalidArg(f"cell {cell} of {shape} is not filled")
            vals = tuple(cells[cell])
            if not vals or any(v < 1 for v in vals):
                raise InvalidArg(f"cell {cell} needs positive entries, got {vals}")
            if kind != SET_VALUED and len(vals) != 1:
                raise InvalidArg(f"{kind} cell {cell} must hold one entry, got {vals}")
            if any(a >= b for a, b in zip(vals, vals[1:])):
                raise InvalidArg(f"cell {cell} is not a strictly increasing set: {vals}")
            normalized[cell] = vals
        if len(cells) != len(grid_cells):
            extras = set(cells) - set(grid_cells)
            raise InvalidArg(f"cells {sorted(extras)} lie outside {shape}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "cells", normalized)
        object.__setattr__(self, "_hash", None)
        self._check_order()

    def _check_order(self) -> None:
        strict_cols = self.kind in (SSYT, SET_VALUED)
        for (r, c), vals in self.cells.items():
            left = self.cells.get((r, c - 1))
            if left is not None and left[-1] > vals[0]:
                raise InvalidArg(f"row {r} decreases at column {c}")
            above = self.cells.get((r - 1, c))
            if above is not None:
                if strict_cols and above[-1] >= vals[0]:
                    raise InvalidArg(f"column {c} fails to increase at row {r}")
                if not strict_cols and above[-1] > vals[0]:
                    raise InvalidArg(f"column {c} decreases at row {r}")

    @classmethod
    def from_rows(cls, shape: SkewShape, kind: str, rows: Sequence[Sequence]) -> "Filling":
        """Build from per-row value lists, top row first.

        Each row lists its cells left to right; an svt cell may be an
        int or an iterable of ints.
        """
        if len(rows) != shape.rows:
            raise InvalidArg(f"expected {shape.rows} rows, got {len(rows)}")
        cells = {}
        for r, ((start, end), row_vals) in enumerate(zip(shape.row_intervals, rows), 1):
            if len(row_vals) != end - start + 1:
                raise InvalidArg(f"row {r} expects {end - start + 1} cells")
            for c, val in zip(range(start, end + 1), row_vals):
                if isinstance(val, int):
                    cells[(r, c)] = (val,)
                else:
                    cells[(r, c)] = tuple(sorted(val))
        return cls(shape, kind, cells)

    def values(self, row: int, col: int) -> tuple[int, ...]:
        return self.cells[(row, col)]

    @property
    def size(self) -> int:
        """Total number of entries counted with set multiplicity."""
        return sum(len(v) for v in self.cells.values())

    def weight(self) -> dict[int, int]:
        """Exponent vector of x^T.

        For ssyt and svt, entry i contributes once per cell containing
        it.  For rpp, entry i contributes once per column containing it.
        """
        exps: dict[int, int] = {}
        if self.kind == RPP:
            for (top, _), c in zip(self.shape.column_intervals, range(1, self.shape.cols + 1)):
                seen = set()
                r = top
                while (r, c) in self.cells:
                    seen.add(self.cells[(r, c)][0])
                    r += 1
                for v in seen:
                    exps[v] = exps.get(v, 0) + 1
        else:
            for vals in self.cells.values():
                for v in vals:
                    exps[v] = exps.get(v, 0) + 1
        return exps

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Filling)
            and self.shape == other.shape
            and self.kind == other.kind
            and self.cells == other.cells
        )

    def __hash__(self) -> int:
        if self._hash is None:
            item = (self.shape, self.kind, tuple(sorted(self.cells.items())))
            object.__setattr__(self, "_hash", hash(item))
        return self._hash

    def __repr__(self) -> str:
        rows = []
        for (start, end), r in zip(self.shape.row_intervals, range(1, self.shape.rows + 1)):
            vals = [
                "".join(str(x) for x in self.cells[(r, c)])
                for c in range(start, end + 1)
            ]
            rows.append("." * (start - 1) + "|".join(vals))
        return f"Filling({self.kind}, {self.shape}, {' / '.join(rows)})"


def _check_entry_bound(max_entry: int) -> None:
    if max_entry < 0:
        raise InvalidBound(f"max_entry must be nonnegative, got {max_entry}")


def enumerate_rpp(shape: SkewShape, max_entry: int) -> Iterator[Filling]:
    """All reverse plane partitions with entries in 1..max_entry."""
    _check_entry_bound(max_entry)
    cells, up, left, _ = _grid(shape)
    count = len(cells)
    if count == 0:
        yield Filling(shape, RPP, {})
        return
    values = [0] * count

    def rec(i: int) -> Iterator[Filling]:
        if i == count:
            yield Filling(shape, RPP, {cells[j]: (values[j],) for j in range(count)})
            return
        lo = 1
        if up[i] >= 0 and values[up[i]] > lo:
            lo = values[up[i]]
        if left[i] >= 0 and values[left[i]] > lo:
            lo = values[left[i]]
        for v in range(lo, max_entry + 1):
            values[i] = v
            yield from rec(i + 1)

    yield from rec(0)


def enumerate_ssyt(shape: SkewShape, max_entry: int) -> Iterator[Filling]:
    """All semistandard tableaux with entries in 1..max_entry."""
    _check_entry_bound(max_entry)
    cells, up, left, _ = _grid(shape)
    count = len(cells)
    if count == 0:
        yield Filling(shape, SSYT, {})
        return
    values = [0] * count

    def rec(i: int) -> Iterator[Filling]:
        if i == count:
            yield Filling(shape, SSYT, {cells[j]: (values[j],) for j in range(count)})
            return
        lo = 1
        if up[i] >= 0 and values[up[i]] + 1 > lo:
            lo = values[up[i]] + 1
        if left[i] >= 0 and values[left[i]] > lo:
            lo = values[left[i]]
        for v in range(lo, max_entry + 1):
            values[i] = v
            yield from rec(i + 1)

    yield from rec(0)


def enumerate_svt(shape: SkewShape, max_entry: int, max_size: int) -> Iterator[Filling]:
    """All set-valued tableaux with entries in 1..max_entry and at most
    max_size entries in total."""
    _check_entry_bound(max_entry)
    if max_size < shape.cells:
        raise InvalidBound(
            f"max_size {max_size} is below the {shape.cells} cells of {shape}"
        )
    cells, up, left, _ = _grid(shape)
    count = len(cells)
    if count == 0:
        yield Filling(shape, SET_VALUED, {})
        return
    sets: list[list[int]] = [[] for _ in range(count)]
    maxval = [0] * count

    def rec(i: int, used: int) -> Iterator[Filling]:
        if i == count:
            yield Filling(
                shape, SET_VALUED, {cells[j]: tuple(sets[j]) for j in range(count)}
            )
            return
        room = max_size - used - (count - 1 - i)
        if room < 1:
            return
        lo = 1
        if up[i] >= 0 and maxval[up[i]] + 1 > lo:
            lo = maxval[up[i]] + 1
        if left[i] >= 0 and maxval[left[i]] > lo:
            lo = maxval[left[i]]

        def extend(v_from: int, size: int) -> Iterator[Filling]:
            for v in range(v_from, max_entry + 1):
                sets[i].append(v)
                maxval[i] = v
                yield from rec(i + 1, used + size + 1)
                if size + 1 < room:
                    yield from extend(v + 1, size + 1)
                sets[i].pop()
            return

        yield from extend(lo, 0)

    yield from rec(0, 0)


def _successors(
    nu: Partition, outer: Partition, strip: bool
) -> list[tuple[Partition, int]]:
    """(nu2, size) for every partition nu2 with nu <= nu2 <= outer, built
    row by row.

    With strip, only horizontal strips nu2/nu, and size is their cell
    count.  Otherwise any nu2, and size is the number of columns of
    nu2/nu: each column is counted at its top cell, which lies in row 1
    or below a cell of nu, so row i > 1 adds min(nu2_i, nu_(i-1)) - nu_i.
    """
    found: list[tuple[Partition, int]] = [((), 0)]
    for i, (lo, hi) in enumerate(zip(nu, outer)):
        if i == 0:
            found = [((p,), p - lo) for p in range(lo, hi + 1)]
        elif strip:
            top = min(hi, nu[i - 1])
            found = [(pre + (p,), e + p - lo) for pre, e in found for p in range(lo, top + 1)]
        else:
            above = nu[i - 1]
            found = [
                (pre + (p,), e + min(p, above) - lo)
                for pre, e in found
                for p in range(lo, min(hi, pre[-1]) + 1)
            ]
    return found


def _moves(
    nu: Partition, outer: Partition, kind: str
) -> Iterator[tuple[Partition, int, int]]:
    """(nu2, exponent, weight) for each way one layer takes nu to nu2.

    A layer v adds the cells whose largest entry is v.  For rpp that is
    any nu2/nu, weighted by its columns; for ssyt and svt it is a
    horizontal strip.  An svt layer may also put v, as a non-largest
    entry, into any j of the `free` cells that can be added to nu2 and
    sit below a cell of nu, for exponent |nu2/nu| + j and sign (-1)**j.
    """
    if kind != SET_VALUED:
        for nu2, added in _successors(nu, outer, kind == SSYT):
            yield nu2, added, 1
        return
    for nu2, added in _successors(nu, outer, True):
        free = sum(
            1
            for i, (p, lam) in enumerate(zip(nu2, outer))
            if p < lam and (i == 0 or p < nu[i - 1])
        )
        for j in range(free + 1):
            yield nu2, added + j, (-1) ** j * comb(free, j)


def _need(nu: Partition, outer: Partition, kind: str) -> int:
    """Least total exponent the remaining layers must add to reach
    outer from nu: the columns of outer/nu for rpp (counted as in
    _successors), its cells otherwise."""
    if kind != RPP:
        return sum(outer) - sum(nu)
    return sum(
        min(lam, nu[i - 1]) - p if i else lam - p
        for i, (p, lam) in enumerate(zip(nu, outer))
    )


# A state's moves: target state numbers by exponent, then weight.
_Moves = dict[int, dict[int, list[int]]]


class _Layers:
    """The partitions nu with inner <= nu <= outer of one shape, numbered
    once, with their moves under one family.

    States are numbered in lexicographic order, so the inner partition
    is state 0 and the outer one the last state.  The moves of a state
    are found on first use and kept as lists of state numbers grouped
    by exponent, then weight.
    """

    __slots__ = ("kind", "outer", "states", "index", "need", "table", "final")

    def __init__(self, shape: SkewShape, kind: str):
        self.kind = kind
        self.outer = shape.outer
        self.states = [nu for nu, _ in _successors(shape.inner_padded, shape.outer, False)]
        self.index = {nu: i for i, nu in enumerate(self.states)}
        self.need = [_need(nu, self.outer, kind) for nu in self.states]
        self.table: list[_Moves | None] = [None] * len(self.states)
        self.final = len(self.states) - 1

    def moves(self, i: int) -> _Moves:
        found = self.table[i]
        if found is None:
            found = self.table[i] = {}
            for nu2, e, w in _moves(self.states[i], self.outer, self.kind):
                found.setdefault(e, {}).setdefault(w, []).append(self.index[nu2])
        return found

    def step(self, vec: dict[int, int], e: int, limit: int) -> dict[int, int]:
        """The states that one layer of exponent e reaches from vec,
        keeping those whose need fits in limit."""
        need = self.need
        out: dict[int, int] = {}
        for i, c in vec.items():
            for w, targets in self.moves(i).get(e, {}).items():
                cw = c * w
                for t in targets:
                    if need[t] <= limit:
                        out[t] = out.get(t, 0) + cw
        return out


def _descend(
    layers: _Layers,
    vec: dict[int, int],
    key: list[int],
    cap: int,
    left: int,
    vars_left: int,
    out: dict[tuple[int, ...], int],
) -> None:
    """Depth-first walk over weakly decreasing exponent keys.

    vec holds the states that key's layers reach, with their signed
    counts; its count at the outer partition is the coefficient of
    key.  Children extend key by an exponent of at most cap, within the
    degree left and the variables left.
    """
    c = vec.get(layers.final)
    if c:
        out[tuple(key)] = c
    if not vars_left:
        return
    for e in range(1, min(cap, left) + 1):
        nxt = layers.step(vec, e, min(left - e, e * (vars_left - 1)))
        if nxt:
            key.append(e)
            _descend(layers, nxt, key, e, left - e, vars_left - 1, out)
            key.pop()


def _series(
    shape: SkewShape, kind: str, num_vars: int, degree_bound: int
) -> dict[tuple[int, ...], int]:
    """Coefficients of the family's series in num_vars variables up to
    degree_bound, one per exponent partition.

    The coefficient of x1^k1 ... xj^kj is built one variable at a time,
    so each symmetry orbit is counted once at its sorted key.  svt
    coefficients carry the sign (-1)**(degree - cells).
    """
    _check_entry_bound(num_vars)
    layers = _Layers(shape, kind)
    out: dict[tuple[int, ...], int] = {}
    _descend(layers, {0: 1}, [], degree_bound, degree_bound, num_vars, out)
    return out


def _coefficient(shape: SkewShape, kind: str, target: Sequence[int]) -> int:
    """Signed coefficient of x1^t1 x2^t2 ... in the family's series,
    one layer per entry of target.

    States stay partitions and moves are generated where they are used:
    nothing is numbered or kept beyond the current layer.
    """
    target = tuple(target)
    if any(t < 0 for t in target):
        raise InvalidArg(f"exponents must be nonnegative, got {target}")
    outer = shape.outer
    vec = {shape.inner_padded: 1}
    left = sum(target)
    for e in target:
        left -= e
        nxt: dict[Partition, int] = {}
        for nu, c in vec.items():
            for nu2, f, w in _moves(nu, outer, kind):
                if f == e and _need(nu2, outer, kind) <= left:
                    nxt[nu2] = nxt.get(nu2, 0) + c * w
        vec = nxt
    return vec.get(outer, 0)


def rpp_monomial_count(shape: SkewShape, target: Sequence[int]) -> int:
    """Number of rpp fillings whose weight is exactly x1^t1 x2^t2 ...

    target[v-1] is the required number of columns containing v; entries
    beyond len(target) are forbidden.
    """
    return _coefficient(shape, RPP, target)


def ssyt_monomial_count(shape: SkewShape, target: Sequence[int]) -> int:
    """Number of ssyt fillings whose weight is exactly the target."""
    return _coefficient(shape, SSYT, target)


def svt_monomial_count(shape: SkewShape, target: Sequence[int]) -> int:
    """Number of svt fillings whose weight is exactly the target.

    The count is unsigned; the corresponding series coefficient is this
    count times (-1)**(sum(target) - cells).
    """
    return abs(_coefficient(shape, SET_VALUED, target))


@dataclass(frozen=True)
class LatticePath:
    """Monotone staircase across a shape, one horizontal edge per column.

    heights[c-1] is the row index of the horizontal edge in column c:
    the edge sits below row heights[c-1], so top-1 means the column is
    entirely below the path (all 2 in the matching filling) and bottom
    means entirely above (all 1).  Heights weakly decrease left to
    right.  Edges strictly between a column's boundaries are interior.
    """

    shape: SkewShape
    heights: tuple[int, ...]

    def __post_init__(self) -> None:
        intervals = self.shape.column_intervals
        if len(self.heights) != len(intervals):
            raise InvalidArg(
                f"path needs {len(intervals)} heights, got {len(self.heights)}"
            )
        for h, (top, bot) in zip(self.heights, intervals):
            if not top - 1 <= h <= bot:
                raise InvalidArg(f"height {h} outside column range {top - 1}..{bot}")
        for a, b in zip(self.heights, self.heights[1:]):
            if a < b:
                raise InvalidArg(f"heights {self.heights} are not weakly decreasing")

    @property
    def interior_edges(self) -> tuple[tuple[int, int], ...]:
        """(height, column) pairs strictly inside the shape, by column."""
        return tuple(
            (h, c)
            for c, (h, (top, bot)) in enumerate(
                zip(self.heights, self.shape.column_intervals), 1
            )
            if top <= h <= bot - 1
        )


def rpp12_to_path(filling: Filling) -> LatticePath:
    """Lattice path of a 1,2-filling: 1s above the path, 2s below."""
    if filling.kind != RPP:
        raise InvalidArg(f"expected an rpp filling, got {filling.kind}")
    heights = []
    for c, (top, bot) in enumerate(filling.shape.column_intervals, 1):
        h = top - 1
        for r in range(top, bot + 1):
            vals = filling.values(r, c)
            if vals[0] > 2:
                raise InvalidArg(f"entry {vals[0]} at {(r, c)} is not in {{1, 2}}")
            if vals[0] == 1:
                h = r
        heights.append(h)
    return LatticePath(filling.shape, tuple(heights))


def path_to_rpp12(path: LatticePath) -> Filling:
    """Inverse of rpp12_to_path."""
    cells = {}
    for c, ((top, bot), h) in enumerate(
        zip(path.shape.column_intervals, path.heights), 1
    ):
        for r in range(top, bot + 1):
            cells[(r, c)] = (1,) if r <= h else (2,)
    return Filling(path.shape, RPP, cells)
