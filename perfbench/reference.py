"""Reference computations that check skewpoly's outputs.

Nothing here imports skewpoly.  A skew shape is a frozenset of (row,
column) cells, rows counted from the top and columns from the left,
both from 1.  Every function works from cells or from textbook
formulas, not from the program's partition pairs or walkers, so an
agreement between the two is evidence that neither is wrong.
"""

from __future__ import annotations

from itertools import product
from math import comb, prod
from typing import Iterator

Cells = frozenset


def skew_cells(outer, inner=()) -> Cells:
    """The cells of outer/inner, placed as given (no compression)."""
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    return frozenset(
        (r, c) for r, (lam, mu) in enumerate(zip(outer, inner), 1)
        for c in range(mu + 1, lam + 1)
    )


def compress(cells) -> Cells:
    """Delete empty rows and columns and pull the diagram to row 1 and
    column 1, keeping the order of the rows and columns that remain."""
    rows = {r: i for i, r in enumerate(sorted({r for r, _ in cells}), 1)}
    cols = {c: j for j, c in enumerate(sorted({c for _, c in cells}), 1)}
    return frozenset((rows[r], cols[c]) for r, c in cells)


def parse_shape_text(text: str) -> Cells:
    """Cells of the CLI's 'outer/inner' form, such as '3,2/1'."""
    outer_text, _, inner_text = text.partition("/")
    outer = [int(p) for p in outer_text.split(",") if p]
    inner = [int(p) for p in inner_text.split(",") if p]
    return compress(skew_cells(outer, inner))


def _partitions_in_box(rows: int, cols: int) -> Iterator[tuple[int, ...]]:
    def walk(prefix: tuple[int, ...], top: int) -> Iterator[tuple[int, ...]]:
        yield prefix
        if len(prefix) < rows:
            for part in range(1, top + 1):
                yield from walk(prefix + (part,), part)

    yield from walk((), cols)


def _subpartitions_of_size(lam: tuple[int, ...], size: int) -> Iterator[tuple[int, ...]]:
    """Partitions mu inside lam with |mu| = size."""

    def walk(i: int, prefix: tuple[int, ...], left: int) -> Iterator[tuple[int, ...]]:
        if left == 0:
            yield prefix
            return
        if i == len(lam):
            return
        top = min(lam[i], prefix[-1] if prefix else lam[i], left)
        room = sum(min(p, top) for p in lam[i:])
        if room < left:
            return
        for part in range(top, 0, -1):
            yield from walk(i + 1, prefix + (part,), left - part)

    yield from walk(0, (), size)


def all_skew_shapes(n: int) -> set[Cells]:
    """Every skew shape of n cells, as compressed cell sets.

    A skew shape with no empty row or column has at most n rows and n
    columns, so it is the compression of a pair mu inside lam inside
    the n-by-n box.  All such pairs are built and compressed; the set
    drops the repeats.
    """
    if n == 0:
        return {frozenset()}
    out = set()
    for lam in _partitions_in_box(n, n):
        size = sum(lam) - n
        if size < 0:
            continue
        for mu in _subpartitions_of_size(lam, size):
            out.add(compress(skew_cells(lam, mu)))
    return out


def rotate180(cells) -> Cells:
    """The diagram turned half a turn, as a compressed cell set."""
    if not cells:
        return frozenset()
    height = max(r for r, _ in cells)
    width = max(c for _, c in cells)
    return compress([(height + 1 - r, width + 1 - c) for r, c in cells])


def partition_pair(cells) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(lam, mu) of a compressed skew diagram: per row, its last column
    and the column before its first."""
    rows = sorted({r for r, _ in cells})
    lam = tuple(max(c for r2, c in cells if r2 == r) for r in rows)
    mu = tuple(min(c for r2, c in cells if r2 == r) - 1 for r in rows)
    return lam, mu


def _det(matrix: list[list[int]]) -> int:
    """Exact integer determinant by Bareiss elimination."""
    a = [row[:] for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def schur_at_ones(cells, k: int) -> int:
    """s_{lam/mu}(1^k), the number of semistandard fillings with
    entries at most k, from the Jacobi-Trudi (Aitken) determinant
    det[h_{lam_i - mu_j - i + j}] with h_m(1^k) = C(m + k - 1, m)."""
    if not cells:
        return 1
    lam, mu = partition_pair(cells)

    def h(m: int) -> int:
        if m < 0:
            return 0
        return comb(m + k - 1, m) if k > 0 else int(m == 0)

    n = len(lam)
    return _det([[h(lam[i] - mu[j] - i + j) for j in range(n)] for i in range(n)])


def hook_content(lam: tuple[int, ...], k: int) -> int:
    """s_lam(1^k) for a straight shape by the hook-content formula."""
    conj = [sum(1 for p in lam if p > c) for c in range(lam[0] if lam else 0)]
    num = prod(k + c - r for r, part in enumerate(lam) for c in range(part))
    den = prod(
        part - c + conj[c] - r - 1 for r, part in enumerate(lam) for c in range(part)
    )
    return num // den


def two_entry_count(cells) -> int:
    """Number of reverse plane partitions with entries in {1, 2}.

    The 1s of such a filling fill the top of every column down to a
    cut, so a column-by-column count over the cuts suffices: a 1 at
    (r, c) forces a 1 at (r, c - 1) whenever that cell exists.
    """
    counts = {0: 1}
    prev_rows: set[int] = set()
    for c in sorted({c for _, c in cells}):
        rows = sorted(r for r, c2 in cells if c2 == c)
        if rows != list(range(rows[0], rows[-1] + 1)):
            raise ValueError(f"column {c} is not an interval")
        new: dict[int, int] = {}
        for cut in range(rows[0] - 1, rows[-1] + 1):
            bound = [r for r in rows if r <= cut and r in prev_rows]
            total = sum(
                ways for prev_cut, ways in counts.items()
                if all(r <= prev_cut for r in bound)
            )
            if total:
                new[cut] = total
        counts, prev_rows = new, set(rows)
    return sum(counts.values())


def rpp_count_brute(cells, k: int) -> int:
    """Reverse plane partitions with entries at most k, by trying every
    filling; only for tests on small shapes."""
    order = sorted(cells)
    total = 0
    for values in product(range(1, k + 1), repeat=len(order)):
        fill = dict(zip(order, values))
        if all(
            fill.get((r, c - 1), 0) <= v and fill.get((r - 1, c), 0) <= v
            for (r, c), v in fill.items()
        ):
            total += 1
    return total


# Ribbons are compositions read as row sizes, bottom row first; each
# row starts in the column where the row below ends.


def ribbon_cells(rows: tuple[int, ...]) -> Cells:
    """The cells of the ribbon with the given row reading."""
    height = len(rows)
    cells, start = [], 1
    for i, size in enumerate(rows):
        r = height - i
        cells.extend((r, c) for c in range(start, start + size))
        start += size - 1
    return frozenset(cells)


def ribbon_rpp_count(rows: tuple[int, ...], k: int) -> int:
    """g_rows(1^k): reverse plane partitions of the ribbon with entries
    at most k, by a dynamic program along its path of cells.

    The path runs from the bottom-left cell; a step right needs an
    entry no smaller, a step up an entry no larger.
    """
    if k < 1:
        return 0
    ways = [1] * k
    first = True
    for size in rows:
        steps = ["right"] * (size - 1)
        if not first:
            steps.insert(0, "up")
        first = False
        for step in steps:
            if step == "right":
                acc, new = 0, []
                for w in ways:
                    acc += w
                    new.append(acc)
            else:
                acc, new = 0, [0] * k
                for v in range(k - 1, -1, -1):
                    acc += ways[v]
                    new[v] = acc
            ways = new
    return sum(ways)


def reverse(rows: tuple[int, ...]) -> tuple[int, ...]:
    """The ribbon turned half a turn: its row reading reversed."""
    return tuple(reversed(rows))


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Ribbon composition a o b: each row of a of size r becomes r
    copies of b, each copy's top row fused with the next copy's bottom
    row; the blocks for successive rows of a are stacked without
    fusing."""
    out: list[int] = []
    for size in a:
        block = list(b)
        for _ in range(size - 1):
            block = block[:-1] + [block[-1] + b[0]] + list(b[1:])
        out.extend(block)
    return tuple(out)


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """All compositions of n, lexicographically."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def ribbon_class_count(n: int) -> int:
    """Number of compositions of n up to reversal,
    (2^(n-1) + 2^floor(n/2)) / 2."""
    return (2 ** (n - 1) + 2 ** (n // 2)) // 2
