"""Tests of the reference computations against closed forms.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import unittest
from math import comb

import reference as ref


def partitions(n, top=None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, top or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


class TestShapes(unittest.TestCase):
    def test_rotation_is_an_involution(self):
        for n in range(1, 6):
            for cells in ref.all_skew_shapes(n):
                self.assertEqual(ref.rotate180(ref.rotate180(cells)), cells)

    def test_generator_is_closed_under_rotation(self):
        for n in range(1, 6):
            shapes = ref.all_skew_shapes(n)
            self.assertEqual({ref.rotate180(s) for s in shapes}, shapes)

    def test_small_shapes(self):
        # A domino lies two ways; two cells that share no row or column
        # form the third shape.
        self.assertEqual(
            ref.all_skew_shapes(2),
            {frozenset({(1, 1), (1, 2)}), frozenset({(1, 1), (2, 1)}),
             frozenset({(1, 2), (2, 1)})})

    def test_parse_compresses(self):
        self.assertEqual(ref.parse_shape_text("4,4/2,2"), ref.parse_shape_text("2,2"))


class TestSchurAtOnes(unittest.TestCase):
    def test_hook_content_for_straight_shapes(self):
        for n in range(1, 7):
            for lam in partitions(n):
                cells = ref.skew_cells(lam)
                for k in range(0, 6):
                    self.assertEqual(ref.schur_at_ones(cells, k), ref.hook_content(lam, k),
                                     (lam, k))

    def test_disconnected_shape_factors(self):
        # Two cells in no common row or column: s = h1^2, so k^2.
        cells = ref.parse_shape_text("2,1/1")
        for k in range(1, 6):
            self.assertEqual(ref.schur_at_ones(cells, k), k * k)


class TestTwoEntryCount(unittest.TestCase):
    def test_column_and_row(self):
        for h in range(1, 9):
            self.assertEqual(ref.two_entry_count(ref.skew_cells((1,) * h)), h + 1)
            self.assertEqual(ref.two_entry_count(ref.skew_cells((h,))), h + 1)

    def test_agrees_with_brute_force(self):
        for n in range(1, 6):
            for cells in ref.all_skew_shapes(n):
                self.assertEqual(ref.two_entry_count(cells), ref.rpp_count_brute(cells, 2))


class TestRibbons(unittest.TestCase):
    def test_palindromic_compositions(self):
        for n in range(1, 11):
            count = sum(1 for a in ref.compositions(n) if ref.reverse(a) == a)
            self.assertEqual(count, 2 ** (n // 2))

    def test_class_count(self):
        for n in range(1, 11):
            classes = {min(a, ref.reverse(a)) for a in ref.compositions(n)}
            self.assertEqual(len(classes), ref.ribbon_class_count(n))

    def test_ribbon_cells_are_ribbons(self):
        for n in range(1, 7):
            shapes = ref.all_skew_shapes(n)
            for rows in ref.compositions(n):
                cells = ref.ribbon_cells(rows)
                self.assertIn(cells, shapes)
                self.assertFalse(any({(r, c), (r + 1, c), (r, c + 1), (r + 1, c + 1)} <= cells
                                     for r, c in cells))

    def test_rpp_count_closed_forms(self):
        for w in range(1, 7):
            for k in range(1, 5):
                # A row or a column of w cells: weakly increasing words.
                self.assertEqual(ref.ribbon_rpp_count((w,), k), comb(w + k - 1, w))
                self.assertEqual(ref.ribbon_rpp_count((1,) * w, k), comb(w + k - 1, w))

    def test_rpp_count_agrees_with_brute_force(self):
        for n in range(1, 6):
            for rows in ref.compositions(n):
                for k in (1, 2, 3):
                    self.assertEqual(ref.ribbon_rpp_count(rows, k),
                                     ref.rpp_count_brute(ref.ribbon_cells(rows), k))

    def test_composition(self):
        square = (1,)
        for a in ref.compositions(4):
            self.assertEqual(ref.compose(a, square), a)
            self.assertEqual(ref.compose(square, a), a)
        # A row of 2 composed with a column of 2 is two columns joined
        # at one cell.
        self.assertEqual(ref.compose((2,), (1, 1)), (1, 2, 1))
        for a, b in [((2, 1), (1, 2)), ((1, 3), (2,)), ((2,), (1, 2, 1))]:
            self.assertEqual(sum(ref.compose(a, b)), sum(a) * sum(b))


if __name__ == "__main__":
    unittest.main()
