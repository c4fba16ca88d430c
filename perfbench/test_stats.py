#!/usr/bin/env python3
"""Tests for the benchmark's arithmetic (stats.py).

    python3 perfbench/test_stats.py
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(stats.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(stats.percentile([1, 2, 3, 4, 5], 0), 1)
        self.assertEqual(stats.percentile([1, 2, 3, 4, 5], 100), 5)
        self.assertAlmostEqual(stats.percentile(range(101), 99), 99.0)

    def test_median_agrees_with_statistics(self):
        values = [7.5, 1.25, 3.0, 9.75, 2.5, 8.0]
        self.assertEqual(stats.percentile(values, 50),
                         statistics.median(values))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_p99_needs_a_thousand_samples_for_ten_beyond(self):
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(1132, 99), 12)
        self.assertLess(stats.samples_beyond(900, 99), 10)
        self.assertEqual(stats.samples_beyond(1, 99), 0)
        self.assertEqual(stats.samples_beyond(0, 99), 0)

    def test_samples_beyond_counts_values_above_the_percentile(self):
        for n in (1, 11, 100, 999, 1000, 1500):
            values = list(range(n))
            p99 = stats.percentile(values, 99)
            self.assertEqual(sum(v > p99 for v in values),
                             stats.samples_beyond(n, 99))

    def test_tail_percentile_flags_thin_tails(self):
        value, ok = stats.tail_percentile(list(range(1000)), 99)
        self.assertAlmostEqual(value, 989.01)
        self.assertTrue(ok)
        _, ok = stats.tail_percentile(list(range(500)), 99)
        self.assertFalse(ok)


class ShareTest(unittest.TestCase):
    def test_failed_share(self):
        self.assertEqual(stats.failed_share(200, 0), 0.0)
        self.assertEqual(stats.failed_share(200, 50), 0.25)
        self.assertEqual(stats.failed_share(200, 200), 1.0)

    def test_ok_share_is_its_complement(self):
        self.assertEqual(stats.ok_share(480, 0), 1.0)
        self.assertEqual(stats.ok_share(480, 120), 0.75)

    def test_bad_counts_are_errors(self):
        for attempted, failed in ((0, 0), (10, 11), (10, -1)):
            with self.assertRaises(ValueError):
                stats.failed_share(attempted, failed)


class ParallelEfficiencyTest(unittest.TestCase):
    def test_busy_over_threads_times_wall(self):
        self.assertEqual(stats.parallel_efficiency(40.0, 4, 10.0), 1.0)
        self.assertEqual(stats.parallel_efficiency(30.0, 4, 10.0), 0.75)
        self.assertEqual(stats.parallel_efficiency(4.5, 1, 5.0), 0.9)

    def test_degenerate_inputs_are_errors(self):
        with self.assertRaises(ValueError):
            stats.parallel_efficiency(1.0, 0, 1.0)
        with self.assertRaises(ValueError):
            stats.parallel_efficiency(1.0, 4, 0.0)


class SpreadTest(unittest.TestCase):
    def test_interquartile_range_over_median(self):
        values = [10, 11, 9, 10, 12, 8, 10, 10, 11, 9]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.spread(values),
                         (q3 - q1) / statistics.median(values))

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.spread([1.0] * 10), 0.0)

    def test_ratio_of_nothing_is_zero(self):
        self.assertEqual(stats.ratio(5, 0), 0.0)
        self.assertEqual(stats.ratio(6, 3), 2.0)


if __name__ == "__main__":
    unittest.main()
