"""Tests of perfbench/stats.py. Run: python3 -m unittest perfbench/test_stats.py"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class NearestRank(unittest.TestCase):
    def test_known_ranks(self):
        values = [float(v) for v in range(1, 101)]  # 1..100
        self.assertEqual(stats.nearest_rank(values, 50), (50.0, 100))
        self.assertEqual(stats.nearest_rank(values, 99), (99.0, 100))
        self.assertEqual(stats.nearest_rank(values, 100), (100.0, 100))
        self.assertEqual(stats.nearest_rank(values, 0.5), (1.0, 100))

    def test_result_is_a_sample_and_order_free(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        for p in (10, 25, 50, 75, 90, 99):
            v, n = stats.nearest_rank(values, p)
            self.assertIn(v, values)
            self.assertEqual(n, 5)
        self.assertEqual(stats.nearest_rank(values, 50)[0], 3.0)
        self.assertEqual(stats.nearest_rank(values, 99)[0], 5.0)

    def test_empty_and_bad_p(self):
        self.assertEqual(stats.nearest_rank([], 50), (None, 0))
        with self.assertRaises(ValueError):
            stats.nearest_rank([1.0], 0)
        with self.assertRaises(ValueError):
            stats.nearest_rank([1.0], 101)


class Failures(unittest.TestCase):
    def test_failed_request_is_infinite_latency(self):
        values = [1.0] * 98 + [stats.FAILED, stats.FAILED]
        self.assertEqual(stats.nearest_rank(values, 98)[0], 1.0)
        self.assertTrue(math.isinf(stats.nearest_rank(values, 99)[0]))

    def test_many_failures_reach_the_median(self):
        values = [2.0, stats.FAILED, stats.FAILED]
        self.assertTrue(math.isinf(stats.nearest_rank(values, 50)[0]))


class HighestTail(unittest.TestCase):
    def test_ten_beyond_rule(self):
        # 1000 samples: p99 has 10 beyond it, p99.9 only 1.
        values = [float(v) for v in range(1000)]
        p, v, n = stats.highest_tail(values)
        self.assertEqual((p, n), (99.0, 1000))
        self.assertEqual(v, 989.0)
        self.assertEqual(stats.samples_beyond(1000, 99.0), 10)

    def test_small_samples(self):
        # 20 samples: the median has 10 beyond it, p75 only 5.
        p, v, n = stats.highest_tail([float(v) for v in range(20)])
        self.assertEqual((p, v, n), (50.0, 9.0, 20))
        self.assertEqual(stats.highest_tail([1.0] * 19), (None, None, 19))


class Segmented(unittest.TestCase):
    def test_stalled_segments_do_not_move_the_tail(self):
        calm = [1.0] * 98 + [2.0] * 2
        values = calm * 3 + [50.0] * 100
        segments = [0] * 100 + [1] * 100 + [2] * 100 + [3] * 100
        self.assertEqual(stats.segmented(values, segments, 99), (2.0, 4))
        # Pooled, the stalled segment owns the whole tail.
        self.assertEqual(stats.nearest_rank(values, 99)[0], 50.0)

    def test_failures_count_inside_their_segment(self):
        values = [1.0, stats.FAILED, 1.0, stats.FAILED, stats.FAILED, 1.0]
        segments = [0, 0, 1, 1, 2, 2]
        v, n = stats.segmented(values, segments, 99)
        self.assertTrue(math.isinf(v))
        self.assertEqual(n, 3)

    def test_median_across_segments(self):
        # Segments with p50 1..5: the median segment sets the value.
        values, segments = [], []
        for seg in range(5):
            values += [float(seg + 1)] * 3
            segments += [seg] * 3
        self.assertEqual(stats.segmented(values, segments, 50), (3.0, 5))
        # An even count averages the middle two.
        self.assertEqual(
            stats.segmented(values + [9.0] * 3, segments + [5] * 3, 50),
            (3.5, 6))

    def test_empty(self):
        self.assertEqual(stats.segmented([], [], 99), (None, 0))


class AcrossRuns(unittest.TestCase):
    def test_median_and_quartiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        self.assertEqual(stats.median(values), 5.5)
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual((q1, q2, q3), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(stats.spread(values), 5.5 / 5.5)

    def test_identical_runs_have_no_spread(self):
        self.assertEqual(stats.spread([3.0] * 10), 0.0)


if __name__ == "__main__":
    unittest.main()
