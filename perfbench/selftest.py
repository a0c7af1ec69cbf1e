"""Self-test of the benchmark's arithmetic on hand-made inputs.

Run with `python3 perfbench/run.py --self-test` (or this file directly);
exits non-zero on the first wrong answer. Needs no build.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import measure  # noqa: E402


class Eq1Error(unittest.TestCase):
    def test_largest_relative_error_in_percent(self):
        predicted = {"a": 110.0, "b": 95.0, "c": 200.0}
        measured = {"a": 100.0, "b": 100.0, "c": 200.0}
        self.assertAlmostEqual(measure.max_error_pct(predicted, measured),
                               10.0)

    def test_underestimate_counts_like_overestimate(self):
        self.assertAlmostEqual(
            measure.max_error_pct({"a": 88.0}, {"a": 100.0}), 12.0)

    def test_keys_must_match(self):
        with self.assertRaises(ValueError):
            measure.max_error_pct({"a": 1.0}, {"b": 1.0})


class Coverage(unittest.TestCase):
    def test_share_within_bound(self):
        sampled = {"a": 103.0, "b": 90.0, "c": 100.0, "d": 101.0}
        bounds = {"a": 0.05, "b": 0.05, "c": 0.0, "d": 0.01}
        full = {"a": 100.0, "b": 100.0, "c": 100.0, "d": 100.0}
        # a: 3% <= 5%; b: 10% > 5%; c: exact, bound 0; d: 1% <= 1%.
        self.assertAlmostEqual(
            measure.coverage_pct(sampled, bounds, full), 75.0)


class Percentile(unittest.TestCase):
    def test_nearest_rank_with_counts(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(measure.percentile(values, 50), (50, 50, 100))
        self.assertEqual(measure.percentile(values, 99), (99, 1, 100))
        self.assertEqual(measure.percentile(values, 100), (100, 0, 100))

    def test_ties_are_not_beyond(self):
        self.assertEqual(measure.percentile([5, 5, 5, 9], 50), (5, 1, 4))

    def test_unsorted_input(self):
        self.assertEqual(measure.percentile([3, 1, 2], 50), (2, 1, 3))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 100) with children [10, 30) and [25, 60) (overlapping:
        # 50 covered) and a grandchild [12, 20) inside the first child.
        spans = {
            "root": {"begin": 0, "end": 100, "parent": None},
            "a": {"begin": 10, "end": 30, "parent": "root"},
            "b": {"begin": 25, "end": 60, "parent": "root"},
            "a1": {"begin": 12, "end": 20, "parent": "a"},
        }
        own = measure.self_times(spans)
        self.assertEqual(own, {"root": 50, "a": 12, "b": 35, "a1": 8})

    def test_child_overhanging_its_parent_is_clipped(self):
        spans = {
            "p": {"begin": 0, "end": 10, "parent": None},
            "c": {"begin": 5, "end": 15, "parent": "p"},
        }
        self.assertEqual(measure.self_times(spans)["p"], 5)


class Host(unittest.TestCase):
    def test_steal_share(self):
        before = [100, 0, 50, 800, 10, 0, 0, 40, 7, 0]
        after = [160, 0, 70, 900, 10, 0, 0, 60, 9, 0]
        # deltas over the first eight fields: 60+20+100+20 = 200; steal 20
        self.assertAlmostEqual(measure.steal_pct(before, after), 10.0)


def main(stream):
    """Run every case, reporting to @p stream; 0 when all pass."""
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        sys.modules[__name__])
    result = unittest.TextTestRunner(stream=stream).run(suite)
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main(sys.stderr))
