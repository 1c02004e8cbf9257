"""Tests of the benchmark's own helpers and definitions.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import json
import re
import unittest
from pathlib import Path

import metrics

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(metrics.tail_percentile(20), 50)
        self.assertEqual(metrics.tail_percentile(60), 75)  # 15 beyond; p90 leaves 6.
        self.assertEqual(metrics.tail_percentile(100), 90)
        self.assertEqual(metrics.tail_percentile(200), 95)
        self.assertEqual(metrics.tail_percentile(999), 95)  # p99 would leave 9.99.
        self.assertEqual(metrics.tail_percentile(1000), 99)
        self.assertEqual(metrics.tail_percentile(10000), 99.9)

    def test_too_few_samples_have_no_tail(self):
        with self.assertRaises(ValueError):
            metrics.tail_percentile(19)

    def test_percentile_interpolates(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(metrics.percentile(values, 0), 1.0)
        self.assertEqual(metrics.percentile(values, 100), 4.0)
        self.assertAlmostEqual(metrics.percentile(values, 50), 2.5)
        self.assertEqual(metrics.median(values), 2.5)
        self.assertEqual(metrics.median([3.0, 1.0, 2.0]), 2.0)

    def test_operation_times_take_each_column(self):
        samples = [[1.0, 10.0], [2.0, 30.0], [3.0, 20.0], [4.0, 40.0], [5.0, 50.0]]
        self.assertEqual(metrics.operation_times(samples), [1.0, 10.0])
        with self.assertRaises(ValueError):
            metrics.operation_times([[1.0], [1.0, 2.0]])


class MetricNameTest(unittest.TestCase):
    def test_accepts_the_allowed_alphabet(self):
        for name in ("setup_s", "morph.search.busy_ms", "op-ms.p50", "A1"):
            self.assertTrue(metrics.valid_name(name), name)

    def test_rejects_everything_else(self):
        for name in ("", "wall s", "net/ring", "busy(ms)", "é", "x" * 65):
            self.assertFalse(metrics.valid_name(name), name)

    def test_every_defined_metric_is_valid_and_unique(self):
        names = list(metrics.END_TO_END) + list(metrics.PER_LAYER)
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(metrics.valid_name(name), name)


class DigestTest(unittest.TestCase):
    FINGERPRINTS = ["0123456789abcdef", "fedcba9876543210"]

    def test_pinned_value(self):
        # A change here would make digests from two commits incomparable.
        self.assertEqual(metrics.digest(self.FINGERPRINTS), "f46549101424db27")

    def test_stable_and_order_sensitive(self):
        self.assertEqual(metrics.digest(list(self.FINGERPRINTS)),
                         metrics.digest(self.FINGERPRINTS))
        self.assertNotEqual(metrics.digest(self.FINGERPRINTS[::-1]),
                            metrics.digest(self.FINGERPRINTS))


class DefinitionsTest(unittest.TestCase):
    def test_every_metric_has_unit_and_direction(self):
        for table in (metrics.END_TO_END, metrics.PER_LAYER):
            for name, spec in table.items():
                self.assertRegex(spec["unit"], UNIT, name)
                self.assertIn(spec["better"], ("higher", "lower"), name)
        for name, spec in metrics.END_TO_END.items():
            self.assertTrue(0 < spec["bound"] <= 0.25, name)
        self.assertEqual(metrics.END_TO_END["setup_s"]["unit"], "s")
        self.assertEqual(max(s["bound"] for s in metrics.END_TO_END.values()),
                         metrics.END_TO_END["setup_s"]["bound"])

    def test_benchmark_json_matches(self):
        benchmark = json.loads(BENCHMARK_JSON.read_text())
        self.assertEqual([w["name"] for w in benchmark["workloads"]],
                         [w for w in metrics.WORKLOADS if w not in metrics.MANUAL_WORKLOADS])
        for workload in benchmark["workloads"]:
            self.assertLessEqual(len(workload["why"]), 200, workload["name"])
        for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
            recorded = {m.pop("name"): m for m in benchmark[key]}
            self.assertEqual(recorded, table, key)


if __name__ == "__main__":
    unittest.main()
