"""Tests for tools/bench_median.py. Run with
python3 -m unittest discover -s tools -p 'test_*.py'."""

import json
import os
import sys
import tempfile
import textwrap
import unittest

import bench_median


def report(median_ms, host_threads=4, compiler="12.2.0"):
    return {
        "bench": "bench_fake",
        "compiler": compiler,
        "host_hardware_threads": host_threads,
        "pool_threads": 4,
        "events_per_sec": median_ms * 1000.0,
        "results": [
            {"name": "a", "min_ms": median_ms - 1.0, "median_ms": median_ms,
             "mean_ms": median_ms + 1.0, "repeats": 50},
            {"name": "b", "min_ms": 2.0 * median_ms, "median_ms": 3.0 * median_ms,
             "mean_ms": 4.0 * median_ms, "repeats": 15},
        ],
    }


class MedianReportTest(unittest.TestCase):
    def test_each_row_field_is_the_median_over_runs(self):
        merged = bench_median.median_report([report(5.0), report(1.0), report(3.0)])
        self.assertEqual(merged["results"][0],
                         {"name": "a", "min_ms": 2.0, "median_ms": 3.0, "mean_ms": 4.0,
                          "repeats": 50})
        self.assertEqual(merged["results"][1]["median_ms"], 9.0)
        self.assertEqual(merged["events_per_sec"], 3000.0)
        self.assertEqual(merged["processes"], 3)

    def test_host_metadata_comes_from_the_first_run(self):
        merged = bench_median.median_report(
            [report(1.0, host_threads=4, compiler="x"), report(2.0, host_threads=8),
             report(3.0, host_threads=8)])
        self.assertEqual(merged["host_hardware_threads"], 4)
        self.assertEqual(merged["compiler"], "x")
        self.assertEqual(merged["bench"], "bench_fake")

    def test_mismatched_rows_are_refused(self):
        other = report(1.0)
        other["results"] = other["results"][::-1]
        with self.assertRaises(ValueError):
            bench_median.median_report([report(1.0), other])
        with self.assertRaises(ValueError):
            bench_median.median_report([])


class EndToEndTest(unittest.TestCase):
    def test_runs_the_bench_in_fresh_processes(self):
        with tempfile.TemporaryDirectory() as scratch:
            counter = os.path.join(scratch, "count")
            bench = os.path.join(scratch, "bench.py")
            # Each process reads 10, 30, 20 ms in turn.
            with open(bench, "w") as f:
                f.write(textwrap.dedent(f"""\
                    import json, os, sys
                    n = int(open({counter!r}).read()) if os.path.exists({counter!r}) else 0
                    open({counter!r}, "w").write(str(n + 1))
                    ms = [10.0, 30.0, 20.0][n]
                    path = sys.argv[sys.argv.index("--json") + 1]
                    json.dump({{"bench": "fake", "host_os": "os{{}}".format(n),
                               "results": [{{"name": "step", "median_ms": ms,
                                            "repeats": 5}}]}}, open(path, "w"))
                    """))
            out = os.path.join(scratch, "out.json")
            status = bench_median.main(
                ["--runs", "3", "--out", out, "--", sys.executable, bench, "--smoke"])
            self.assertEqual(status, 0)
            with open(out) as f:
                merged = json.load(f)
            self.assertEqual(merged["results"], [{"name": "step", "median_ms": 20.0,
                                                  "repeats": 5}])
            self.assertEqual(merged["host_os"], "os0")
            self.assertEqual(merged["processes"], 3)


if __name__ == "__main__":
    unittest.main()
