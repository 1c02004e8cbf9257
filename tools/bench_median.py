#!/usr/bin/env python3
"""Median of several bench processes.

One bench process on a shared host reads whatever phase the host is in, so a
single BENCH_*.json recording cannot carry a comparison. This script runs one
bench binary N times, each in a fresh process with `--json <tmp>`, and writes
one JSON file of the same shape: the first run's host metadata (its strings
and its `host_*` keys) and, for every other numeric scalar and every numeric
field of every `results` row, the median over the runs. It adds
`"processes": N`.

Usage:
  tools/bench_median.py --runs 5 --out BENCH_training_step.json -- \
      build/bench/bench_training_step [bench args...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def median_report(reports):
    """Folds parsed bench reports (dicts) into one: the first report's
    strings and `host_*` keys, the median of every other numeric scalar and of
    every numeric field of each `results` row. Every report must carry the
    same keys and name the same rows in the same order."""
    if not reports:
        raise ValueError("no reports to fold")
    first = reports[0]
    for report in reports[1:]:
        if report.keys() != first.keys():
            raise ValueError("reports carry different keys")
        names = [row["name"] for row in report.get("results", [])]
        if names != [row["name"] for row in first.get("results", [])]:
            raise ValueError("reports name different result rows")

    def fold(values):
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            return statistics.median(values)
        return values[0]

    merged = {}
    for key, value in first.items():
        if key == "results":
            rows = []
            for i, row in enumerate(value):
                rows.append({field: fold([r["results"][i][field] for r in reports])
                             for field in row})
            merged[key] = rows
        elif key.startswith("host_"):
            merged[key] = value
        else:
            merged[key] = fold([r[key] for r in reports])
    merged["processes"] = len(reports)
    return merged


def run_bench(command, runs):
    """Runs `command + ['--json', tmp]` `runs` times; returns the reports."""
    reports = []
    with tempfile.TemporaryDirectory() as scratch:
        for i in range(runs):
            path = os.path.join(scratch, f"run{i}.json")
            subprocess.run(command + ["--json", path], check=True, stdout=subprocess.DEVNULL)
            with open(path) as f:
                reports.append(json.load(f))
    return reports


def write_report(report, path):
    """Writes the bench JSON layout: one scalar per line, one row per line."""
    lines = []
    for key, value in report.items():
        if key != "results":
            lines.append(f"  {json.dumps(key)}: {json.dumps(value)}")
    rows = ",\n".join("    " + json.dumps(row) for row in report.get("results", []))
    lines.append('  "results": [\n' + rows + "\n  ]")
    with open(path, "w") as f:
        f.write("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="bench processes (default 5)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="-- bench binary and its arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no bench command given")
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    write_report(median_report(run_bench(command, args.runs)), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
