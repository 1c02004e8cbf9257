#!/usr/bin/env python3
"""End-to-end benchmark of the Varuna simulator.

Usage (from the repository root):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds e2ebench/ (which compiles the simulator from src/) into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench), then runs the
workload in a number of fresh `e2e_bench` processes set by --seconds, one
workload run each, and reports per-operation host times across them (see
measure()). Fresh processes are required: the process-global schedule map
inside GenerateSchedule would otherwise carry warm schedules from one run
into the next.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(counters of the measured run plus busy times from a traced replay in a
second fresh process). The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is non-zero when
any check fails or the build is impossible.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from metrics import (  # noqa: E402  (after the path tweak above)
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    digest,
    median,
    operation_times,
    percentile,
    tail_percentile,
    valid_name,
)

# Fresh processes per 20 s of --seconds. Each workload's run then takes
# about 20 s (morph-decisions about 25 s) on an idle 4-core x86-64 host, and
# up to 1.6 times that while other tenants load the host.
PROCESSES_PER_20_S = {
    "fig8-session": 10,
    "chaos-sweep": 16,
    "storm-h2h": 16,
    "morph-decisions": 5,
}
MIN_PROCESSES = 3
PROCESS_TIMEOUT_S = 120
BUILD_THREADS = 4


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", REPO_ROOT / ".bench_build"))
    return target.resolve() / "e2ebench"


def build():
    """Configures and builds e2e_bench; returns its path or None."""
    if not (REPO_ROOT / "src" / "CMakeLists.txt").is_file():
        log("e2ebench: simulator sources (src/) not found next to e2ebench/")
        return None
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    compile_cmd = ["cmake", "--build", str(out), "--target", "e2e_bench",
                   "-j", str(BUILD_THREADS)]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return out / "e2e_bench"


def run_process(args):
    """Runs one e2e_bench process; returns (parsed JSON or None, spawn time)."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"e2ebench: timed out: {' '.join(map(str, args))}")
        return None, spawned
    if proc.returncode != 0:
        log(f"e2ebench: exit {proc.returncode}: {' '.join(map(str, args))}\n{proc.stderr}")
        return None, spawned
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), spawned
    except (ValueError, IndexError):
        log(f"e2ebench: unparseable output from {' '.join(map(str, args))}")
        return None, spawned


def metadata(binary):
    path = build_dir() / "metadata.json"
    info = {}
    if subprocess.run([str(binary), "metadata", str(path)]).returncode == 0:
        info = json.loads(path.read_text())
    info.pop("results", None)
    info.update({
        "build_type": "RelWithDebInfo",
        "nproc": os.cpu_count(),
        "load_threads": 1,
        "search_threads": 1,
    })
    return info


class Tally:
    """Operations attempted/failed across the processes of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.broken = False  # A process crashed, timed out or printed garbage.
        self.fingerprints = None
        self.notes = []

    def add(self, result):
        if result is None:
            self.broken = True
            return
        ops = len(result["op_ms"])
        self.attempted += ops
        failed = result["failed_ops"]
        self.notes.extend(result["notes"])
        # Every fresh process must reproduce the first one exactly.
        if self.fingerprints is None:
            self.fingerprints = result["fingerprints"]
        elif result["fingerprints"] != self.fingerprints:
            self.notes.append("fingerprints differ between two fresh processes")
            failed = ops
        self.failed += failed

    @property
    def correct(self):
        return not self.broken and self.failed == 0 and self.attempted > 0


def measure(binary, workload, seed, seconds, tally):
    """End-to-end metrics over a fixed number of fresh processes, tracing off.

    Every process runs the same operations in the same order, so each
    operation is timed once per process. Its host time is the fastest of
    those samples: on a shared host, cache and memory contention from other
    tenants only ever adds time, and it lasts longer than a whole run, so
    a median over processes moves with the neighbours' load. The process
    count depends on --seconds only, never on how fast the code runs, so two
    commits are compared on equal sample counts.
    """
    processes = max(MIN_PROCESSES, round(PROCESSES_PER_20_S[workload] * seconds / 20))
    op_ms, setup_s, rss_mb = [], [], []
    sim = reference = None
    for index in range(processes):
        # The first process also runs the seeded replay/oracle sample, after
        # its timed phase.
        args = [str(binary), "run", workload, "--seed", str(seed)]
        if index == 0:
            args.append("--check")
        result, spawned = run_process(args)
        tally.add(result)
        if result is None:
            return None
        op_ms.append(result["op_ms"])
        setup_s.append(result["first_timed_call_s"] - spawned)
        rss_mb.append(result["peak_rss_kb"] / 1024.0)
        sim = result["sim"]
        reference = result["reference"]
    ops = operation_times(op_ms)
    tail = tail_percentile(len(ops))
    print(f"workload {workload}: {processes} fresh processes, op tail = p{tail:g} "
          f"of {len(ops)} operations per process")
    print(f"reference {workload} {json.dumps(reference, sort_keys=True)}")
    metrics = {
        "setup_s": median(setup_s),
        "wall_s": sum(ops) / 1e3,
        "op_ms_p50": percentile(ops, 50),
        "op_ms_tail": percentile(ops, tail),
        "peak_rss_mb": median(rss_mb),
    }
    metrics.update(sim)
    return metrics


def traced(binary, workload, seed, seconds, tally):
    """Per-layer metrics: measured-run counters plus a traced replay."""
    per_iteration = {name: [] for name in PER_LAYER}
    inputs = build_dir() / f"replay-{workload}.txt"
    spans = build_dir() / f"spans-{workload}.jsonl"
    started = time.monotonic()
    iterations = 0
    while iterations < 1 or time.monotonic() - started < seconds:
        args = [str(binary), "run", workload, "--seed", str(seed), "--dump", str(inputs)]
        if iterations == 0:
            args.append("--check")
        result, _ = run_process(args)
        tally.add(result)
        if result is None:
            return None
        replay, _ = run_process([str(binary), "replay", workload, "--inputs", str(inputs),
                                 "--spans", str(spans)])
        if replay is None:
            tally.broken = True
            return None
        iterations += 1
        if iterations == 1:
            counts = replay["counts"]
            print(f"replay {workload}: {counts.get('replay_sweeps', 0):g} sweeps, "
                  f"{counts['replay_winner_mismatches']:g} winners differ from the measured run")
        for name, value in layer_metrics(result, replay).items():
            per_iteration[name].append(value)
    print(f"workload {workload}: {iterations} traced replays, spans in {spans}")
    return {name: median(values) for name, values in per_iteration.items()}


def layer_metrics(result, replay):
    counters = result["counters"]
    busy = replay["busy_ms"]
    counts = replay["counts"]
    run_ms = 1e3 * result["wall_s"]
    explained = sum(busy.values())
    metrics = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name in counters:
            metrics[name] = counters[name]
        elif name.endswith(".busy_ms"):
            metrics[name] = busy.get(name[: -len(".busy_ms")], 0.0)
    generated = counts.get("schedule_generations", 0.0)
    requests = counts.get("schedule_requests", 0.0)
    metrics["pipeline.schedule.generations"] = generated
    metrics["pipeline.schedule.hit_ratio"] = (requests - generated) / requests if requests else 0.0
    executor_s = counts.get("executor_replay_ms", 0.0) / 1e3
    metrics["sim.engine.events_per_s"] = (
        counts.get("executor_replay_events", 0.0) / executor_s if executor_s > 0 else 0.0)
    metrics["manager.session.self_ms"] = run_ms - explained
    metrics["trace.explained_frac"] = explained / run_ms
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("e2ebench: build failed")
        return 2
    print("metadata " + json.dumps(metadata(binary), sort_keys=True))

    tally = Tally()
    if args.trace:
        metrics = traced(binary, args.workload, args.seed, args.seconds, tally)
        table = PER_LAYER
    else:
        metrics = measure(binary, args.workload, args.seed, args.seconds, tally)
        table = END_TO_END
    if metrics is None:
        log("e2ebench: a benchmark process failed; no result")
        return 1
    invalid = [name for name in metrics if not valid_name(name) or name not in table]
    if invalid:
        log(f"e2ebench: undefined or malformed metric names {invalid}")
        return 1
    if tally.fingerprints is not None:
        print(f"digest {args.workload} {digest(tally.fingerprints)}")
    for note in tally.notes:
        print(f"FAILED CHECK: {note}")
    print(f"failed_frac {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {table[name]['unit']}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": table[name]["unit"]}
                    for name, value in metrics.items()},
    }))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
