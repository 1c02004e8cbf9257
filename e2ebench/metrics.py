"""Metric definitions and the statistics helpers of the end-to-end benchmark.

BENCHMARK.json at the repository root records the same names, units,
directions and bounds; test_metrics.py keeps the two in step.
"""

import hashlib
import re

WORKLOADS = ("fig8-session", "chaos-sweep", "storm-h2h", "morph-decisions")
# Runnable by hand (run.py --workload <name>) but left out of BENCHMARK.json:
# their working sets (87 MB of session state, 530 MB of schedules) are the
# most exposed to other tenants' memory contention, and their op tails spread
# up to 32 % and 30 % between runs, more than the widest bound allows.
MANUAL_WORKLOADS = ("fig8-session", "morph-decisions")

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# A timing's tail is the highest of these percentiles that still has at least
# TAIL_BEYOND samples above it.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10


def _metric(unit, better, bound=None):
    spec = {"unit": unit, "better": better}
    if bound is not None:
        spec["bound"] = bound
    return spec


# An operation is a simulated hour (fig8-session), a campaign (chaos-sweep,
# storm-h2h) or a morph decision (morph-decisions); its host time is
# operation_times() over the run's fresh processes, and wall_s is their sum.
# setup_s and peak_rss_mb are medians over the processes. The sim_* outcomes
# are simulated, not host, quantities and repeat exactly.
END_TO_END = {
    "setup_s": _metric("s", "lower", 0.25),
    "wall_s": _metric("s", "lower", 0.25),
    "op_ms_p50": _metric("ms", "lower", 0.25),
    "op_ms_tail": _metric("ms", "lower", 0.25),
    "peak_rss_mb": _metric("MB", "lower", 0.05),
    "sim_examples_per_s": _metric("ex/s", "higher", 0.001),
    "sim_uptime_frac": _metric("ratio", "higher", 0.001),
    "sim_goodput_frac": _metric("ratio", "higher", 0.001),
}

PER_LAYER = {
    # Counts of the measured run (SessionStats / ConfigSearchStats).
    "morph.search.sweep_hit_ratio": _metric("ratio", "higher"),
    "morph.search.candidate_hit_ratio": _metric("ratio", "higher"),
    "morph.search.pruned_ratio": _metric("ratio", "higher"),
    "morph.search.candidates_simulated": _metric("count", "lower"),
    "pipeline.schedule.generations": _metric("count", "lower"),
    "pipeline.schedule.hit_ratio": _metric("ratio", "higher"),
    "sim.engine.events": _metric("count", "lower"),
    "pipeline.executor.scratch_growths": _metric("count", "lower"),
    "pipeline.executor.heap_fallbacks": _metric("count", "lower"),
    "net.ring.hit_ratio": _metric("ratio", "higher"),
    "manager.checkpoint.delta_ratio": _metric("ratio", "higher"),
    "manager.checkpoint.restore_sim_s": _metric("sim_s", "lower"),
    "morph.liveput.predictor_updates": _metric("count", "lower"),
    "morph.liveput.wins": _metric("count", "higher"),
    # Busy times of the traced replay.
    "morph.search.busy_ms": _metric("ms", "lower"),
    "pipeline.schedule.busy_ms": _metric("ms", "lower"),
    "pipeline.validate.busy_ms": _metric("ms", "lower"),
    "morph.fastsim.busy_ms": _metric("ms", "lower"),
    "morph.calibration.busy_ms": _metric("ms", "lower"),
    "pipeline.executor.busy_ms": _metric("ms", "lower"),
    "sim.engine.events_per_s": _metric("1/s", "higher"),
    "net.ring.busy_ms": _metric("ms", "lower"),
    "manager.checkpoint.busy_ms": _metric("ms", "lower"),
    "morph.liveput.busy_ms": _metric("ms", "lower"),
    "manager.session.self_ms": _metric("ms", "lower"),
    "trace.explained_frac": _metric("ratio", "higher"),
}


def valid_name(name):
    return len(name) <= 64 and METRIC_NAME.fullmatch(name) is not None


def median(values):
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(values, q):
    """Linear-interpolated q-th percentile (0 <= q <= 100)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def operation_times(samples):
    """Per-operation host time: the fastest sample of each operation.

    `samples[p][i]` is operation i's time in process p; every process runs
    the same operations in the same order.
    """
    if not samples or any(len(row) != len(samples[0]) for row in samples):
        raise ValueError("every process must time the same operations")
    return [min(column) for column in zip(*samples)]


def tail_percentile(count):
    """Highest ladder percentile with at least TAIL_BEYOND of `count` samples beyond it."""
    best = None
    for q in TAIL_LADDER:
        if count * (100.0 - q) / 100.0 >= TAIL_BEYOND - 1e-9:
            best = q
    if best is None:
        raise ValueError(f"{count} samples cannot carry a tail percentile")
    return best


def digest(fingerprints):
    """One digest over a workload's per-operation fingerprints, in order."""
    return hashlib.sha256("\n".join(fingerprints).encode()).hexdigest()[:16]
