"""Peak memory of ``reduce="stats"`` vs full-trajectory ensembles.

Full mode materializes the ``(trials, checkpoints, miners)`` cube, so
its working set grows linearly in the trial count — ~176 MB at the
1M-trial scale for the headline workload.  Stats mode folds each shard
straight into mergeable sufficient statistics (moments + exact event
counters, no sketch), so at a constant shard *size* the parent's
working set is bounded by one shard plus O(checkpoints x miners)
state — **flat in the trial count**, and more than an order of
magnitude below full mode at 1M trials.

Every row first verifies the physics: the unfair-probability series
(the Figure 3/5 numbers) must be bit-identical between the two modes
at the same shard plan before any memory saving is reported.

Standalone (the acceptance report; writes the JSON)::

    PYTHONPATH=src python benchmarks/bench_stats.py
        [--trials 100000 300000 1000000] [--horizon 100]
        [--output BENCH_stats.json]

CI sanity check (~seconds; asserts the stats peak is a small fraction
of full mode and stays flat as trials grow, with series parity)::

    PYTHONPATH=src python benchmarks/bench_stats.py --smoke
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
import tracemalloc
from typing import Dict, List, Optional

import numpy as np

from repro.core.miners import Allocation
from repro.protocols import MultiLotteryPoS
from repro.runtime import ParallelRunner, SimulationSpec

SEED = 2021
DEFAULT_TRIALS = (100_000, 300_000, 1_000_000)
DEFAULT_HORIZON = 100
CHECKPOINT_COUNT = 10
#: Trials per shard — held constant across trial counts, so "more
#: trials" means "more shards", the bounded-memory deployment shape.
SHARD_TRIALS = 12_500
#: The reduction floor the report (and CI smoke) asserts at the
#: largest trial count.
REDUCTION_FLOOR = 10.0
#: The ``--smoke`` workload: ascending trial counts and the horizon.
SMOKE_TRIALS = (50_000, 150_000)
SMOKE_HORIZON = 60


def build_spec(trials: int, horizon: int, reduce: str) -> SimulationSpec:
    """The headline ensemble: ML-PoS, two miners, evenly spaced records."""
    step = max(1, horizon // CHECKPOINT_COUNT)
    return SimulationSpec(
        protocol=MultiLotteryPoS(0.01),
        allocation=Allocation.two_miners(0.2),
        trials=trials,
        horizon=horizon,
        checkpoints=tuple(range(step, horizon + 1, step)),
        seed=SEED,
        reduce=reduce,
    )


def shard_count(trials: int) -> int:
    return max(4, trials // SHARD_TRIALS)


def _peak_rss_bytes() -> Optional[int]:
    """The process's lifetime high-water RSS, where the platform has it."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return rss * 1024 if sys.platform != "darwin" else rss


def measure(trials: int, horizon: int, reduce: str) -> Dict[str, object]:
    """Run one mode once, recording traced peak memory and wall-clock."""
    spec = build_spec(trials, horizon, reduce)
    runner = ParallelRunner(workers=1)
    gc.collect()
    tracemalloc.start()
    start = time.perf_counter()
    result = runner.run(spec, shards=shard_count(trials))
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "reduce": reduce,
        "seconds": round(seconds, 4),
        "peak_traced_bytes": peak,
        "_series": result.unfair_probabilities(epsilon=0.1).tobytes(),
    }


def compare(trial_counts, horizon: int) -> List[Dict[str, object]]:
    """Measure full vs stats per trial count; verify series parity first."""
    rows = []
    for trials in trial_counts:
        full = measure(trials, horizon, "full")
        stats = measure(trials, horizon, "stats")
        if full.pop("_series") != stats.pop("_series"):
            raise AssertionError(
                f"stats unfair series diverged from full mode at "
                f"trials={trials} — refusing to report memory savings "
                "for wrong results"
            )
        rows.append(
            {
                "trials": trials,
                "shards": shard_count(trials),
                "full_peak_bytes": full["peak_traced_bytes"],
                "stats_peak_bytes": stats["peak_traced_bytes"],
                "reduction": round(
                    full["peak_traced_bytes"] / stats["peak_traced_bytes"], 2
                ),
                "full_seconds": full["seconds"],
                "stats_seconds": stats["seconds"],
                "series_bit_identical": True,
            }
        )
    return rows


def collect(trial_counts, horizon: int) -> Dict[str, object]:
    rows = compare(sorted(trial_counts), horizon)
    stats_peaks = [row["stats_peak_bytes"] for row in rows]
    return {
        "schema": "bench_stats/v1",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "seed": SEED,
        "workload": (
            f"ML-PoS, two miners, {horizon} rounds, {CHECKPOINT_COUNT} "
            f"checkpoints, {SHARD_TRIALS} trials/shard, workers=1 (serial "
            "executor: all allocations visible to tracemalloc)"
        ),
        "peak_rss_bytes": _peak_rss_bytes(),
        # Flat: at constant shard size the stats peak is bounded by one
        # shard plus the moments and counters, so it must not scale with the
        # trial count the way the full cube does.
        "stats_peak_flat": stats_peaks[-1] <= stats_peaks[0] * 1.25,
        "reduction_at_max_trials": rows[-1]["reduction"],
        "reduction_floor": REDUCTION_FLOOR,
        "meets_reduction_floor": rows[-1]["reduction"] >= REDUCTION_FLOOR,
        "results": {f"trials_{row['trials']}": row for row in rows},
    }


def render(report: Dict[str, object]) -> str:
    lines = [
        f"{'trials':>9} {'shards':>7} {'full MB':>9} {'stats MB':>9} "
        f"{'reduction':>9} {'full s':>7} {'stats s':>8}"
    ]
    for row in report["results"].values():
        lines.append(
            f"{row['trials']:>9} "
            f"{row['shards']:>7} "
            f"{row['full_peak_bytes'] / 1e6:>9.1f} "
            f"{row['stats_peak_bytes'] / 1e6:>9.1f} "
            f"{row['reduction']:>8.1f}x "
            f"{row['full_seconds']:>7.2f} "
            f"{row['stats_seconds']:>8.2f}"
        )
    lines.append(f"stats peak flat in trial count: {report['stats_peak_flat']}")
    lines.append(
        f"reduction at max trials: {report['reduction_at_max_trials']}x "
        f"(floor {report['reduction_floor']}x: "
        f"{'met' if report['meets_reduction_floor'] else 'MISSED'})"
    )
    return "\n".join(lines)


# -- standalone acceptance report ---------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trials", type=int, nargs="+", default=list(DEFAULT_TRIALS)
    )
    parser.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    parser.add_argument(
        "--output", default="BENCH_stats.json",
        help="where to write the JSON report (default: BENCH_stats.json)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast sanity check: stats peak must sit far below full mode "
        "and stay flat as trials grow, with bit-identical figure series; "
        "no JSON written",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        rows = compare(SMOKE_TRIALS, SMOKE_HORIZON)
        for row in rows:
            print(
                f"trials={row['trials']}: full "
                f"{row['full_peak_bytes'] / 1e6:.1f} MB / "
                f"{row['full_seconds']:.2f}s vs stats "
                f"{row['stats_peak_bytes'] / 1e6:.1f} MB / "
                f"{row['stats_seconds']:.2f}s "
                f"(reduction {row['reduction']:.1f}x, series bit-identical)"
            )
        # At smoke scale the full cube is already >= 4x the stats
        # working set; the 10x floor is asserted at the 1M-trial scale
        # by the standalone report.
        failed = [
            row for row in rows
            if row["stats_peak_bytes"] * 4 >= row["full_peak_bytes"]
        ]
        peaks = [row["stats_peak_bytes"] for row in rows]  # ascending trials
        if peaks[-1] > peaks[0] * 1.25:
            print("FAIL: stats peak grew with the trial count")
            return 1
        if failed:
            print("FAIL: expected the stats peak far below the full cube")
            return 1
        print("PASS")
        return 0

    report = collect(args.trials, args.horizon)
    print(render(report))
    if not report["meets_reduction_floor"]:
        print(
            f"FAIL: reduction {report['reduction_at_max_trials']}x at the "
            f"largest trial count missed the {REDUCTION_FLOOR}x floor"
        )
        return 1
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
