"""Per-cell vs grid-batched pool dispatch for figure sweeps.

The paper's figures are grids of many small Monte Carlo cells (Figure
3 alone is 4 protocols x 5 shares).  Dispatching each cell to the pool
on its own pays pool start-up per cell and leaves workers idle between
cells; :meth:`ParallelRunner.run_many` submits every uncached shard of
every cell in one dispatch.  This harness measures what that saves on
a Figure-3-shaped grid — asserting first that the two paths produce
bit-identical results — and writes the numbers to ``BENCH_grid.json``
so the dispatch-cost trajectory is recorded in-repo.

Standalone (the acceptance report; writes the JSON)::

    PYTHONPATH=src python benchmarks/bench_grid.py
        [--workers 8] [--trials N] [--horizon N]
        [--output BENCH_grid.json]

CI sanity check (~seconds; asserts batched dispatch no slower than
per-cell at ``workers=4``)::

    PYTHONPATH=src python benchmarks/bench_grid.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List

import numpy as np

from repro.core.miners import Allocation
from repro.experiments._common import PAPER_PROTOCOL_ORDER, build_protocol
from repro.runtime import ParallelRunner, SimulationSpec
from repro.sim.rng import RandomSource

SEED = 2021
DEFAULT_TRIALS = 600
DEFAULT_HORIZON = 300
SHARES = (0.1, 0.2, 0.3, 0.4, 0.5)

#: Shards per cell, pinned.  The default plan gives a cell of fewer
#: than 1,000 trials one shard, and a one-shard dispatch runs
#: in-process, so the per-cell loop would never reach the pool and
#: the comparison would stop measuring what batching saves.
SHARDS = 8


def figure3_grid(
    trials: int = DEFAULT_TRIALS, horizon: int = DEFAULT_HORIZON
) -> List[SimulationSpec]:
    """The Figure 3 sweep as specs: 4 protocols x 5 initial shares."""
    source = RandomSource(SEED)
    return [
        SimulationSpec(
            protocol=build_protocol(name, reward=0.01),
            allocation=Allocation.two_miners(share),
            trials=trials,
            horizon=horizon,
            seed=source.spawn_one(),
        )
        for name in PAPER_PROTOCOL_ORDER
        for share in SHARES
    ]


def measure_grid(
    workers: int,
    trials: int = DEFAULT_TRIALS,
    horizon: int = DEFAULT_HORIZON,
) -> Dict[str, object]:
    """Time a per-cell dispatch loop vs one batched grid dispatch.

    Both paths run the identical grid on the same runner configuration;
    the merged results are asserted bit-identical before any timing is
    reported.
    """
    specs = figure3_grid(trials, horizon)
    runner = ParallelRunner(workers=workers)

    start = time.perf_counter()
    per_cell = [runner.run(spec, shards=SHARDS) for spec in specs]
    per_cell_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched = runner.run_many(specs, shards=SHARDS)
    batched_seconds = time.perf_counter() - start

    for cell_result, grid_result in zip(per_cell, batched):
        if not (
            np.array_equal(
                cell_result.reward_fractions, grid_result.reward_fractions
            )
            and np.array_equal(
                cell_result.checkpoints, grid_result.checkpoints
            )
            and np.array_equal(
                cell_result.terminal_stakes, grid_result.terminal_stakes
            )
        ):
            raise AssertionError(
                "run_many diverged from per-cell run — refusing to "
                "report a speedup for wrong results"
            )
    return {
        "workers": workers,
        "cells": len(specs),
        "trials_per_cell": trials,
        "shards_per_cell": SHARDS,
        "horizon": horizon,
        "per_cell_seconds": round(per_cell_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "speedup": round(per_cell_seconds / batched_seconds, 2),
        "bit_identical": True,
    }


def collect(
    workers: int,
    trials: int = DEFAULT_TRIALS,
    horizon: int = DEFAULT_HORIZON,
) -> Dict[str, object]:
    return {
        "schema": "bench_grid/v1",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "seed": SEED,
        "grid": "figure3 (4 protocols x 5 shares)",
        "results": {
            f"workers_{workers}": measure_grid(workers, trials, horizon)
        },
    }


def render(report: Dict[str, object]) -> str:
    lines = [
        f"{'config':<12} {'cells':>6} {'per-cell s':>11} "
        f"{'batched s':>10} {'speedup':>8}"
    ]
    for key, row in report["results"].items():
        lines.append(
            f"{key:<12} {row['cells']:>6} {row['per_cell_seconds']:>11.2f} "
            f"{row['batched_seconds']:>10.2f} {row['speedup']:>7.2f}x"
        )
    return "\n".join(lines)


# -- standalone acceptance report ---------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    parser.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    parser.add_argument(
        "--output", default="BENCH_grid.json",
        help="where to write the JSON report (default: BENCH_grid.json)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast sanity check: assert the batched grid dispatch is no "
        "slower than per-cell, no JSON written; pins workers=4 and a "
        "small grid",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        row = measure_grid(workers=4, trials=200, horizon=150)
        print(
            f"grid smoke: per-cell {row['per_cell_seconds']:.2f}s, "
            f"batched {row['batched_seconds']:.2f}s "
            f"({row['speedup']:.2f}x, bit-identical={row['bit_identical']})"
        )
        if row["batched_seconds"] > row["per_cell_seconds"] * 1.05:
            print("FAIL: expected batched dispatch no slower than per-cell")
            return 1
        print("PASS")
        return 0

    report = collect(args.workers, args.trials, args.horizon)
    print(render(report))
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
