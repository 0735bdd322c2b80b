"""Naive vs batched kernel throughput, recorded per protocol.

The batched kernels (:mod:`repro.sim.kernels`) promise two things: a
bit-identical replay of the per-round loop, and a large constant-factor
win on the paper-scale grids.  This harness measures both — every
measurement *asserts* bit-identity before it reports a speedup — and
writes the numbers to ``BENCH_kernels.json`` so the perf trajectory of
the hot path is recorded in-repo.

Standalone (the acceptance report; writes the JSON)::

    PYTHONPATH=src python benchmarks/bench_kernels.py
        [--trials N] [--rounds N] [--protocols ml_pos,sl_pos,...]
        [--output BENCH_kernels.json]

CI sanity check (a few seconds; asserts the :data:`SMOKE_FLOORS`
speedups: batched >= 1.35x naive on two-miner C-PoS at 10,000 trials
x 300 epochs, and >= 2x on ML-PoS at 4,000 trials x 600 rounds)::

    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Dict, Optional

import numpy as np

from repro.core.miners import Allocation
from repro.protocols import (
    BlockGranularCompoundPoS,
    CompoundPoS,
    EOSDelegatedPoS,
    FairSingleLotteryPoS,
    FilecoinStorage,
    MultiLotteryPoS,
    RewardWithholding,
    SingleLotteryPoS,
)
from repro.sim.kernels import batched_advance

SEED = 2021
DEFAULT_TRIALS = 10_000

#: key -> (factory, miners, default rounds).  ML-PoS runs the issue's
#: acceptance configuration (10,000 trials x 5,000 rounds); slower
#: per-round protocols default to fewer rounds to keep the standalone
#: report under a couple of minutes.
PROTOCOLS = {
    "ml_pos": (lambda: MultiLotteryPoS(0.01), 2, 5_000),
    "ml_pos_10miners": (lambda: MultiLotteryPoS(0.01), 10, 1_000),
    "sl_pos": (lambda: SingleLotteryPoS(0.01), 2, 2_000),
    "fsl_pos": (lambda: FairSingleLotteryPoS(0.01), 2, 2_000),
    "c_pos": (lambda: CompoundPoS(0.01, 0.1, 32), 2, 500),
    "c_pos_block": (lambda: BlockGranularCompoundPoS(0.01, 0.1, 32), 2, 2_000),
    "withhold_ml": (
        lambda: RewardWithholding(MultiLotteryPoS(0.01), vesting_period=1000),
        2,
        2_000,
    ),
    "filecoin": (lambda: FilecoinStorage(0.01, storage_weight=0.5), 2, 1_000),
    "eos": (lambda: EOSDelegatedPoS(0.01, 0.05), 2, 2_000),
}


#: ``--smoke`` floors: key -> (trials, rounds, least batched/naive
#: speedup), checked in this order.  Both two-miner C-PoS paths make
#: the same inversion draw (``binomial_from_uniforms``): the naive step
#: builds each row's CDF, and the kernel looks most draws up in a
#: table, which is what the C-PoS floor guards.
SMOKE_FLOORS = {
    "c_pos": (10_000, 300, 1.35),
    "ml_pos": (4_000, 600, 2.0),
}


def _allocation(miners: int) -> Allocation:
    if miners == 2:
        return Allocation.two_miners(0.2)
    return Allocation.focal_vs_equal(0.2, miners)


def peak_rss_bytes() -> int:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    scale = 1024 if sys.platform != "darwin" else 1
    return int(usage.ru_maxrss) * scale


def measure_protocol(
    key: str,
    trials: int = DEFAULT_TRIALS,
    rounds: Optional[int] = None,
    seed: int = SEED,
) -> Dict[str, object]:
    """Time naive vs batched advance for one protocol.

    Runs the identical workload through both paths from the same seed,
    asserts the end states are bit-identical, and reports wall-clock,
    rounds/sec and the speedup.
    """
    factory, miners, default_rounds = PROTOCOLS[key]
    rounds = default_rounds if rounds is None else rounds
    allocation = _allocation(miners)

    protocol = factory()
    state = protocol.make_state(allocation, trials)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    protocol.advance_many(state, rounds, rng)
    naive_seconds = time.perf_counter() - start
    reference_rewards = state.rewards.copy()
    reference_stakes = state.stakes.copy()

    protocol = factory()
    state = protocol.make_state(allocation, trials)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    batched_advance(protocol, state, rounds, rng)
    batched_seconds = time.perf_counter() - start

    bit_identical = bool(
        np.array_equal(state.rewards, reference_rewards)
        and np.array_equal(state.stakes, reference_stakes)
    )
    if not bit_identical:
        raise AssertionError(
            f"{key}: batched kernel diverged from the naive loop — "
            "refusing to report a speedup for wrong results"
        )
    return {
        "miners": miners,
        "trials": trials,
        "rounds": rounds,
        "naive_seconds": round(naive_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "naive_rounds_per_sec": round(rounds / naive_seconds, 1),
        "batched_rounds_per_sec": round(rounds / batched_seconds, 1),
        "speedup": round(naive_seconds / batched_seconds, 2),
        "bit_identical": bit_identical,
    }


def collect(
    trials: int = DEFAULT_TRIALS,
    rounds: Optional[int] = None,
    protocols=None,
    seed: int = SEED,
) -> Dict[str, object]:
    """Measure every requested protocol and assemble the report."""
    keys = list(PROTOCOLS) if protocols is None else list(protocols)
    results = {}
    for key in keys:
        results[key] = measure_protocol(key, trials, rounds, seed)
    return {
        "schema": "bench_kernels/v1",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "peak_rss_bytes": peak_rss_bytes(),
        "results": results,
    }


def render(report: Dict[str, object]) -> str:
    lines = [
        f"{'protocol':<16} {'trials':>7} {'rounds':>7} "
        f"{'naive r/s':>10} {'batched r/s':>12} {'speedup':>8}"
    ]
    for key, row in report["results"].items():
        lines.append(
            f"{key:<16} {row['trials']:>7} {row['rounds']:>7} "
            f"{row['naive_rounds_per_sec']:>10,.0f} "
            f"{row['batched_rounds_per_sec']:>12,.0f} "
            f"{row['speedup']:>7.2f}x"
        )
    lines.append(f"peak RSS: {report['peak_rss_bytes'] / 2**20:.0f} MiB")
    return "\n".join(lines)


# -- standalone acceptance report ---------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="override every protocol's default round count",
    )
    parser.add_argument(
        "--protocols", default=None,
        help=f"comma-separated subset of {','.join(PROTOCOLS)}",
    )
    parser.add_argument(
        "--output", default="BENCH_kernels.json",
        help="where to write the JSON report (default: BENCH_kernels.json)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast sanity check: assert the SMOKE_FLOORS speedups "
        "(C-PoS >= 1.35x, ML-PoS >= 2x), no JSON written",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        failed = False
        for key, (trials, rounds, floor) in SMOKE_FLOORS.items():
            row = measure_protocol(key, trials=trials, rounds=rounds)
            print(
                f"{key} smoke ({trials:,} trials x {rounds} rounds): "
                f"naive {row['naive_rounds_per_sec']:,.0f} r/s, "
                f"batched {row['batched_rounds_per_sec']:,.0f} r/s "
                f"({row['speedup']:.2f}x, bit-identical={row['bit_identical']})"
            )
            if row["speedup"] < floor:
                print(f"FAIL: expected {key} batched >= {floor}x naive")
                failed = True
        if failed:
            return 1
        print("PASS")
        return 0

    protocols = args.protocols.split(",") if args.protocols else None
    report = collect(args.trials, args.rounds, protocols)
    print(render(report))
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    ml = report["results"].get("ml_pos")
    if ml is not None and ml["rounds"] >= 5_000 and ml["trials"] >= 10_000:
        verdict = "PASS" if ml["speedup"] >= 5.0 else "FAIL"
        print(f"ML-PoS 10k x 5k speedup >= 5x: {verdict} ({ml['speedup']:.2f}x)")
        return 0 if verdict == "PASS" else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
