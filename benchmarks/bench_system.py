"""System-path throughput: object loop vs vectorized, per-protocol vs
grid-batched dispatch.

The node-level chainsim networks have two bit-identical execution
paths (``SystemExperiment(fast=...)``, mirroring the Monte Carlo
engine's ``kernel`` knob), and the figure harnesses can dispatch a
whole system sweep through one :meth:`ParallelRunner.run_system_many`
call instead of one pool dispatch per protocol.  This harness measures
both levers on a Figure-2-shaped sweep — asserting bit-identity before
any timing is reported — and writes the numbers to
``BENCH_system.json`` so the system-path perf trajectory is recorded
in-repo.

Standalone (the acceptance report; writes the JSON)::

    PYTHONPATH=src python benchmarks/bench_system.py
        [--workers 4] [--repeats-scale 1.0] [--output BENCH_system.json]

CI sanity check (~seconds; asserts the PoW, SL-PoS and C-PoS
vectorized loops no slower than their object loops, and batched
dispatch no slower than per-protocol at ``workers=4``, comparing the
medians of ``SMOKE_SWEEP_SAMPLES`` alternating runs of each)::

    PYTHONPATH=src python benchmarks/bench_system.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.chainsim.harness import SystemExperiment
from repro.core.miners import Allocation
from repro.runtime import ParallelRunner, SystemSpec
from repro.sim.rng import RandomSource

SEED = 2021
SHARE = 0.2

#: key -> (protocol, rounds, repeats): the Figure 2 system sweep at the
#: default preset's scale (PoW runs few repeats like the paper's AWS
#: deployments; PoS protocols run many).
SWEEP = (
    ("pow", "pow", 300, 5),
    ("ml_pos", "ml-pos", 500, 50),
    ("sl_pos", "sl-pos", 1500, 50),
    ("c_pos", "c-pos", 300, 50),
)

#: Per-protocol loop measurements (smaller than the sweep so the
#: standalone report stays under a couple of minutes).
PROTOCOLS = (
    ("pow", "pow", 150, 3),
    ("ml_pos", "ml-pos", 400, 6),
    ("sl_pos", "sl-pos", 1200, 6),
    ("fsl_pos", "fsl-pos", 1200, 6),
    ("fsl_pos_withhold", "fsl-pos-withhold", 1200, 6),
    ("c_pos", "c-pos", 250, 6),
)

#: The smoke's loop floors: (protocol key, rounds, repeats).  PoW runs
#: the tick network's inlined PoW race, SL-PoS the deadline race and
#: C-PoS the epoch race.
SMOKE_LOOPS = (("pow", 100, 2), ("sl_pos", 400, 4), ("c_pos", 100, 4))

#: Alternating samples of each vectorized dispatch path in the smoke's
#: sweep; the batched-dispatch floor compares their medians.
SMOKE_SWEEP_SAMPLES = 5


def _experiment(protocol: str, fast: bool) -> SystemExperiment:
    return SystemExperiment(protocol, Allocation.two_miners(SHARE), fast=fast)


def _assert_identical(reference, candidate, label: str) -> None:
    if not (
        np.array_equal(reference.reward_fractions, candidate.reward_fractions)
        and np.array_equal(reference.terminal_stakes, candidate.terminal_stakes)
        and np.array_equal(reference.checkpoints, candidate.checkpoints)
    ):
        raise AssertionError(
            f"{label}: vectorized/batched system path diverged from the "
            "reference — refusing to report a speedup for wrong results"
        )


def measure_protocol(
    key: str, rounds: int = None, repeats: int = None, seed: int = SEED
) -> Dict[str, object]:
    """Time the object loop vs the vectorized loop for one protocol.

    Runs the identical workload through ``fast=False`` and
    ``fast=True`` from the same seed, asserts the end results are
    bit-identical, and reports wall-clock, rounds/sec and the speedup.
    """
    entry = {k: (p, r, n) for k, p, r, n in PROTOCOLS}[key]
    protocol, default_rounds, default_repeats = entry
    rounds = default_rounds if rounds is None else rounds
    repeats = default_repeats if repeats is None else repeats

    start = time.perf_counter()
    naive = _experiment(protocol, fast=False).run(rounds, repeats, seed=seed)
    naive_seconds = time.perf_counter() - start

    start = time.perf_counter()
    fast = _experiment(protocol, fast=True).run(rounds, repeats, seed=seed)
    fast_seconds = time.perf_counter() - start

    _assert_identical(naive, fast, key)
    total_rounds = rounds * repeats
    return {
        "protocol": protocol,
        "rounds": rounds,
        "repeats": repeats,
        "naive_seconds": round(naive_seconds, 4),
        "vectorized_seconds": round(fast_seconds, 4),
        "naive_rounds_per_sec": round(total_rounds / naive_seconds, 1),
        "vectorized_rounds_per_sec": round(total_rounds / fast_seconds, 1),
        "speedup": round(naive_seconds / fast_seconds, 2),
        "bit_identical": True,
    }


def _sweep_specs(
    fast: bool, repeats_scale: float = 1.0
) -> List[SystemSpec]:
    """The Figure-2 system sweep as SystemSpecs, one child seed per cell."""
    source = RandomSource(SEED)
    return [
        SystemSpec(
            experiment=_experiment(protocol, fast=fast),
            rounds=rounds,
            repeats=max(2, int(round(repeats * repeats_scale))),
            seed=source.spawn_one(),
        )
        for _, protocol, rounds, repeats in SWEEP
    ]


def measure_sweep(
    workers: int = 4, repeats_scale: float = 1.0, samples: int = 1
) -> Dict[str, object]:
    """Time the Figure-2 system sweep: old path vs new path.

    * ``old``: object loop (``fast=False``), one pool dispatch per
      protocol — how the harness ran before the vectorized loop and
      ``run_system_many`` batching.
    * ``new``: vectorized loop (``fast=True``), every shard of every
      protocol in one ``run_system_many`` dispatch.

    The two intermediate combinations are also timed so the report
    separates the two levers.  The two vectorized paths, per-protocol
    and batched dispatch, run alternately ``samples`` times each (the
    first of each pair alternating too) and report their medians, so
    one slow pass on a shared host does not decide the dispatch
    comparison.  Every run is asserted bit-identical per protocol to
    the old path before any timing is reported.
    """
    runner = ParallelRunner(workers=workers)

    naive_specs = _sweep_specs(fast=False, repeats_scale=repeats_scale)
    fast_specs = _sweep_specs(fast=True, repeats_scale=repeats_scale)

    def per_protocol(specs):
        return [
            runner.run_system(
                spec.experiment, spec.rounds, spec.repeats, seed=spec.seed
            )
            for spec in specs
        ]

    def timed(run, specs):
        start = time.perf_counter()
        results = run(specs)
        return results, time.perf_counter() - start

    old, old_seconds = timed(per_protocol, naive_specs)

    def check(results):
        for (key, _, _, _), reference, candidate in zip(SWEEP, old, results):
            _assert_identical(reference, candidate, key)

    batched_naive, batched_naive_seconds = timed(
        runner.run_system_many, naive_specs
    )
    check(batched_naive)
    seconds: Dict[str, List[float]] = {"per_protocol": [], "batched": []}
    paths = (("per_protocol", per_protocol), ("batched", runner.run_system_many))
    for sample in range(samples):
        for name, run in paths if sample % 2 == 0 else paths[::-1]:
            results, elapsed = timed(run, fast_specs)
            check(results)
            seconds[name].append(elapsed)
    per_protocol_fast_seconds = statistics.median(seconds["per_protocol"])
    new_seconds = statistics.median(seconds["batched"])

    return {
        "workers": workers,
        "protocols": [protocol for _, protocol, _, _ in SWEEP],
        "rounds": [rounds for _, _, rounds, _ in SWEEP],
        "repeats": [spec.repeats for spec in fast_specs],
        "samples": samples,
        "old_seconds": round(old_seconds, 4),
        "vectorized_only_seconds": round(per_protocol_fast_seconds, 4),
        "batched_only_seconds": round(batched_naive_seconds, 4),
        "new_seconds": round(new_seconds, 4),
        "vectorized_speedup": round(old_seconds / per_protocol_fast_seconds, 2),
        "batched_speedup": round(old_seconds / batched_naive_seconds, 2),
        "combined_speedup": round(old_seconds / new_seconds, 2),
        "bit_identical": True,
    }


def collect(workers: int = 4, repeats_scale: float = 1.0) -> Dict[str, object]:
    """Measure every protocol plus the sweep and assemble the report."""
    results: Dict[str, object] = {
        key: measure_protocol(key) for key, _, _, _ in PROTOCOLS
    }
    results["figure2_sweep"] = measure_sweep(workers, repeats_scale)
    return {
        "schema": "bench_system/v1",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "seed": SEED,
        "results": results,
    }


def render(report: Dict[str, object]) -> str:
    lines = [
        f"{'protocol':<18} {'rounds':>7} {'repeats':>8} "
        f"{'naive r/s':>10} {'vector r/s':>11} {'speedup':>8}"
    ]
    for key, row in report["results"].items():
        if key == "figure2_sweep":
            continue
        lines.append(
            f"{key:<18} {row['rounds']:>7} {row['repeats']:>8} "
            f"{row['naive_rounds_per_sec']:>10,.0f} "
            f"{row['vectorized_rounds_per_sec']:>11,.0f} "
            f"{row['speedup']:>7.2f}x"
        )
    sweep = report["results"]["figure2_sweep"]
    lines.append(
        f"figure2 sweep (workers={sweep['workers']}): "
        f"old {sweep['old_seconds']:.2f}s -> new {sweep['new_seconds']:.2f}s "
        f"({sweep['combined_speedup']:.2f}x combined; vectorized alone "
        f"{sweep['vectorized_speedup']:.2f}x, batched alone "
        f"{sweep['batched_speedup']:.2f}x)"
    )
    return "\n".join(lines)


# -- standalone acceptance report ---------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--repeats-scale", type=float, default=1.0,
        help="scale the sweep's repeat counts (default 1.0)",
    )
    parser.add_argument(
        "--output", default="BENCH_system.json",
        help="where to write the JSON report (default: BENCH_system.json)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast sanity check: the PoW, SL-PoS and C-PoS vectorized loops "
        "no slower than their object loops, batched dispatch no slower "
        "than per-protocol at workers=4; no JSON written",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        loops = [
            measure_protocol(key, rounds=rounds, repeats=repeats)
            for key, rounds, repeats in SMOKE_LOOPS
        ]
        for loop in loops:
            print(
                f"system loop smoke ({loop['protocol']}): "
                f"naive {loop['naive_seconds']:.2f}s, "
                f"vectorized {loop['vectorized_seconds']:.2f}s "
                f"({loop['speedup']:.2f}x, "
                f"bit-identical={loop['bit_identical']})"
            )
        sweep = measure_sweep(
            workers=4, repeats_scale=0.2, samples=SMOKE_SWEEP_SAMPLES
        )
        print(
            f"system sweep smoke: old {sweep['old_seconds']:.2f}s, "
            f"new {sweep['new_seconds']:.2f}s "
            f"({sweep['combined_speedup']:.2f}x, "
            f"bit-identical={sweep['bit_identical']}); "
            f"median of {sweep['samples']}: per-protocol "
            f"{sweep['vectorized_only_seconds']:.2f}s, batched "
            f"{sweep['new_seconds']:.2f}s"
        )
        failed = False
        for loop in loops:
            if loop["vectorized_seconds"] > loop["naive_seconds"] * 1.05:
                print(f"FAIL: expected the {loop['protocol']} vectorized "
                      "loop no slower than the object loop")
                failed = True
        if sweep["new_seconds"] > sweep["vectorized_only_seconds"] * 1.10:
            print("FAIL: expected batched dispatch no slower than "
                  "per-protocol dispatch")
            failed = True
        print("FAIL" if failed else "PASS")
        return 1 if failed else 0

    report = collect(args.workers, args.repeats_scale)
    print(render(report))
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    sweep = report["results"]["figure2_sweep"]
    verdict = "PASS" if sweep["combined_speedup"] >= 2.0 else "FAIL"
    print(
        f"figure2 sweep combined speedup >= 2x: {verdict} "
        f"({sweep['combined_speedup']:.2f}x)"
    )
    return 0 if verdict == "PASS" else 1


if __name__ == "__main__":
    raise SystemExit(main())
