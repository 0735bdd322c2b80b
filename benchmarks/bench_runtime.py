"""Benchmarks of the runtime layer: sharded speedup and cache hits.

Two headline numbers:

* **parallel speedup** — wall-clock of a 10,000-trial ML-PoS ensemble
  through the serial engine vs :class:`ParallelRunner` at
  ``workers=4`` (one shard per worker); on a >= 4-core machine the
  sharded run should finish in under half the serial time;
* **cache ratio** — a warm-cache rerun of the same spec should
  complete in under 10% of the cold run.

Standalone (the acceptance report)::

    PYTHONPATH=src python benchmarks/bench_runtime.py [--trials N]
        [--horizon N] [--workers N] [--cache DIR]
"""

from __future__ import annotations

import argparse
import os
import time

from repro.core.miners import Allocation
from repro.protocols import MultiLotteryPoS
from repro.runtime import ParallelRunner, SimulationSpec
from repro.sim.engine import MonteCarloEngine
from repro.sim.rng import RandomSource

SEED = 2021


def make_spec(trials: int, horizon: int) -> SimulationSpec:
    return SimulationSpec(
        protocol=MultiLotteryPoS(0.01),
        allocation=Allocation.two_miners(0.2),
        trials=trials,
        horizon=horizon,
        seed=SEED,
    )


def run_serial_engine(trials: int, horizon: int):
    engine = MonteCarloEngine(
        MultiLotteryPoS(0.01),
        Allocation.two_miners(0.2),
        trials=trials,
        seed=RandomSource(SEED),
    )
    return engine.run(horizon)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


# -- standalone acceptance report ---------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--horizon", type=int, default=1_000)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--cache", default=None, help="cache dir (default: temp)")
    args = parser.parse_args(argv)

    import tempfile

    spec = make_spec(args.trials, args.horizon)
    print(f"ensemble: ML-PoS, trials={args.trials}, horizon={args.horizon}, "
          f"cpus={os.cpu_count()}")

    serial_time, serial = _timed(run_serial_engine, args.trials, args.horizon)
    print(f"serial engine           : {serial_time:8.2f}s")

    runner = ParallelRunner(workers=args.workers)
    parallel_time, parallel = _timed(runner.run, spec, shards=args.workers)
    speedup = serial_time / parallel_time
    print(f"workers={args.workers} ({args.workers} shards)  : "
          f"{parallel_time:8.2f}s  ({speedup:.2f}x vs serial)")
    assert parallel.trials == serial.trials

    with tempfile.TemporaryDirectory() as fallback:
        cached = ParallelRunner(
            workers=args.workers, cache=args.cache or fallback
        )
        cold_time, _ = _timed(cached.run, spec, shards=args.workers)
        warm_time, _ = _timed(cached.run, spec, shards=args.workers)
        ratio = 100.0 * warm_time / cold_time
        print(f"cold run (cache store)  : {cold_time:8.2f}s")
        print(f"warm run (cache hit)    : {warm_time:8.2f}s  "
              f"({ratio:.1f}% of cold)")

    ok_speed = speedup >= 2.0 or (os.cpu_count() or 1) < 4
    ok_cache = warm_time < 0.1 * cold_time
    print(f"speedup >= 2x           : "
          f"{'PASS' if speedup >= 2.0 else 'n/a (needs >=4 cores)' if ok_speed else 'FAIL'}")
    print(f"warm < 10% of cold      : {'PASS' if ok_cache else 'FAIL'}")
    return 0 if (ok_speed and ok_cache) else 1


if __name__ == "__main__":
    raise SystemExit(main())
