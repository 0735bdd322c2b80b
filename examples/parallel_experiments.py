"""Parallel + cached experiments with ``repro.runtime``.

Demonstrates the ways to use the runtime layer:

1. the high-level :class:`MiningGame` knobs (``workers=``, ``cache=``),
2. an explicit :class:`ParallelRunner` over a :class:`SimulationSpec`
   (pin ``shards`` to make merged results bit-identical across any
   worker count),
3. grid batching (``run_many``): a whole sweep of specs — every
   uncached shard of every cell — in a single pool dispatch,
   bit-identical to running the specs one at a time,

4. the ambient runtime that the ``repro-experiments`` CLI flags map
   to (figure grids go through ``run_many``, with a per-shard
   progress line on stderr)::

       repro-experiments fig3 --preset ci --workers 4 --cache results/.cache

5. the batched kernel layer (``kernel="batched"``, the default): fused
   multi-round advances that are bit-identical to the per-round loop
   but ~10x faster on the paper's ML-PoS headline configuration,

6. the node-level system path: a whole system sweep batched through
   ``run_system_many`` in one dispatch, and the networks' vectorized
   hot loop with its ``fast=False`` escape hatch (the system-side
   analogue of ``kernel="naive"`` — bit-identical either way),

7. the streaming shard merge: shard results fold into the merged
   ensemble as they complete instead of piling up for a terminal
   merge, so a 100k-trial run peaks near ONE merged ensemble in
   memory — bit-identical to merging every shard at once,

8. runtime telemetry (``repro.obs``, the CLI's ``--trace PATH`` and
   ``--metrics``): install an ambient span tracer + metrics registry
   around any run and get per-shard submit/run/complete/merge spans
   (worker telemetry ships home inside the shard payloads, even
   across process boundaries), cache hit/miss/eviction counters, and
   kernel batched-vs-naive timings — summarized as a table, written
   as JSONL for ``repro-trace summarize``.  Telemetry never enters
   cache fingerprints and never touches random state: traced and
   untraced runs are bit-identical and share cache artifacts,

9. fault-tolerant execution (the CLI's ``--retries N``,
   ``--shard-timeout SECONDS`` and ``--resume``): shards are
   idempotent pure functions of the plan, so transient failures —
   flaky task errors, hung workers, crashed worker processes — are
   retried with deterministic backoff, per-shard deadlines kill stuck
   workers (respawning dead pools, degrading to serial with
   a loud warning only when a pool is unrecoverable), and a JSONL
   journal next to the cache checkpoints per-spec shard completion so
   a killed grid resumes recomputing only what was never journaled.
   Doctrine: retry/timeout/resume knobs never enter cache
   fingerprints, and backoff jitter is SHA-256-derived (no RNG) — a
   run that survived faults is bit-identical to one that never saw
   any, and shares its cache artifacts.  The seeded
   :class:`ChaosExecutor` proves it by injecting deterministic fault
   schedules in the differential suite,

10. the doctrine linter (``repro-lint``, the CI gate): the invariants
    behind all of the above, enforced statically,

11. storage integrity (``repro-fsck``, the CLI's ``--no-verify``
    opt-out): every cached artifact carries a SHA-256 sidecar,
    verified on read — bit rot is quarantined (never served, never
    silently deleted) and the slot recomputes bit-identically; a
    full disk degrades the cache to pass-through behind a loud
    warning instead of failing the run; ``repro-fsck --repair``
    scans and heals a cache+journal tree offline,

12. sufficient-statistics ensembles (``reduce="stats"``, the CLI's
    ``--reduce stats``): shards fold straight into mergeable moments,
    fixed-grid CDF sketches, and exact event counters instead of the
    ``(trials, checkpoints, miners)`` trajectory cube, so
    population-scale trial counts run in memory bounded by one shard
    — and the figure-facing numbers (unfair-probability series at the
    recorded epsilon, win/monopolisation counters) are bit-identical
    to full mode at the same shard plan.  ``reduce`` is a *physics*
    knob: unlike ``kernel``/``fast``/``workers`` it enters cache
    fingerprints, so the two artifact shapes never share an entry.

How the knobs compose: the kernel attacks per-round *depth*, workers
attack ensemble *breadth*.  Start with ``workers=1`` + the default
batched kernel; once a single run takes seconds, add workers, which
fan shards out across a process pool.

Run:  python examples/parallel_experiments.py
"""

import os
import tempfile
import time

import numpy as np

from repro import Allocation, MiningGame
from repro.experiments.config import CI
from repro.experiments.registry import run_experiment
from repro.protocols import MultiLotteryPoS
from repro.runtime import ParallelRunner, SimulationSpec, using_runtime

WORKERS = min(4, os.cpu_count() or 1)


def main() -> None:
    allocation = Allocation.two_miners(0.2)

    # 1. One-call API: shard the ensemble over processes and memoise it.
    with tempfile.TemporaryDirectory() as cache_dir:
        game = MiningGame(MultiLotteryPoS(reward=0.01), allocation)
        start = time.perf_counter()
        report = game.play(
            horizon=2000, trials=4000, seed=2021,
            workers=WORKERS, cache=cache_dir,
        )
        cold = time.perf_counter() - start
        start = time.perf_counter()
        game.play(horizon=2000, trials=4000, seed=2021,
                  workers=WORKERS, cache=cache_dir)
        warm = time.perf_counter() - start
        print(f"E[lambda_A] = {report.expectational.sample_mean:.4f} "
              f"(cold {cold:.2f}s, warm cache hit {warm:.2f}s)")

    # 2. Explicit specs: worker count never changes the merged bits for
    #    a fixed shard plan.
    spec = SimulationSpec(
        protocol=MultiLotteryPoS(reward=0.01),
        allocation=allocation,
        trials=1000,
        horizon=500,
        seed=7,
    )
    serial = ParallelRunner(workers=1).run(spec, shards=4)
    parallel = ParallelRunner(workers=WORKERS).run(spec, shards=4)
    identical = np.array_equal(serial.reward_fractions, parallel.reward_fractions)
    print(f"workers=1 vs workers={WORKERS}, same 4-shard plan: "
          f"bit-identical = {identical}")

    # 3. Grid batching: a figure sweep is many small specs.  run_many
    #    checks the cache per spec, then ships every uncached shard of
    #    every cell to the pool in ONE dispatch — same bits as a
    #    per-cell loop of run(), without paying pool latency per cell.
    grid = [
        SimulationSpec(
            protocol=MultiLotteryPoS(reward=0.01),
            allocation=Allocation.two_miners(share),
            trials=500,
            horizon=400,
            seed=seed,
        )
        for seed, share in enumerate((0.1, 0.2, 0.3, 0.4, 0.5))
    ]
    runner = ParallelRunner(workers=WORKERS)
    start = time.perf_counter()
    per_cell = [runner.run(spec, shards=4) for spec in grid]
    loop_s = time.perf_counter() - start
    start = time.perf_counter()
    batched = runner.run_many(grid, shards=4)
    many_s = time.perf_counter() - start
    identical = all(
        np.array_equal(a.reward_fractions, b.reward_fractions)
        for a, b in zip(per_cell, batched)
    )
    print(f"5-cell grid: per-cell loop {loop_s:.2f}s vs run_many "
          f"{many_s:.2f}s, bit-identical = {identical}")

    # 4. Ambient runtime: everything an experiment runs — Monte Carlo
    #    grids and node-level system repeats alike — is sharded and
    #    cached, with no per-figure plumbing.  Figure grids go through
    #    run_many, so fig3's 20 cells are one pool dispatch.  This is
    #    exactly what `repro-experiments fig3 --workers 4 --cache DIR`
    #    does.
    with tempfile.TemporaryDirectory() as cache_dir:
        runner = ParallelRunner(workers=WORKERS, cache=cache_dir)
        with using_runtime(runner):
            run_experiment("fig3", CI, seed=1)
        print(f"fig3 at CI scale populated {len(runner.cache)} cache "
              f"entries ({runner.cache.hits} hits, "
              f"{runner.cache.misses} misses)")
        with using_runtime(runner):
            run_experiment("fig3", CI, seed=1)
        print(f"rerun: {runner.cache.hits} hits — near-free")

    # 5. Batched kernels: the default advance path fuses whole
    #    checkpoint segments into a handful of NumPy dispatches with
    #    pre-drawn uniform blocks and reused scratch buffers.  The
    #    naive per-round loop is kept as an escape hatch — and the two
    #    are bit-identical, as the comparison below shows.
    game = MiningGame(MultiLotteryPoS(reward=0.01), allocation)
    start = time.perf_counter()
    naive = game.simulate(horizon=3000, trials=4000, seed=3, kernel="naive")
    naive_s = time.perf_counter() - start
    start = time.perf_counter()
    batched = game.simulate(horizon=3000, trials=4000, seed=3)  # default
    batched_s = time.perf_counter() - start
    identical = np.array_equal(
        naive.reward_fractions, batched.reward_fractions
    )
    print(f"kernel='naive' {naive_s:.2f}s vs batched {batched_s:.2f}s "
          f"({naive_s / batched_s:.1f}x), bit-identical = {identical}")

    # 6. The system path: node-level repeats batched like a figure
    #    grid.  SystemSpecs for several protocols go to the pool in ONE
    #    run_system_many dispatch (this is what fig2/fig6 do through
    #    experiments._common.run_system_grid), and the chainsim
    #    networks run their vectorized loop — batched hash-oracle
    #    draws, preallocated NumPy income ledgers.  fast=False is the
    #    per-object reference loop, bit-identical by the differential
    #    suite, and both flavors share one cache fingerprint.
    from repro.chainsim.harness import SystemExperiment
    from repro.runtime import SystemSpec

    sweep = [
        SystemSpec(
            experiment=SystemExperiment(protocol, allocation),
            rounds=150,
            repeats=6,
            seed=index,
        )
        for index, protocol in enumerate(("ml-pos", "sl-pos", "fsl-pos"))
    ]
    runner = ParallelRunner(workers=WORKERS)
    start = time.perf_counter()
    batched_system = runner.run_system_many(sweep, shards=2)
    sweep_s = time.perf_counter() - start
    print(f"3-protocol system sweep in one dispatch: {sweep_s:.2f}s "
          f"({sum(r.trials for r in batched_system)} deployments)")

    fast = SystemExperiment("sl-pos", allocation).run(400, 6, seed=9)
    start = time.perf_counter()
    slow = SystemExperiment("sl-pos", allocation, fast=False).run(400, 6, seed=9)
    naive_s = time.perf_counter() - start
    start = time.perf_counter()
    SystemExperiment("sl-pos", allocation).run(400, 6, seed=9)
    fast_s = time.perf_counter() - start
    identical = np.array_equal(slow.reward_fractions, fast.reward_fractions)
    print(f"sl-pos system loop: fast=False {naive_s:.2f}s vs fast=True "
          f"{fast_s:.2f}s ({naive_s / fast_s:.1f}x), "
          f"bit-identical = {identical}")

    # 7. Streaming merge on a large ensemble: collecting every shard
    #    result and then concatenating would hold both at its peak;
    #    the runner preallocates the merged arrays once and folds each
    #    shard as it completes (out-of-order completions wait in a
    #    bounded reorder buffer), so peak memory stays near one merged
    #    ensemble no matter how many shards the run splits into.  This
    #    is what every `repro-experiments fig3 --workers 4` run does.
    import tracemalloc

    big = SimulationSpec(
        protocol=MultiLotteryPoS(reward=0.01),
        allocation=allocation,
        trials=100_000,
        horizon=200,
        checkpoints=tuple(range(20, 220, 20)),
        seed=2021,
    )
    tracemalloc.start()
    result = ParallelRunner(workers=1).run(big, shards=32)
    _, stream_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    merged_bytes = result.reward_fractions.nbytes + result.terminal_stakes.nbytes
    print(f"100k-trial ensemble, 32 shards: streaming peak "
          f"{stream_peak / 1e6:.0f} MB for a {merged_bytes / 1e6:.0f} MB "
          f"merged ensemble ({result.trials} trials)")

    # 8. Telemetry: wrap any run in an ambient tracer + metrics
    #    registry and every layer underneath reports in — the runner
    #    emits a root span and per-shard submit/merge events, the
    #    executors stamp completions, workers trace their shard.run
    #    (and the cache/kernel spans inside it) into a private buffer
    #    that ships home WITH the shard payload, so nothing is lost to
    #    process boundaries.  This is what
    #    `repro-experiments fig2 --workers 2 --trace run.jsonl --metrics`
    #    does; `repro-trace summarize run.jsonl` reads it back later.
    #    Doctrine: telemetry never enters cache fingerprints and never
    #    touches random state — a traced run is bit-identical to an
    #    untraced one and loads the same cache artifacts.
    from repro.obs import (
        MetricsRegistry, Tracer, summarize_spans,
        using_metrics, using_tracer,
    )

    tracer, metrics = Tracer(), MetricsRegistry()
    with using_tracer(tracer), using_metrics(metrics):
        traced = ParallelRunner(workers=WORKERS).run_many(grid, shards=4)
    identical = all(
        np.array_equal(a.reward_fractions, b.reward_fractions)
        for a, b in zip(per_cell, traced)
    )
    summary = summarize_spans(tracer.spans)
    shards = summary["shards"]
    kernel_calls = sum(
        mode["calls"] for mode in summary["kernel"].values()
    )
    print(f"traced rerun of the 5-cell grid: {len(tracer)} spans, "
          f"{shards['completed']} shards "
          f"(queue-wait p90 {shards['queue_wait']['p90'] * 1e3:.1f}ms, "
          f"merge-lag p90 {shards['merge_lag']['p90'] * 1e3:.1f}ms), "
          f"{kernel_calls} kernel calls, "
          f"{metrics.counter('runner.shards_dispatched').value} shards "
          f"dispatched, bit-identical to untraced = {identical}")

    # 9. Fault tolerance: wrap an executor in seeded chaos — injected
    #    transient failures, corrupt payloads, delays — and a retry
    #    policy absorbs every fault while the merged bits stay
    #    identical to a run that never failed.  The journal makes a
    #    killed grid resumable: rerunning with the same cache+journal
    #    recomputes only unjournaled shards.  This is what
    #    `repro-experiments fig2 --workers 4 --cache DIR --retries 3
    #    --shard-timeout 300 --resume` does.
    from repro.runtime import ChaosExecutor, ChaosSchedule, make_executor

    with tempfile.TemporaryDirectory() as root:
        schedule = ChaosSchedule(
            seed=11, state_dir=os.path.join(root, "chaos-state"),
            fail_rate=0.4, corrupt_rate=0.3, max_faults_per_task=2,
        )
        inner = make_executor(WORKERS, retry=4)
        chaotic_runner = ParallelRunner(
            executor=ChaosExecutor(inner, schedule),
            cache=os.path.join(root, "cache"),
            journal=os.path.join(root, "cache", "journal.jsonl"),
        )
        survived = chaotic_runner.run(spec, shards=4)
        identical = np.array_equal(
            survived.reward_fractions, serial.reward_fractions
        )
        print(f"chaos run (fail_rate=0.4, corrupt_rate=0.3): "
              f"{chaotic_runner.shards_retried} retries absorbed, "
              f"bit-identical to the clean run = {identical}")

        resumed_runner = ParallelRunner(
            workers=1,
            cache=os.path.join(root, "cache"),
            journal=os.path.join(root, "cache", "journal.jsonl"),
        )
        resumed_runner.run(spec, shards=4)
        print(f"rerun with the same cache+journal: "
              f"{resumed_runner.cache.hits} cache hit(s) — "
              f"nothing recomputed")

    # 10. Doctrine lint: everything above only works because of
    #     invariants no test can see locally — execution knobs stay
    #     out of cache fingerprints, retry jitter never consumes RNG,
    #     shard payloads stay picklable, shared tallies stay under
    #     their locks.  `repro-lint src/` (the CI gate) enforces those
    #     invariants statically; the same engine is importable, so a
    #     snippet can be checked in-process.  Note the waiver with its
    #     mandatory reason — a reason-less waiver is itself a finding.
    from repro.lint import check_source

    snippet = (
        "import time\n"
        "started = time.time()"
        "  # repro-lint: disable=DET003  # example metadata only\n"
        "\n"
        "deadline = time.time() + 60\n"
    )
    report = check_source(snippet, "snippet.py",
                          relpath="repro/runtime/chaos.py")
    print(f"repro-lint on a chaos-module snippet: "
          f"{len(report.findings)} finding(s) "
          f"({len(report.waived)} waived) — "
          + "; ".join(f"{f.rule} line {f.line}" for f in report.findings))

    # 11. Storage integrity: flip one byte in a cached artifact and the
    #     verify-on-read gate quarantines it (evidence preserved under
    #     <cache>/quarantine/, never served) and the next run
    #     recomputes the identical bytes.  `repro-fsck --repair` does
    #     the same scan offline — plus digest adoption, orphan sweeps
    #     and journal compaction — and exits 0 only when the tree
    #     re-scans clean.
    from repro.runtime.cache import ResultCache
    from repro.runtime.integrity import fsck
    from repro.runtime.spec import spec_fingerprint

    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        runner = ParallelRunner(workers=1, cache=cache)
        clean = runner.run(spec, shards=4)
        key = spec_fingerprint(spec, shards=4)
        artifact = cache.path_for(key)
        pristine = artifact.read_bytes()
        damaged = bytearray(pristine)
        damaged[len(damaged) // 2] ^= 0xFF  # one flipped bit of rot
        artifact.write_bytes(bytes(damaged))

        healed = ParallelRunner(workers=1, cache=cache).run(spec, shards=4)
        identical = artifact.read_bytes() == pristine
        report = fsck(root)
        print(f"flipped-byte artifact: quarantined={cache.quarantined}, "
              f"recomputed bit-identical = "
              f"{identical and np.array_equal(healed.reward_fractions, clean.reward_fractions)}, "
              f"fsck clean={report.clean} "
              f"(quarantine holds {report.quarantine_entries} entry)")

    # 12. Sufficient statistics: the same big ensemble as section 7,
    #     but the shards never assemble into a trajectory cube —
    #     each folds into count/mean/M2 moments, 1024-bin CDF
    #     sketches, and exact unfair/win/monopolisation counters, so
    #     the parent's peak memory is bounded by one shard no matter
    #     the trial count.  The figure queries come back exact: at
    #     the recorded epsilon the unfair series is bit-identical to
    #     full mode at the same shard plan.  This is what
    #     `repro-experiments fig3 --workers 4 --reduce stats` does.
    #     Asking a stats artifact for raw trajectories raises with a
    #     hint to rerun under reduce='full' — no silent approximation.
    import dataclasses

    full_big = ParallelRunner(workers=1).run(big, shards=32)
    stats_spec = dataclasses.replace(big, reduce="stats")
    tracemalloc.start()
    stats_big = ParallelRunner(workers=1).run(stats_spec, shards=32)
    _, stats_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    series_identical = np.array_equal(
        full_big.unfair_probabilities(epsilon=0.1),
        stats_big.unfair_probabilities(epsilon=0.1),
    )
    try:
        stats_big.fractions_of(0)
        refused = False
    except TypeError:
        refused = True
    print(f"reduce='stats' on the 100k-trial ensemble: peak "
          f"{stats_peak / 1e6:.0f} MB (vs {stream_peak / 1e6:.0f} MB "
          f"streaming full mode), unfair series bit-identical = "
          f"{series_identical}, trajectory access refused = {refused}")


if __name__ == "__main__":
    main()
