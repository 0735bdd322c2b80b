"""Sharded parallel execution and result caching.

The paper's evaluation is dominated by embarrassingly parallel work:
10,000-repeat Monte Carlo ensembles (:mod:`repro.sim`) and
hundreds-of-repeats node-level system runs (:mod:`repro.chainsim`).
This package provides the execution substrate that fans that work out
across processes and memoises finished results:

spec
    :class:`SimulationSpec` / :class:`SystemSpec` — immutable,
    picklable descriptions of one ensemble run, plus the canonical
    fingerprint used as the cache key.
sharding
    Deterministic splitting of a spec into per-worker shards whose
    seeds derive from :meth:`RandomSource.spawn`, so the merged result
    is bit-identical for any worker count given a fixed shard plan.
executor
    The :class:`Executor` base with serial and :mod:`multiprocessing`
    backends: one fault-tolerant streaming loop each, with progress
    and error aggregation collected over it.
cache
    :class:`ResultCache` — content-addressed ``.npz`` storage layered
    on :mod:`repro.sim.persistence`.
runner
    :class:`ParallelRunner` — plan, fan out, merge, cache.  Shard
    results fold into a :class:`~repro.core.results.MergeAccumulator`
    in plan order as they complete (out-of-order completions staged in
    a bounded :class:`ReorderBuffer`), capping in-flight shard results
    at ``O(workers)`` while staying bit-identical to a one-shot merge.
context
    An ambient default runtime consulted by the experiment layer so
    ``--workers``/``--cache`` flags reach every figure without
    threading arguments through each config.
faults
    :class:`RetryPolicy` and the fault vocabulary: shards are
    idempotent pure functions of the plan, so transient failures are
    retried with deterministic backoff, hung workers are killed under
    a per-shard ``timeout``, dead pools respawn, and
    unrecoverable pools degrade to serial with a loud warning — all
    with bit-identical results.
journal
    :class:`RunJournal` — the JSONL sidecar that checkpoints per-spec
    shard completion (artifacts live in the cache), so an interrupted
    grid resumes (CLI ``--resume``) recomputing only unjournaled
    shards.
chaos
    :class:`ChaosExecutor` — seeded, deterministic fault injection
    (failures, delays, hangs, corrupt payloads, worker crashes) for
    the differential suites proving all of the above changes no bits.
integrity
    End-to-end SHA-256 checksums over every cached artifact (sidecar
    digests verified on read, mismatches quarantined and recomputed),
    ENOSPC degradation to pass-through behind
    :class:`CacheDegradedWarning`, and :func:`fsck` — the scan/repair
    engine behind the ``repro-fsck`` doctor CLI.
diskchaos
    :class:`DiskChaos` — seeded, deterministic *storage* fault
    injection (torn writes, failed fsyncs, full disks, hard crashes at
    every write/fsync/rename boundary) for the crash-point sweep
    suites proving recovery never serves torn bytes.
"""

from .cache import ResultCache
from .chaos import ChaosExecutor, ChaosSchedule
from .diskchaos import (
    DiskChaos,
    DiskFaultSchedule,
    SimulatedCrash,
    crashpoint,
    using_disk_chaos,
)
from .integrity import CacheDegradedWarning, FsckReport, fsck
from .context import get_default_runtime, set_default_runtime, using_runtime
from .executor import (
    Executor,
    MultiprocessingExecutor,
    SerialExecutor,
    ShardExecutionError,
    make_executor,
)
from .faults import (
    PoolDegradedWarning,
    RetryPolicy,
    ShardFailure,
    TransientShardError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from .journal import RunJournal, shard_fingerprint
from ..core.results import MergeAccumulator
from .runner import ParallelRunner, ReorderBuffer
from .sharding import DEFAULT_SHARD_COUNT, Shard, ShardPlan, plan_shards, split_evenly
from .spec import SimulationSpec, SystemSpec, spec_fingerprint

__all__ = [
    "ResultCache",
    "CacheDegradedWarning",
    "ChaosExecutor",
    "ChaosSchedule",
    "DiskChaos",
    "DiskFaultSchedule",
    "FsckReport",
    "SimulatedCrash",
    "crashpoint",
    "fsck",
    "using_disk_chaos",
    "PoolDegradedWarning",
    "RetryPolicy",
    "RunJournal",
    "ShardFailure",
    "TransientShardError",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "shard_fingerprint",
    "get_default_runtime",
    "set_default_runtime",
    "using_runtime",
    "Executor",
    "MergeAccumulator",
    "MultiprocessingExecutor",
    "SerialExecutor",
    "ShardExecutionError",
    "make_executor",
    "ParallelRunner",
    "ReorderBuffer",
    "DEFAULT_SHARD_COUNT",
    "Shard",
    "ShardPlan",
    "plan_shards",
    "split_evenly",
    "SimulationSpec",
    "SystemSpec",
    "spec_fingerprint",
]
