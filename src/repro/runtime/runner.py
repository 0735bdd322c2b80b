"""The parallel runner: plan shards, fan out, merge, cache.

:class:`ParallelRunner` is the façade of :mod:`repro.runtime`.  Given
a :class:`~repro.runtime.spec.SimulationSpec` (Monte Carlo ensemble)
or a system experiment (node-level repeats) it

1. checks the content-addressed cache for a previous merged result,
2. splits the work into a worker-count-independent shard plan,
3. streams the shards through the configured executor (serial or
   processes), and
4. folds each shard into a
   :class:`~repro.core.results.MergeAccumulator` in plan order the
   moment it clears the :class:`ReorderBuffer`, so at most
   ``O(workers)`` shard results are in flight instead of
   ``O(shards)``.

Because the plan and the merge order are independent of the executor,
``workers=1`` and ``workers=16`` produce bit-identical merged arrays
for the same spec and shard count — and the default shard count is a
function of the spec alone.

Grids of specs (the per-``(a, w, v)`` cells of the paper's figure
sweeps) go through :meth:`ParallelRunner.run_many` /
:meth:`ParallelRunner.run_system_many`: per-spec cache checks and
plans, but one pool dispatch for every uncached shard of every spec —
bit-identical to running the specs one at a time, without the per-cell
dispatch latency or the worker idling between cells.

The shard task functions are module-level so they pickle by reference
under every multiprocessing start method.
"""

from __future__ import annotations

import pathlib
import threading
from typing import (
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .._validation import ensure_positive_int
from ..core.results import EnsembleResult, MergeAccumulator, merge_parts
from ..obs import ShardEnvelope, ingest_envelope
from ..obs.metrics import MetricsRegistry, get_metrics, using_worker_metrics
from ..obs.trace import Tracer, get_tracer, using_worker_tracer
from ..sim.rng import RandomSource, SeedLike
from .cache import ResultCache
from .executor import (
    Executor,
    ProgressCallback,
    ShardExecutionError,
    _failure_triple,
    _format_exception,
    make_executor,
)
from .faults import RetryPolicy
from .journal import RunJournal, shard_fingerprint
from .sharding import (
    MIN_SHARD_REPEATS,
    MIN_SHARD_TRIALS,
    Shard,
    default_shard_count,
    plan_shards,
)
from .spec import SimulationSpec, SystemSpec, spec_fingerprint

__all__ = ["ParallelRunner", "ReorderBuffer"]


class ReorderBuffer:
    """Stage out-of-order completions, releasing them in index order.

    The streaming merge must fold shard results in *plan* order (the
    order that makes merged bits worker-count-independent), but a pool
    completes shards in whatever order they finish.  The buffer holds
    the completions that arrived early; :meth:`push` returns every item
    that just became consumable, in index order.

    Occupancy is bounded by the executor's submission window, not the
    task count: at most ``window`` tasks are in flight, so at most
    ``window - 1`` completions can be staged ahead of the next index.

    Parameters
    ----------
    total:
        Number of indices the buffer will see (0..total-1, each exactly
        once).
    """

    def __init__(self, total: int) -> None:
        if total < 0:
            raise ValueError(f"total must be non-negative, got {total}")
        self.total = total
        self._next = 0
        self._staged: Dict[int, Any] = {}

    @property
    def staged(self) -> int:
        """Completions held waiting for an earlier index."""
        return len(self._staged)

    @property
    def released(self) -> int:
        """Completions already handed out in index order."""
        return self._next

    @property
    def complete(self) -> bool:
        """Whether every index has been pushed and released."""
        return self._next == self.total and not self._staged

    def push(self, index: int, item: Any) -> List[Tuple[int, Any]]:
        """Stage one completion; return the items now consumable, in order."""
        if not 0 <= index < self.total:
            raise IndexError(
                f"index {index} out of range for a {self.total}-item buffer"
            )
        if index < self._next or index in self._staged:
            raise ValueError(f"index {index} was already pushed")
        self._staged[index] = item
        released: List[Tuple[int, Any]] = []
        while self._next in self._staged:
            released.append((self._next, self._staged.pop(self._next)))
            self._next += 1
        return released

    def __repr__(self) -> str:
        return (
            f"ReorderBuffer(next={self._next}, total={self.total}, "
            f"staged={self.staged})"
        )


class _Pending(NamedTuple):
    """One uncached spec of a dispatch: where its dispatched shards live
    in the task list, which plan ordinals they map to, and where its
    merged result goes.  With a journal, shards recovered from a prior
    (interrupted) run ride along as ``preloaded`` and are *not*
    dispatched — ``ordinals`` maps each dispatched task offset back to
    its plan ordinal so the merge interleaves both sources in plan
    order."""

    position: int  # slot in the caller's result list
    key: Optional[str]  # cache fingerprint, None when caching is off
    start: int  # first task index of this spec's dispatched shards
    count: int  # number of dispatched shards
    trials: int  # total trials across the shards (the plan total)
    shards: int  # total shards in the plan (count + preloaded)
    ordinals: Tuple[int, ...]  # dispatched offset -> plan ordinal
    preloaded: Tuple[Tuple[int, Any], ...]  # (ordinal, result) recovered


def _traced_shard(body, spec, shard, index: int, kind: str) -> ShardEnvelope:
    """Run one shard under a fresh worker-local tracer and registry.

    The worker must not record into a forked copy of the parent's
    tracer (its buffer dies with the child) nor — on the serial
    backend — into the parent's live tracer (the shipped spans would
    then be ingested twice).  A private pair, installed as thread-local
    overrides so nested kernel/cache/chainsim instrumentation lands in
    it, sidesteps both; the envelope carries everything home.
    """
    tracer = Tracer()
    metrics = MetricsRegistry()
    with using_worker_tracer(tracer), using_worker_metrics(metrics):
        with tracer.span(
            "shard.run",
            task=index,
            shard=shard.index,
            trials=shard.trials,
            kind=kind,
        ):
            payload = body(spec, shard)
    return ShardEnvelope(payload, tracer.drain(), metrics.snapshot())


def _simulation_shard_body(spec: SimulationSpec, shard: Shard):
    from ..sim.engine import MonteCarloEngine

    engine = MonteCarloEngine(
        spec.protocol,
        spec.allocation,
        trials=shard.trials,
        seed=RandomSource(shard.seed),
        kernel=spec.kernel,
    )
    # Under reduce="stats" the engine folds checkpoints straight into a
    # StatsSummary — the shard's trajectory cube is never allocated.
    return engine.run(
        spec.horizon,
        spec.checkpoints,
        events=spec.events,
        record_terminal_stakes=spec.record_terminal_stakes,
        reduce=spec.reduce,
    )


def _run_simulation_shard(task) -> Any:
    """Worker entry point: run one chunk of a Monte Carlo ensemble.

    ``task`` is ``(spec, shard)`` on an untraced dispatch (identical
    pickle profile to every prior release) or ``(spec, shard,
    task_index)`` when telemetry is on, in which case the return value
    is a :class:`~repro.obs.ShardEnvelope` carrying the worker's spans
    and metrics alongside the result.
    """
    if len(task) == 2:
        spec, shard = task
        return _simulation_shard_body(spec, shard)
    spec, shard, index = task
    return _traced_shard(_simulation_shard_body, spec, shard, index, "sim")


def _system_shard_body(spec: SystemSpec, shard: Shard):
    # Calls the experiment's serial path directly — never its public
    # ``run`` — so a forked worker that inherited an ambient runtime
    # cannot recurse into the pool.
    result = spec.experiment._run_serial(
        spec.rounds,
        shard.trials,
        checkpoints=spec.checkpoints,
        seed=RandomSource(shard.seed),
    )
    if spec.reduce == "stats":
        # The node-level harness produces full per-repeat results; the
        # shard reduces them before they cross the process boundary, so
        # only moments and counters are pickled and merged.
        from ..core.stats import StatsSummary

        return StatsSummary.from_ensemble(result)
    return result


def _run_system_shard(task) -> Any:
    """Worker entry point: run one chunk of node-level system repeats.

    Task shapes and envelope semantics mirror
    :func:`_run_simulation_shard`.
    """
    if len(task) == 2:
        spec, shard = task
        return _system_shard_body(spec, shard)
    spec, shard, index = task
    return _traced_shard(_system_shard_body, spec, shard, index, "system")


class ParallelRunner:
    """Sharded, cached execution of ensemble workloads.

    Parameters
    ----------
    workers:
        Worker count (default 1): 1 runs the shards one after another
        in this process, more fan them out across a process pool.
        Every ensemble runs through a runner, and either way the merged
        bits depend only on the spec and its shard plan.
    cache:
        A :class:`ResultCache`, a directory path to create one in, or
        None to disable caching.
    shards:
        Default shard count per run, clamped to the trial count; None
        uses :func:`~repro.runtime.sharding.default_shard_count`: at
        most 8 shards of at least
        :data:`~repro.runtime.sharding.MIN_SHARD_TRIALS` (500) trials
        for a simulation spec, ``min(8, repeats)`` for a system spec.
        The shard count — never the worker count — determines the
        merged bits, so default plans agree at any worker count.
    progress:
        Optional ``callback(completed, total_shards)`` fired as shard
        results are *merged*, in plan order.  ``total_shards`` covers
        the whole dispatch — for :meth:`run_many` that is every
        uncached shard of every spec in the grid.  Counting merged
        (not dispatched) shards means the count can never overshoot
        the total, even when a shard fails mid-grid and the completed
        specs are salvaged.
    retry:
        Optional :class:`~repro.runtime.faults.RetryPolicy` (or an int
        shorthand for ``RetryPolicy(max_attempts=n)``): transiently
        failing shards are re-run with deterministic backoff before a
        failure is reported.  Shards are pure functions of the plan, so
        retried runs stay bit-identical.  Only valid when the runner
        builds its own executor; configure a custom executor directly.
    timeout:
        Optional per-shard deadline in seconds (process pool only):
        a hung worker's pool is killed and respawned, the failure
        classifies as a retryable
        :class:`~repro.runtime.faults.WorkerTimeoutError`, and an
        unrecoverable pool degrades to serial with a warning.
    journal:
        A :class:`~repro.runtime.journal.RunJournal` (or a path to
        one); requires a cache.  Completed shards are checkpointed as
        cache artifacts and journaled as they fold, so an interrupted
        grid resumes — recomputing only unjournaled shards — by
        re-running with the same journal.  None of ``retry``,
        ``timeout`` or ``journal`` enters cache fingerprints: a
        fault-tolerant run shares its artifacts with a plain one.

    The runner never chooses an artifact shape: each spec's own
    ``reduce`` field does, and it enters the spec's fingerprint, so
    stats and full runs never share artifacts.  The experiment modules
    decide it per grid (:mod:`repro.experiments._common`).

    Examples
    --------
    >>> from repro.protocols import MultiLotteryPoS
    >>> from repro.core.miners import Allocation
    >>> from repro.runtime import ParallelRunner, SimulationSpec
    >>> spec = SimulationSpec(MultiLotteryPoS(0.01),
    ...                       Allocation.two_miners(0.2),
    ...                       trials=100, horizon=200, seed=11)
    >>> ParallelRunner(workers=1).run(spec).trials
    100
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Union[ResultCache, str, pathlib.Path, None] = None,
        *,
        shards: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
        executor: Optional[Executor] = None,
        retry: Union[RetryPolicy, int, None] = None,
        timeout: Optional[float] = None,
        journal: Union[RunJournal, str, pathlib.Path, None] = None,
    ) -> None:
        if executor is not None and (retry is not None or timeout is not None):
            raise ValueError(
                "retry/timeout configure the runner-built executor; with "
                "a custom executor, set them on the executor itself "
                "(e.g. via make_executor)"
            )
        self.executor = (
            executor
            if executor is not None
            else make_executor(workers, retry=retry, timeout=timeout)
        )
        if cache is None or isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(cache)
        if journal is None or isinstance(journal, RunJournal):
            self.journal = journal
        else:
            self.journal = RunJournal(journal)
        if self.journal is not None and self.cache is None:
            raise ValueError(
                "journal requires a cache: resume checkpoints are stored "
                "as cache artifacts"
            )
        self.default_shards = shards
        self.progress = progress
        # Tally counters are shared state: one runner may serve
        # dispatches from several threads, so updates must hold this
        # lock or concurrent completions lose increments.
        self._retry_lock = threading.Lock()
        #: Retry attempts consumed across this runner's dispatches.
        self.shards_retried = 0
        #: Shards recovered from journal checkpoints instead of dispatched.
        self.shards_resumed = 0
        # Tally retries (and forward them to progress callbacks that
        # care) without ever touching the per-shard completion counts —
        # retried shards must not double-count.
        self.executor.retry_listener = self._on_retry

    def _on_retry(self, index: int, attempt: int) -> None:
        with self._retry_lock:
            self.shards_retried += 1
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("runner.shards_retried").inc()
        note = getattr(self.progress, "retry", None)
        if note is not None:
            note(index, attempt)

    @property
    def workers(self) -> int:
        """Degree of parallelism of the configured executor."""
        return self.executor.workers

    # -- execution -------------------------------------------------------

    def run(
        self,
        spec: SimulationSpec,
        *,
        shards: Optional[int] = None,
    ) -> EnsembleResult:
        """Run (or load) the Monte Carlo ensemble described by ``spec``."""
        return self.run_many([spec], shards=shards)[0]

    def run_many(
        self,
        specs: Sequence[SimulationSpec],
        *,
        shards: Optional[int] = None,
    ) -> List[EnsembleResult]:
        """Run (or load) a whole grid of Monte Carlo ensembles at once.

        Equivalent to ``[self.run(s) for s in specs]`` — bit-identical
        results, same cache reads and writes — but every uncached shard
        of every spec goes to the pool in a *single* dispatch, so
        workers never idle between grid cells and pool latency is paid
        once per grid instead of once per cell.  Progress callbacks see
        ``(completed, total)`` across the whole grid.
        """
        specs = list(specs)
        for spec in specs:
            if not isinstance(spec, SimulationSpec):
                raise TypeError(
                    f"specs must be SimulationSpecs, got {type(spec).__name__}"
                )
        return self._execute_many(
            [(spec, spec.trials) for spec in specs],
            _run_simulation_shard,
            shards,
            MIN_SHARD_TRIALS,
            span_name="runner.run_many",
        )

    def run_system(
        self,
        experiment: Any,
        rounds: int,
        repeats: int,
        *,
        checkpoints: Optional[Sequence[int]] = None,
        seed: SeedLike = None,
        shards: Optional[int] = None,
    ) -> EnsembleResult:
        """Run (or load) ``repeats`` node-level deployments of ``experiment``.

        ``experiment`` is a
        :class:`~repro.chainsim.harness.SystemExperiment`; arguments
        mirror its ``run`` method.
        """
        spec = SystemSpec(
            experiment=experiment,
            rounds=rounds,
            repeats=repeats,
            checkpoints=None if checkpoints is None else tuple(checkpoints),
            seed=seed,
        )
        return self.run_system_many([spec], shards=shards)[0]

    def run_system_many(
        self,
        specs: Sequence[SystemSpec],
        *,
        shards: Optional[int] = None,
    ) -> List[EnsembleResult]:
        """Run (or load) many node-level system ensembles at once.

        The :class:`~repro.runtime.spec.SystemSpec` counterpart of
        :meth:`run_many`: bit-identical to calling :meth:`run_system`
        per spec, but all uncached shards share one pool dispatch.
        """
        specs = list(specs)
        for spec in specs:
            if not isinstance(spec, SystemSpec):
                raise TypeError(
                    f"specs must be SystemSpecs, got {type(spec).__name__}"
                )
        return self._execute_many(
            [(spec, spec.repeats) for spec in specs],
            _run_system_shard,
            shards,
            MIN_SHARD_REPEATS,
            span_name="runner.run_system_many",
        )

    def _resolve_shards(
        self, total: int, shards: Optional[int], min_per_shard: int
    ) -> int:
        """The effective shard count for ``total`` trials or repeats.

        Explicit counts (argument or ``default_shards``) win and are
        clamped to the trial count — 16 shards of a 4-trial spec is 4
        shards, not an error.  Otherwise the spec gets
        :func:`~repro.runtime.sharding.default_shard_count`, which the
        worker count never enters.
        """
        if shards is None:
            shards = self.default_shards
        if shards is None:
            return default_shard_count(total, min_per_shard)
        return min(total, ensure_positive_int("shards", shards))

    def _execute_many(
        self,
        entries,
        shard_fn,
        shards: Optional[int],
        min_per_shard: int,
        span_name: str,
    ):
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                span_name, specs=len(entries), workers=self.workers
            ) as root:
                return self._dispatch(
                    entries, shard_fn, shards, min_per_shard, root
                )
        return self._dispatch(entries, shard_fn, shards, min_per_shard, None)

    def _dispatch(
        self,
        entries,
        shard_fn,
        shards: Optional[int],
        min_per_shard: int,
        root,
    ):
        merged: List[Optional[EnsembleResult]] = [None] * len(entries)
        tasks: List[Tuple[Any, Shard]] = []
        pending: List[_Pending] = []
        first_pending: dict = {}
        duplicates: List[Tuple[int, int, str]] = []
        metrics = get_metrics()
        for position, (spec, total) in enumerate(entries):
            plan = plan_shards(
                total,
                spec.seed_sequence,
                self._resolve_shards(total, shards, min_per_shard),
            )
            key = None
            preloaded: Tuple[Tuple[int, Any], ...] = ()
            ordinals: Tuple[int, ...] = tuple(range(len(plan)))
            if self.cache is not None:
                key = spec_fingerprint(spec, shards=len(plan))
                if key in first_pending:
                    # A duplicate of a spec already in this dispatch:
                    # the per-cell loop would have loaded it as a hit
                    # once the first copy landed, so compute it once
                    # and load it back the same way (no planning-time
                    # get — the loop never saw a miss for it either).
                    duplicates.append((position, first_pending[key], key))
                    continue
                cached = self.cache.get(key)
                if cached is not None:
                    merged[position] = cached
                    continue
                if self.journal is not None:
                    # Resume: shards an interrupted run journaled load
                    # from their checkpoint artifacts instead of
                    # dispatching.  The journal is advisory — a
                    # journaled shard whose artifact was evicted (the
                    # get counts a miss) simply recomputes.
                    recovered: Dict[int, Any] = {}
                    journaled = self.journal.completed_shards(key)
                    for ordinal, shard_key in journaled.items():
                        if not 0 <= ordinal < len(plan):
                            continue
                        part = self.cache.get(shard_key)
                        if part is not None:
                            recovered[ordinal] = part
                    if recovered:
                        preloaded = tuple(sorted(recovered.items()))
                        ordinals = tuple(
                            o for o in range(len(plan)) if o not in recovered
                        )
                        with self._retry_lock:
                            self.shards_resumed += len(recovered)
                        if metrics.enabled:
                            metrics.counter("runner.shards_resumed").inc(
                                len(recovered)
                            )
                    if not ordinals:
                        # Every shard was journaled: finalize without
                        # dispatching anything.
                        result = merge_parts(
                            [part for _, part in preloaded]
                        )
                        self.cache.put(key, result)
                        self.journal.record_spec(key)
                        for ordinal in range(len(plan)):
                            self.cache.discard(shard_fingerprint(key, ordinal))
                        merged[position] = result
                        continue
                first_pending[key] = position
            shard_list = list(plan)
            pending.append(
                _Pending(
                    position, key, len(tasks), len(ordinals), plan.total,
                    len(plan), ordinals, preloaded,
                )
            )
            tasks.extend((spec, shard_list[ordinal]) for ordinal in ordinals)
        if root is not None:
            # Traced dispatches widen tasks to (spec, shard, task_index)
            # so workers can stamp shard.run spans with the index the
            # executor's submit/complete events carry; untraced
            # dispatches keep the bare 2-tuples (identical pickle
            # payloads and worker code path to the untraced runtime).
            tasks = [
                (spec, shard, index)
                for index, (spec, shard) in enumerate(tasks)
            ]
            root.set("tasks", len(tasks))
            root.set("cached_specs", len(entries) - len(pending) - len(duplicates))
        if metrics.enabled:
            metrics.counter("runner.specs").inc(len(entries))
            metrics.counter("runner.shards_dispatched").inc(len(tasks))
        try:
            if tasks:
                self._fold_streamed(tasks, pending, shard_fn, merged)
        finally:
            # Give line-oriented progress callbacks (e.g. the CLI's
            # carriage-return shard ticker) a chance to terminate their
            # output even when a shard failure propagates out.
            close = getattr(self.progress, "close", None)
            if close is not None:
                close()
        for position, original, key in duplicates:
            loaded = self.cache.get(key)
            merged[position] = loaded if loaded is not None else merged[original]
        return merged

    def _journal_shard(self, entry: _Pending, ordinal: int, part) -> None:
        """Checkpoint one completed shard for resume: artifact + record."""
        if self.journal is None or entry.key is None:
            return
        shard_key = shard_fingerprint(entry.key, ordinal)
        self.cache.put(shard_key, part)
        self.journal.record_shard(entry.key, ordinal, shard_key)

    def _journal_spec_done(self, entry: _Pending) -> None:
        """Journal a finalized spec and drop its shard checkpoints (the
        merged artifact supersedes them)."""
        if self.journal is None or entry.key is None:
            return
        self.journal.record_spec(entry.key)
        for ordinal in range(entry.shards):
            self.cache.discard(shard_fingerprint(entry.key, ordinal))

    def _fold_streamed(self, tasks, pending, shard_fn, merged) -> None:
        """Fold shard results in plan order as they complete.

        Completions arrive from :meth:`Executor.stream` in whatever
        order the pool finishes them; a :class:`ReorderBuffer` (bounded
        by the executor's submission window) restores plan order, and
        each released shard folds straight into its spec's
        :class:`~repro.core.results.MergeAccumulator` and is dropped —
        at most ``O(workers)`` shard results are ever held, against
        ``O(shards)`` for a collect-then-merge, while the folded
        ensemble stays bit-identical to ``EnsembleResult.merge``.

        A spec whose shards all folded is finalized — and cached —
        immediately, so a later shard failure in another spec never
        discards completed work.  Progress fires once per
        *merged* shard, in plan order, and therefore cannot overshoot
        the dispatch total when shards fail — and counts each shard's
        final outcome exactly once, however many retry attempts it
        took.

        With a journal, shards recovered from a prior run (``entry
        .preloaded``) interleave with dispatched completions at their
        plan ordinals, and every fresh shard is checkpointed (artifact
        + journal record) the moment it arrives — including shards of
        specs already poisoned by a failure, so an aborted grid leaves
        the maximum behind for ``--resume``.
        """
        owner: Dict[int, int] = {}
        for slot, entry in enumerate(pending):
            for index in range(entry.start, entry.start + entry.count):
                owner[index] = slot
        accumulators: List[Optional[MergeAccumulator]] = [None] * len(pending)
        # Per-slot plan-order fold state: `cursors` is the next ordinal
        # to fold, `staged` maps ordinal -> result for parts that cannot
        # fold yet (journal preloads ahead of the dispatched cursor).
        cursors = [0] * len(pending)
        staged: List[Dict[int, Any]] = [
            dict(entry.preloaded) for entry in pending
        ]
        poisoned = [False] * len(pending)
        failures: List[Tuple[int, str, str]] = []
        buffer = ReorderBuffer(len(tasks))
        tracer = get_tracer()
        metrics = get_metrics()
        folded = 0

        def poison(slot: int, task_index: int, error: Exception) -> None:
            failures.append((
                task_index,
                repr(error),
                _format_exception(error),
            ))
            poisoned[slot] = True
            accumulators[slot] = None
            staged[slot].clear()

        def advance(slot: int, task_index: int) -> None:
            """Fold every consumable staged part; finalize when done."""
            entry = pending[slot]
            while not poisoned[slot] and cursors[slot] in staged[slot]:
                part = staged[slot].pop(cursors[slot])
                accumulator = accumulators[slot]
                if accumulator is None:
                    accumulator = MergeAccumulator(
                        expected_trials=entry.trials
                    )
                    accumulators[slot] = accumulator
                try:
                    accumulator.add(part)
                except Exception as error:  # noqa: BLE001 - poisoned, re-raised
                    # A malformed payload (e.g. from a custom executor)
                    # must fail its spec, not crash the whole fold loop
                    # mid-grid.
                    poison(slot, task_index, error)
                    return
                cursors[slot] += 1
            if cursors[slot] == entry.shards and not poisoned[slot]:
                result = accumulators[slot].result()
                accumulators[slot] = None
                if entry.key is not None:
                    self.cache.put(entry.key, result)
                    self._journal_spec_done(entry)
                merged[entry.position] = result

        for slot in range(len(pending)):
            # A resumed spec may already be able to fold its leading
            # preloaded shards; folding them up front keeps the staging
            # dict (and peak memory) bounded by the reorder window.
            if staged[slot]:
                advance(slot, pending[slot].start)
        for index, ok, payload in self.executor.stream(shard_fn, tasks):
            for task_index, (item_ok, item) in buffer.push(index, (ok, payload)):
                slot = owner[task_index]
                entry = pending[slot]
                ordinal = entry.ordinals[task_index - entry.start]
                if item_ok:
                    # Traced workers ship telemetry with the payload;
                    # unwrap (a bare payload passes through) before it
                    # reaches the accumulator.
                    item = ingest_envelope(item)
                if not item_ok:
                    failures.append(_failure_triple(task_index, item))
                    poisoned[slot] = True
                    accumulators[slot] = None  # free the partial fold
                    staged[slot].clear()
                    if metrics.enabled:
                        metrics.counter("runner.shards_failed").inc()
                else:
                    # Checkpoint before folding: even shards of a spec
                    # that already failed are worth journaling — resume
                    # will not recompute them.
                    self._journal_shard(entry, ordinal, item)
                    if not poisoned[slot]:
                        staged[slot][ordinal] = item
                        advance(slot, task_index)
                folded += 1
                if tracer.enabled:
                    tracer.event("shard.merge", task=task_index, ok=item_ok)
                if self.progress is not None:
                    self.progress(folded, len(tasks))
        if not buffer.complete:
            # A custom stream() that drops tasks instead of yielding
            # them as failures would otherwise surface as silent None
            # results far downstream.
            raise RuntimeError(
                f"executor stream yielded {buffer.released + buffer.staged} "
                f"of {buffer.total} tasks — every task must be yielded "
                "exactly once (as a failure if it did not run)"
            )
        if failures:
            # Completed specs were already cached as they finalized; the
            # drained per-task results are deliberately not retained
            # (retaining them is exactly what streaming avoids).
            raise ShardExecutionError(failures)

    def __repr__(self) -> str:
        return (
            f"ParallelRunner(workers={self.workers}, "
            f"cache={self.cache!r}, shards={self.default_shards})"
        )
