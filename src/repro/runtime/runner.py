"""The parallel runner: plan shards, fan out, merge, cache.

:class:`ParallelRunner` is the façade of :mod:`repro.runtime`.  Given
a :class:`~repro.runtime.spec.SimulationSpec` (Monte Carlo ensemble)
or a system experiment (node-level repeats) it

1. checks the content-addressed cache for a previous merged result,
2. splits the work into a worker-count-independent shard plan,
3. streams the shards through the configured executor (serial or
   processes), and
4. hands each shard, as it arrives, to its spec's fold, which
   journals it and folds every part that is next in plan order into a
   :class:`~repro.core.results.MergeAccumulator`, so at most
   ``O(workers)`` shard results wait instead of ``O(shards)``.

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
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .._validation import ensure_positive_int
from ..core.results import EnsembleResult, MergeAccumulator
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
    ShardPlan,
    default_shard_count,
    plan_shards,
)
from .spec import SimulationSpec, SystemSpec, spec_fingerprint

__all__ = ["ParallelRunner"]


class _Fold:
    """The plan-order fold of one uncached spec.

    Parts arrive in any order — journal preloads while the dispatch is
    planned, shard results as the executor yields them — and wait in
    ``staged`` under their plan ordinal until every earlier ordinal has
    folded; ``cursor`` is the next ordinal to fold.  A failed spec drops
    its partial fold and ignores later parts.
    """

    def __init__(
        self, position: int, key: Optional[str], plan: ShardPlan
    ) -> None:
        self.position = position  # slot in the caller's result list
        self.key = key  # cache fingerprint, None when caching is off
        self.shards = len(plan)
        self.staged: Dict[int, Any] = {}
        self.cursor = 0
        self.accumulator: Optional[MergeAccumulator] = MergeAccumulator(
            expected_trials=plan.total
        )
        self.failed = False

    def add(self, ordinal: int, part) -> bool:
        """Stage one part and fold every part now next in plan order;
        True once the last ordinal has folded."""
        self.staged[ordinal] = part
        while self.cursor in self.staged:
            self.accumulator.add(self.staged.pop(self.cursor))
            self.cursor += 1
        return self.cursor == self.shards


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
    return spec.experiment._run_serial(
        spec.rounds,
        shard.trials,
        checkpoints=spec.checkpoints,
        seed=RandomSource(shard.seed),
    )


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
    progress:
        Optional ``callback(completed, total_shards)`` fired once per
        dispatched shard, on its final outcome, as it arrives.
        ``total_shards`` covers the whole dispatch — for
        :meth:`run_many` that is every uncached shard of every spec in
        the grid.  The count is monotone and never exceeds the total,
        even when a shard fails mid-grid and the completed specs are
        salvaged; retried shards count once.
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
        cache artifacts and journaled as they arrive, so an interrupted
        grid resumes — recomputing only unjournaled shards — by
        re-running with the same journal.  None of ``retry``,
        ``timeout`` or ``journal`` enters cache fingerprints: a
        fault-tolerant run shares its artifacts with a plain one.

    The shard count of a run is the ``shards`` argument of
    :meth:`run` / :meth:`run_many` (clamped to the trial count), else
    :func:`~repro.runtime.sharding.default_shard_count`: at most 8
    shards of at least :data:`~repro.runtime.sharding.MIN_SHARD_TRIALS`
    (500) trials for a simulation spec, ``min(8, repeats)`` for a
    system spec.  The shard count — never the worker count —
    determines the merged bits.

    The runner never chooses an artifact shape: a simulation spec's
    own ``reduce`` field does, and it enters the spec's fingerprint, so
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

        An explicit count wins and is clamped to the trial count — 16
        shards of a 4-trial spec is 4 shards, not an error.  Otherwise
        the spec gets
        :func:`~repro.runtime.sharding.default_shard_count`, which the
        worker count never enters.
        """
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
        routes: List[_Fold] = []  # task index -> the fold it feeds
        folds = 0
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
            recovered: Dict[int, Any] = {}
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
                first_pending[key] = position
                if self.journal is not None:
                    recovered = self._recover_shards(key, len(plan))
            fold = _Fold(position, key, plan)
            folds += 1
            for shard in plan:
                if shard.index in recovered:
                    # Resume: a journaled shard folds like any other
                    # part.  A spec whose every shard was journaled
                    # finalizes here, with nothing dispatched.
                    if fold.add(shard.index, recovered.pop(shard.index)):
                        self._finish(fold, merged)
                else:
                    tasks.append((spec, shard))
                    routes.append(fold)
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
            root.set("cached_specs", len(entries) - folds - len(duplicates))
        if metrics.enabled:
            metrics.counter("runner.specs").inc(len(entries))
            metrics.counter("runner.shards_dispatched").inc(len(tasks))
        try:
            if tasks:
                self._fold_streamed(tasks, routes, shard_fn, merged)
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

    def _recover_shards(self, key: str, shards: int) -> Dict[int, Any]:
        """Shards an interrupted run journaled for ``key``, by ordinal.

        They load from their checkpoint artifacts instead of
        dispatching.  The journal is advisory — a journaled shard whose
        artifact was evicted (the get counts a miss) simply recomputes.
        """
        recovered: Dict[int, Any] = {}
        for ordinal, shard_key in self.journal.completed_shards(key).items():
            if 0 <= ordinal < shards:
                part = self.cache.get(shard_key)
                if part is not None:
                    recovered[ordinal] = part
        if recovered:
            with self._retry_lock:
                self.shards_resumed += len(recovered)
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("runner.shards_resumed").inc(len(recovered))
        return recovered

    def _finish(self, fold: _Fold, merged) -> None:
        """Cache a spec whose last ordinal has folded."""
        result = fold.accumulator.result()
        if fold.key is not None:
            self.cache.put(fold.key, result)
            if self.journal is not None:
                # The merged artifact supersedes the shard checkpoints.
                self.journal.record_spec(fold.key)
                for index in range(fold.shards):
                    self.cache.discard(shard_fingerprint(fold.key, index))
        merged[fold.position] = result

    def _fold_streamed(self, tasks, routes, shard_fn, merged) -> None:
        """Hand each completion to its spec's fold as it arrives.

        Completions arrive from :meth:`Executor.stream` in whatever
        order the pool finishes them.  Each one goes straight to its
        spec's :class:`_Fold`: a fresh shard is checkpointed (artifact +
        journal record) at once, then staged and folded in plan order,
        so the merged ensemble stays bit-identical to
        :func:`~repro.core.results.merge_parts` of the plan's parts.  A
        part waits in staging only for an earlier shard of its own spec
        that has not arrived, and the executor never runs more than its
        window past the lowest index it has not yielded, so at most
        ``O(workers)`` shard results are held, against ``O(shards)``
        for a collect-then-merge.

        A spec whose shards all folded is finalized — and cached —
        immediately, so a later shard failure in another spec never
        discards completed work; shards of a spec that already failed
        are still journaled, so an aborted grid leaves the maximum
        behind for ``--resume``.  Progress fires once per shard, on its
        final outcome, as it arrives: the count is monotone, never
        exceeds the dispatch total, and counts a retried shard once.
        """
        failures: List[Tuple[int, str, str]] = []
        arrived = [False] * len(tasks)
        tracer = get_tracer()
        metrics = get_metrics()
        done = 0
        for index, ok, payload in self.executor.stream(shard_fn, tasks):
            if not 0 <= index < len(tasks):
                raise RuntimeError(
                    f"executor stream yielded task {index}, out of range "
                    f"for {len(tasks)} tasks"
                )
            if arrived[index]:
                raise RuntimeError(
                    f"executor stream yielded task {index} twice — every "
                    "task must be yielded exactly once"
                )
            arrived[index] = True
            fold = routes[index]
            failure = None
            if ok:
                # Traced workers ship telemetry with the payload; unwrap
                # (a bare payload passes through) before it is stored.
                payload = ingest_envelope(payload)
                ordinal = tasks[index][1].index
                self._journal_shard(fold, ordinal, payload)
                if not fold.failed:
                    try:
                        complete = fold.add(ordinal, payload)
                    except Exception as error:  # noqa: BLE001 - reported
                        # A malformed payload (e.g. from a custom
                        # executor) must fail its spec, not crash the
                        # whole loop mid-grid.
                        failure = (
                            index, repr(error), _format_exception(error)
                        )
                    else:
                        if complete:
                            self._finish(fold, merged)
            else:
                failure = _failure_triple(index, payload)
                if metrics.enabled:
                    metrics.counter("runner.shards_failed").inc()
            if failure is not None:
                failures.append(failure)
                fold.failed = True
                fold.accumulator = None  # free the partial fold
                fold.staged.clear()
            done += 1
            if tracer.enabled:
                tracer.event("shard.merge", task=index, ok=ok)
            if self.progress is not None:
                self.progress(done, len(tasks))
        if done < len(tasks):
            # A custom stream() that drops tasks instead of yielding
            # them as failures would otherwise surface as silent None
            # results far downstream.
            raise RuntimeError(
                f"executor stream yielded {done} of {len(tasks)} tasks — "
                "every task must be yielded exactly once (as a failure if "
                "it did not run)"
            )
        if failures:
            # Completed specs were already cached as they finalized; the
            # drained per-task results are deliberately not retained
            # (retaining them is exactly what streaming avoids).
            failures.sort(key=lambda failure: failure[0])
            raise ShardExecutionError(failures)

    def _journal_shard(self, fold: _Fold, ordinal: int, part) -> None:
        """Checkpoint one completed shard for resume: artifact + record."""
        if self.journal is None or fold.key is None:
            return
        shard_key = shard_fingerprint(fold.key, ordinal)
        self.cache.put(shard_key, part)
        self.journal.record_shard(fold.key, ordinal, shard_key)

    def __repr__(self) -> str:
        return f"ParallelRunner(workers={self.workers}, cache={self.cache!r})"
