"""The parallel runner: plan shards, fan out, merge, cache.

:class:`ParallelRunner` is the façade of :mod:`repro.runtime`.  Given
a :class:`~repro.runtime.spec.SimulationSpec` (Monte Carlo ensemble)
or a system experiment (node-level repeats) it

1. checks the content-addressed cache for a previous merged result,
2. splits the work into a worker-count-independent shard plan,
3. cuts the uncached simulation shards into tasks: shards that share a
   kernel signature (:func:`~repro.runtime.spec.kernel_signature`) run
   as one fused engine, one kernel call per segment for the whole
   task,
4. streams the tasks through the configured executor (serial or
   processes), and
5. splits each task's result back into its shards and hands each
   shard, as it arrives, to its spec's fold, which folds every part
   that is next in plan order into a
   :class:`~repro.core.results.MergeAccumulator`, so at most
   ``O(workers)`` task results wait instead of ``O(shards)``.

The shard plan fixes every random stream (each shard draws from its
own seed inside a fused task), and the merge order is plan order, so
neither the task cut nor the executor moves a bit: ``workers=1`` and
``workers=16`` produce bit-identical merged arrays for the same spec
and shard count — and the default shard count is a function of the
spec alone.

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
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .._validation import ensure_positive_int
from ..core.results import EnsembleResult, MergeAccumulator
from ..obs import ShardEnvelope, ingest_envelope
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
from .integrity import checkpoint_key
from .sharding import (
    MIN_SHARD_REPEATS,
    MIN_SHARD_TRIALS,
    Shard,
    ShardPlan,
    default_shard_count,
    plan_shards,
    pristine_seed,
)
from .spec import SimulationSpec, SystemSpec, kernel_signature, spec_fingerprint

__all__ = ["ParallelRunner"]


class _Fold:
    """The plan-order fold of one uncached spec.

    Parts arrive in any order — resumed checkpoints while the dispatch
    is planned, shard results as the executor yields them — and wait in
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


class _Task(NamedTuple):
    """One executor task: shards that run as one fused engine.

    ``index`` is the task's dispatch index on a traced dispatch (the
    worker stamps its ``shard.run`` span with it), None otherwise.
    """

    members: Tuple[Tuple[Any, Shard], ...]
    index: Optional[int] = None

    @property
    def shard_count(self) -> int:
        """Shards this task runs; each is owed the per-shard deadline."""
        return len(self.members)


def _shard_source(shard: Shard) -> RandomSource:
    """A random source for ``shard`` that no earlier run has spawned from.

    Spawning is stateful, so a serial rerun of a task that failed
    mid-run must not reuse the first attempt's seed object.
    """
    return RandomSource(pristine_seed(shard.seed))


def _run_task(body, task: _Task, kind: str) -> Any:
    """Run one task, under a fresh worker-local tracer when the dispatch
    is traced.

    The worker must not record into a forked copy of the parent's
    tracer (its buffer dies with the child) nor — on the serial
    backend — into the parent's live tracer (the shipped spans would
    then be ingested twice).  A private tracer, installed as a
    thread-local override so nested kernel/cache/chainsim
    instrumentation lands in it, sidesteps both; the envelope carries
    its records home.
    """
    if task.index is None:
        return body(task.members)
    tracer = Tracer()
    with using_worker_tracer(tracer):
        with tracer.span(
            "shard.run",
            task=task.index,
            shards=task.shard_count,
            trials=sum(shard.trials for _, shard in task.members),
            kind=kind,
        ):
            payload = body(task.members)
    return ShardEnvelope(payload, tracer.drain())


def _run_engine(engine, spec: SimulationSpec):
    # Under reduce="stats" the engine folds checkpoints straight into a
    # StatsSummary — the trajectory cube is never allocated.
    return engine.run(
        spec.horizon,
        spec.checkpoints,
        events=spec.events,
        record_terminal_stakes=spec.record_terminal_stakes,
        reduce=spec.reduce,
    )


def _simulation_shard_body(spec: SimulationSpec, shard: Shard):
    """One shard on its own: the reference every member of a fused task
    equals, bit for bit (the runner itself only runs tasks)."""
    from ..sim.engine import MonteCarloEngine

    engine = MonteCarloEngine(
        spec.protocol,
        spec.allocation,
        trials=shard.trials,
        seed=_shard_source(shard),
        kernel=spec.kernel,
    )
    return _run_engine(engine, spec)


def _simulation_task_body(members) -> list:
    """The parts of one task's shards, in member order.

    A one-member engine runs the member's own generator and state, so a
    one-shard task is the plain engine call.
    """
    from ..sim.engine import MonteCarloEngine

    spec = members[0][0]
    engine = MonteCarloEngine.fused(
        spec.protocol,
        [
            (member.allocation, shard.trials, _shard_source(shard))
            for member, shard in members
        ],
        kernel=spec.kernel,
    )
    return _run_engine(engine, spec)


def _run_simulation_shard(task: _Task) -> Any:
    """Worker entry point: run one task of a Monte Carlo dispatch.

    Returns the list of the task's shard parts in member order; on a
    traced dispatch it comes wrapped in a
    :class:`~repro.obs.ShardEnvelope` carrying the worker's spans
    alongside.
    """
    return _run_task(_simulation_task_body, task, "sim")


def _system_shard_body(spec: SystemSpec, shard: Shard):
    # Calls the experiment's serial path directly — never its public
    # ``run`` — so a forked worker that inherited an ambient runtime
    # cannot recurse into the pool.
    return spec.experiment._run_serial(
        spec.rounds,
        shard.trials,
        checkpoints=spec.checkpoints,
        seed=_shard_source(shard),
    )


def _system_task_body(members) -> list:
    return [_system_shard_body(spec, shard) for spec, shard in members]


def _run_system_shard(task: _Task) -> Any:
    """Worker entry point: run one task of node-level system repeats.

    A system task carries one shard; the return value mirrors
    :func:`_run_simulation_shard`.
    """
    return _run_task(_system_task_body, task, "system")


#: Most trials a fused task carries, unless it is one wider shard.  The
#: worker bounds it: past about 10,000 trials a wider kernel call saves
#: no per-call cost (two-miner ns per trial-round at 2,000 vs 10,000
#: trials: ML-PoS 8.3-13 vs 6.7-7.2, C-PoS 154-157 vs 144-152), while
#: the fused state keeps growing.  A stats task ships a few KB home; a
#: full-mode task on a pool ships its cubes, which the parent folds one
#: task at a time.  Only a full-mode task on one worker is capped at
#: MIN_SHARD_TRIALS instead: its fused engine runs in the process that
#: holds the merged ensembles, and a wider one lifts that process's peak
#: past the streaming-merge memory bound.
STATS_TASK_TRIALS = 10_000


def _strided(members: list, ways: int, cap: int) -> List[list]:
    """Cut one signature group into ``ways`` tasks, member ``i`` into
    task ``i mod ways``.

    Striding balances tasks whose members' costs rise along the group
    (C-PoS grows costlier with the share), which a contiguous cut would
    stack into one task.  A task carries one shard or at most ``cap``
    trials (:data:`STATS_TASK_TRIALS`, or
    :data:`~repro.runtime.sharding.MIN_SHARD_TRIALS` for a full-mode
    group on one worker); more tasks are cut until every task fits.
    """
    ways = min(ways, len(members))
    while True:
        tasks = [members[start::ways] for start in range(ways)]
        if all(
            len(task) == 1 or sum(shard.trials for _, shard, _ in task) <= cap
            for task in tasks
        ):
            return tasks
        ways += 1


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
        dispatched shard, on its task's final outcome, as it arrives.
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
        Optional per-shard deadline in seconds (process pool only): a
        task that runs ``k`` shards gets ``k`` deadlines.  A hung
        worker's pool is killed and respawned, the failure classifies
        as a retryable
        :class:`~repro.runtime.faults.WorkerTimeoutError`, and an
        unrecoverable pool degrades to serial with a warning.
    resume:
        Checkpoint every completed shard in the cache as it arrives,
        under :func:`~repro.runtime.integrity.checkpoint_key`, and fold
        the checkpoints an interrupted run left instead of dispatching
        their shards; requires a cache.  So an interrupted grid resumes
        — recomputing only the shards it has no checkpoint for — by
        re-running with the same cache.  A spec whose merged artifact
        is stored, or found stored, discards its checkpoints.  None of
        ``retry``, ``timeout`` or ``resume`` enters cache fingerprints:
        a fault-tolerant run shares its artifacts with a plain one.

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

    Execution width is the runner's own choice, and never moves a bit.
    Uncached simulation shards that share a
    :func:`~repro.runtime.spec.kernel_signature` run as one fused
    engine per task, each group strided over ``workers`` tasks and cut
    finer where a task would pass its cap.  A task carries one shard or
    at most :data:`STATS_TASK_TRIALS` trials, where the worker's fused
    state is the cost; a full-mode task on one worker, whose fused
    cubes share the process with the merged ensembles, carries at most
    :data:`~repro.runtime.sharding.MIN_SHARD_TRIALS`.  Every shard
    still draws from its own seed, and the checkpoints, the cache and
    each spec's fold see the same per-shard parts either way.  System
    shards run one per task.

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
        resume: bool = False,
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
        if resume and self.cache is None:
            raise ValueError(
                "resume requires a cache: shard checkpoints are stored "
                "as cache artifacts"
            )
        self.resume = resume
        self.progress = progress
        # Tally counters are shared state: one runner may serve
        # dispatches from several threads, so updates must hold this
        # lock or concurrent completions lose increments.
        self._retry_lock = threading.Lock()
        #: Shards rerun by retries across this runner's dispatches: a
        #: retried task adds every shard it carries.
        self.shards_retried = 0
        #: Shards recovered from checkpoints instead of dispatched.
        self.shards_resumed = 0
        # Tally retries (and forward them to progress callbacks that
        # care) without ever touching the per-shard completion counts —
        # retried shards must not double-count.
        self.executor.retry_listener = self._on_retry
        # The tasks of the dispatch this thread is streaming, so a retry
        # (fired by the executor in the thread that drives its stream)
        # can count the shards of its task.
        self._streaming = threading.local()

    def _on_retry(self, index: int, attempt: int) -> None:
        tasks = getattr(self._streaming, "tasks", ())
        shards = tasks[index].shard_count if 0 <= index < len(tasks) else 1
        with self._retry_lock:
            self.shards_retried += shards
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("shards.retried", task=index, shards=shards)
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
            fuse=True,
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
            fuse=False,
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
        fuse: bool,
    ):
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                span_name, specs=len(entries), workers=self.workers
            ) as root:
                return self._dispatch(
                    entries, shard_fn, shards, min_per_shard, fuse, root
                )
        return self._dispatch(
            entries, shard_fn, shards, min_per_shard, fuse, None
        )

    def _dispatch(
        self,
        entries,
        shard_fn,
        shards: Optional[int],
        min_per_shard: int,
        fuse: bool,
        root,
    ):
        merged: List[Optional[EnsembleResult]] = [None] * len(entries)
        pending: List[Tuple[Any, Shard, _Fold]] = []  # uncached, in plan order
        folds = 0
        first_pending: dict = {}
        duplicates: List[Tuple[int, int, str]] = []
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
                    if self.resume:
                        # A run killed between storing this spec and
                        # discarding its checkpoints left them behind.
                        self._discard_checkpoints(key, len(plan))
                    continue
                first_pending[key] = position
                if self.resume:
                    recovered = self._recover_shards(key, len(plan))
            fold = _Fold(position, key, plan)
            folds += 1
            for shard in plan:
                if shard.index in recovered:
                    # Resume: a checkpointed shard folds like any other
                    # part.  A spec whose every shard was checkpointed
                    # finalizes here, with nothing dispatched.
                    if fold.add(shard.index, recovered.pop(shard.index)):
                        self._finish(fold, merged)
                else:
                    pending.append((spec, shard, fold))
        groups = self._fuse(pending) if fuse else [[unit] for unit in pending]
        # Traced dispatches stamp each task with its index so workers can
        # label their shard.run spans with the index the executor's
        # submit/complete events carry.
        tasks = [
            _Task(
                tuple((spec, shard) for spec, shard, _ in group),
                None if root is None else index,
            )
            for index, group in enumerate(groups)
        ]
        routes = [
            [(fold, shard.index) for _, shard, fold in group]
            for group in groups
        ]
        if root is not None:
            root.set("tasks", len(tasks))
            root.set("shards", len(pending))
            root.set("cached_specs", len(entries) - folds - len(duplicates))
        try:
            if tasks:
                self._streaming.tasks = tasks
                self._fold_streamed(tasks, routes, shard_fn, merged)
        finally:
            self._streaming.tasks = ()
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

    def _fuse(self, pending) -> List[list]:
        """Cut uncached simulation shards into tasks of one fused engine.

        Shards group by :func:`~repro.runtime.spec.kernel_signature`, in
        order of each group's first shard.  Grouping is execution, not
        physics: each group is strided over ``workers`` tasks
        (:func:`_strided`).  A task carries at most
        :data:`STATS_TASK_TRIALS` trials, except a full-mode task on one
        worker: it runs in the process that folds its cubes, so it keeps
        to :data:`~repro.runtime.sharding.MIN_SHARD_TRIALS`.
        """
        groups: Dict[Any, list] = {}
        for unit in pending:
            groups.setdefault(kernel_signature(unit[0]), []).append(unit)
        tasks: List[list] = []
        for group in groups.values():
            in_process = self.workers == 1 and group[0][0].reduce == "full"
            cap = MIN_SHARD_TRIALS if in_process else STATS_TASK_TRIALS
            tasks.extend(_strided(group, self.workers, cap))
        return tasks

    def _recover_shards(self, key: str, shards: int) -> Dict[int, Any]:
        """Shards an interrupted run checkpointed for ``key``, by ordinal.

        They load from their checkpoint artifacts instead of
        dispatching.  An ordinal without a checkpoint counts no miss;
        one whose checkpoint fails verification (the get counts a miss)
        simply recomputes.
        """
        recovered: Dict[int, Any] = {}
        for ordinal in range(shards):
            checkpoint = checkpoint_key(key, ordinal)
            if checkpoint in self.cache:
                part = self.cache.get(checkpoint)
                if part is not None:
                    recovered[ordinal] = part
        if recovered:
            with self._retry_lock:
                self.shards_resumed += len(recovered)
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "shards.resumed", key=key[:12], shards=len(recovered)
                )
        return recovered

    def _finish(self, fold: _Fold, merged) -> None:
        """Cache a spec whose last ordinal has folded."""
        result = fold.accumulator.result()
        if fold.key is not None:
            self.cache.put(fold.key, result)
            if self.resume:
                # The merged artifact supersedes the shard checkpoints.
                self._discard_checkpoints(fold.key, fold.shards)
        merged[fold.position] = result

    def _discard_checkpoints(self, key: str, shards: int) -> None:
        """Drop the shard checkpoints of a spec whose artifact is stored."""
        for ordinal in range(shards):
            self.cache.discard(checkpoint_key(key, ordinal))

    def _fold_streamed(self, tasks, routes, shard_fn, merged) -> None:
        """Hand each task's shards to their specs' folds as it arrives.

        Completions arrive from :meth:`Executor.stream` in whatever
        order the pool finishes them.  Each one is split into its
        shards' parts, and each part goes straight to its spec's
        :class:`_Fold`: under ``resume`` a fresh shard is checkpointed
        at once, then staged and folded in plan order, so the merged
        ensemble stays bit-identical to
        :func:`~repro.core.results.merge_parts` of the plan's parts.  A
        part waits in staging only for an earlier shard of its own spec
        that has not arrived, and the executor never runs more than its
        window of tasks past the lowest task index it has not yielded,
        so at most ``O(workers)`` task results are held, against
        ``O(shards)`` for a collect-then-merge.

        A spec whose shards all folded is finalized — and cached —
        immediately, so a later failure in another spec never discards
        completed work; shards of a spec that already failed are still
        checkpointed, so an aborted grid leaves the maximum behind for
        ``--resume``.  A failed task fails every shard it carries, each
        reported as ``(spec position, plan ordinal)``.  Progress fires
        once per shard, on its task's final outcome, as it arrives: the
        count is monotone, never exceeds the dispatch total, and counts
        a retried shard once.
        """
        failures: List[Tuple[Tuple[int, int], str, str]] = []
        arrived = [False] * len(tasks)
        tracer = get_tracer()
        total = sum(len(members) for members in routes)
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
            members = routes[index]
            failed = []  # (fold, ordinal, error, traceback) of this task
            if ok:
                # Traced workers ship telemetry with the parts; unwrap
                # (bare parts pass through) before they are stored.
                parts = ingest_envelope(payload)
                if not isinstance(parts, list) or len(parts) != len(members):
                    error = ValueError(
                        f"task {index} returned {type(parts).__name__} "
                        f"for {len(members)} shard(s), not a list of "
                        "their parts"
                    )
                    failed = [
                        (fold, ordinal, repr(error), _format_exception(error))
                        for fold, ordinal in members
                    ]
                    parts = []
                for (fold, ordinal), part in zip(members, parts):
                    if self.resume:
                        self.cache.put(checkpoint_key(fold.key, ordinal), part)
                    if fold.failed:
                        continue
                    try:
                        complete = fold.add(ordinal, part)
                    except Exception as error:  # noqa: BLE001 - reported
                        # A malformed part (e.g. from a custom executor)
                        # must fail its spec, not crash the whole loop
                        # mid-grid.
                        failed.append((
                            fold, ordinal, repr(error),
                            _format_exception(error),
                        ))
                    else:
                        if complete:
                            self._finish(fold, merged)
            else:
                _, error, trace = _failure_triple(index, payload)
                failed = [
                    (fold, ordinal, error, trace) for fold, ordinal in members
                ]
            if failed and tracer.enabled:
                tracer.event("shards.failed", task=index, shards=len(failed))
            for fold, ordinal, error, trace in failed:
                failures.append(((fold.position, ordinal), error, trace))
                fold.failed = True
                fold.accumulator = None  # free the partial fold
                fold.staged.clear()
            if tracer.enabled:
                tracer.event("shard.merge", task=index, ok=ok)
            for _ in members:
                done += 1
                if self.progress is not None:
                    self.progress(done, total)
        if not all(arrived):
            # A custom stream() that drops tasks instead of yielding
            # them as failures would otherwise surface as silent None
            # results far downstream.
            raise RuntimeError(
                f"executor stream yielded {sum(arrived)} of {len(tasks)} "
                "tasks — every task must be yielded exactly once (as a "
                "failure if it did not run)"
            )
        if failures:
            # Completed specs were already cached as they finalized; the
            # drained per-task results are deliberately not retained
            # (retaining them is exactly what streaming avoids).
            failures.sort(key=lambda failure: failure[0])
            raise ShardExecutionError(failures)

    def __repr__(self) -> str:
        return f"ParallelRunner(workers={self.workers}, cache={self.cache!r})"
