"""Executor backends: the serial and multiprocessing engines.

An executor runs a picklable task function over a list of tasks.  Its
one primitive is :meth:`Executor.stream`: completions yielded as
``(task_index, ok, payload)`` the moment tasks finish, every index
exactly once with its *final* outcome, with a bounded submission window
so at most ``O(workers)`` task results exist between the pool and the
consumer.  A runner task may carry several shards (a fused engine run);
the runner splits each completion into its shards and hands each to its
spec's plan-order fold as it arrives, which is how 100k-trial ensembles
merge without ever materializing every shard result at once.
:meth:`Executor.map` is a collect over the stream that returns results
*in task order* and aggregates failures rather than raising at the
first: every task runs, then a single :class:`ShardExecutionError`
reports all failures with their tracebacks.

Each backend runs every dispatch through one fault-tolerant loop.
:func:`make_executor`'s ``retry`` and ``timeout`` knobs (see
:mod:`repro.runtime.faults`) give each task up to
``RetryPolicy.max_attempts`` attempts with deterministic exponential
backoff and a per-shard deadline that kills hung workers (a task that
declares a ``shard_count`` gets that many deadlines).  With or
without them, dead worker processes are detected and the pool
respawned, and an unrecoverable pool degrades the remaining shards to
serial in-process execution behind a loud :class:`PoolDegradedWarning`.
Because shards are idempotent pure functions of their plan, a retried
run is **bit-identical** to a clean one, and plan-order consumers are
oblivious to the attempts underneath.

The multiprocessing backend prefers the ``fork`` start method where
available (cheap on Linux, and shard tasks are read-only after fork)
and falls back to ``spawn`` elsewhere, which is why task functions
must be module-level (picklable by reference).
"""

from __future__ import annotations

import heapq
import multiprocessing
import queue
import time
import traceback
import warnings
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from .._validation import ensure_positive_int
from ..obs.trace import get_tracer
from .faults import (
    PoolDegradedWarning,
    RetryPolicy,
    ShardFailure,
    WorkerCrashError,
    WorkerTimeoutError,
    exception_lineage,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "MultiprocessingExecutor",
    "ShardExecutionError",
    "StreamItem",
    "make_executor",
]

#: Progress callback signature: ``callback(completed, total)``.
ProgressCallback = Callable[[int, int], None]

#: One streamed completion: ``(task_index, ok, payload)`` where
#: ``payload`` is the task's return value when ``ok`` and an
#: ``(error_repr, traceback_text)`` pair otherwise.
StreamItem = Tuple[int, bool, Any]

#: How often (seconds) the process backend checks worker liveness while
#: waiting on completions — a crashed worker never delivers a callback,
#: so liveness must be polled.
_LIVENESS_TICK = 0.25

#: The process backend's ``multiprocessing`` start method: ``fork``
#: where the platform offers it, else the platform default (None).
_START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else None


class ShardExecutionError(RuntimeError):
    """One or more shards failed; carries every failure, not just the first.

    Attributes
    ----------
    failures:
        List of ``(shard, error_repr, traceback_text)`` tuples.  A
        :class:`~repro.runtime.runner.ParallelRunner` dispatch names
        each shard ``(spec position, plan ordinal)`` and reports every
        shard of a failed task, which all share its traceback;
        :meth:`Executor.map` names a task by its index.  When retries
        were enabled, the ``error_repr`` of a task that exhausted its
        attempts is suffixed with the attempt count.
    """

    def __init__(self, failures: Sequence[Tuple[Any, str, str]]) -> None:
        self.failures = list(failures)
        summary = "; ".join(
            f"{_shard_name(shard)}: {error}" for shard, error, _ in self.failures
        )
        # Shards of one failed task repeat its traceback: print it once.
        details = "\n\n".join(dict.fromkeys(tb for _, _, tb in self.failures))
        super().__init__(
            f"{len(self.failures)} shard(s) failed — {summary}\n{details}"
        )


def _shard_name(shard) -> str:
    """``spec P shard O`` for a runner's ``(position, ordinal)``, else
    ``shard I`` for a task index."""
    if isinstance(shard, tuple):
        position, ordinal = shard
        return f"spec {position} shard {ordinal}"
    return f"shard {shard}"


def _task_shards(task) -> int:
    """Shards ``task`` runs, each owed the per-shard deadline: its
    ``shard_count`` when it declares one (a fused runner task), else 1."""
    return getattr(task, "shard_count", 1)


def _format_exception(error: BaseException) -> str:
    """Full traceback text for an exception object (transport failures
    arrive as objects, not active exceptions, so format_exc() is out)."""
    return "".join(
        traceback.format_exception(type(error), error, error.__traceback__)
    )


def _guarded_call(payload: Tuple[Callable[[Any], Any], Any]) -> Tuple[bool, Any]:
    """Run one task, capturing any exception as data (workers can't raise
    rich tracebacks across process boundaries).  The failure payload is
    a :class:`ShardFailure` — it unpacks as ``(error_repr, traceback)``
    and additionally carries the exception's class lineage so the
    parent can classify it for retry without the exception object."""
    fn, task = payload
    try:
        return True, fn(task)
    except Exception as error:  # noqa: BLE001 - aggregated and re-raised
        return False, ShardFailure.from_exception(error, traceback.format_exc())


def _failure_triple(index: int, payload) -> Tuple[int, str, str]:
    """Normalize a failure payload into the ``failures`` triple shape,
    annotating the error with the attempt count when retries ran."""
    error, tb = payload
    attempts = getattr(payload, "attempts", 1)
    if attempts > 1:
        error = f"{error} (after {attempts} attempts)"
    return index, error, tb


def _resolve_window(window: Optional[int], pool_size: int) -> int:
    """The in-flight cap for a streaming dispatch.

    Defaults to twice the pool so workers never starve while the
    consumer folds, and is clamped to at least the pool size — a
    smaller window would leave workers permanently idle.
    """
    if window is None:
        return pool_size * 2
    return max(ensure_positive_int("window", window), pool_size)


class Executor:
    """Base class of the executor backends.

    Subclasses implement :meth:`stream`; ``workers`` reports the degree
    of parallelism (1 for serial).  :meth:`map` collects the stream.

    Fault-tolerance knobs (all optional, all ``None`` by default, in
    which case each shard runs exactly once):

    ``retry``
        A :class:`~repro.runtime.faults.RetryPolicy`; failed shards
        whose exception classifies as transient are re-run with
        deterministic backoff before being reported.
    ``timeout``
        Per-shard deadline in seconds; a task that declares a
        ``shard_count`` of ``k`` gets ``k`` times it.  Enforced by the
        process backend (an expired task's pool is killed and
        respawned, and the task counts as a :class:`WorkerTimeoutError`
        failure, retryable under the policy); the serial backend cannot
        preempt in-process work and ignores it.
    ``retry_listener``
        Optional ``callback(task_index, attempt)`` fired once per
        retry — the runner uses it to keep its retry tally without
        double-counting shards.

    Under an enabled tracer the stream records each attempt's
    ``shard.submit`` and ``shard.complete`` events (``timeout=True`` or
    ``crashed=True`` on a task the pool lost) and a ``shard.retry``,
    ``pool.respawn`` or ``pool.degraded`` event where one happens;
    ``--metrics`` counts those records.
    """

    workers: int = 1
    retry: Optional[RetryPolicy] = None
    timeout: Optional[float] = None
    retry_listener: Optional[Callable[[int, int], None]] = None
    #: Pool rebuilds allowed per dispatch before degrading to serial.
    max_respawns: int = 3

    def stream(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        *,
        window: Optional[int] = None,
    ) -> Iterator[StreamItem]:
        """Yield ``(task_index, ok, payload)`` as tasks complete.

        Every task runs (failures are yielded as data, never raised),
        and each index appears exactly once — with its *final* outcome
        when retries are configured.  No task more than ``window``
        tasks (default ``2 * workers``) past the lowest index not yet
        yielded is started, so the task results a plan-order consumer
        must hold while it waits for an earlier index are bounded by
        the window, not the task count.
        """
        raise NotImplementedError

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        *,
        progress: Optional[ProgressCallback] = None,
    ) -> List[Any]:
        """Apply ``fn`` to every task, returning results in task order.

        Progress fires once per task on its *final* outcome (never per
        attempt, so retried shards are not double-counted), in
        completion order.  Failures are aggregated into one
        :class:`ShardExecutionError` once every task has run.
        """
        tasks = list(tasks)
        results: List[Any] = [None] * len(tasks)
        failures: List[Tuple[int, str, str]] = []
        for done, (index, ok, payload) in enumerate(
            self.stream(fn, tasks), start=1
        ):
            if ok:
                results[index] = payload
            else:
                failures.append(_failure_triple(index, payload))
            if progress is not None:
                progress(done, len(tasks))
        if failures:
            failures.sort(key=lambda item: item[0])
            raise ShardExecutionError(failures)
        return results

    # -- fault-tolerance plumbing (shared by the backends) ---------------

    def _note_retry(self, index: int, attempt: int, delay: float) -> None:
        """Record one retry in telemetry and toward the caller's tally."""
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "shard.retry", task=index, attempt=attempt, delay=delay
            )
        listener = self.retry_listener
        if listener is not None:
            listener(index, attempt)

    def _decide_failure(
        self, index: int, attempt: int, payload, scheduled: list
    ) -> Optional[StreamItem]:
        """Route one failed attempt: schedule a retry (returns None) or
        finalize the failure (returns the stream item)."""
        policy = self.retry
        if (
            policy is not None
            and policy.allows(attempt)
            and policy.is_retryable(payload)
        ):
            delay = policy.delay(index, attempt)
            self._note_retry(index, attempt, delay)
            heapq.heappush(
                scheduled, (time.monotonic() + delay, index, attempt + 1)
            )
            return None
        if isinstance(payload, ShardFailure):
            payload = payload.with_attempts(attempt)
        return index, False, payload

    def _synthetic_failure(self, error: Exception) -> ShardFailure:
        """A failure payload for a shard that never reported back (the
        worker was terminated, so no traceback exists)."""
        return ShardFailure(
            repr(error),
            f"{type(error).__name__}: {error}\n"
            "  (no worker traceback: the worker was terminated before "
            "the shard reported back)",
            exception_lineage(error),
        )

    def _run_with_retries(
        self,
        fn: Callable[[Any], Any],
        task: Any,
        index: int,
        first_attempt: int = 1,
    ) -> StreamItem:
        """Run one task in-process under the retry policy (the serial
        execution path, also used for pool degradation)."""
        tracer = get_tracer()
        attempt = first_attempt
        while True:
            if tracer.enabled:
                tracer.event("shard.submit", task=index, attempt=attempt)
            ok, value = _guarded_call((fn, task))
            if tracer.enabled:
                tracer.event("shard.complete", task=index, ok=ok)
            if ok:
                return index, True, value
            policy = self.retry
            if (
                policy is None
                or not policy.allows(attempt)
                or not policy.is_retryable(value)
            ):
                if isinstance(value, ShardFailure):
                    value = value.with_attempts(attempt)
                return index, False, value
            delay = policy.delay(index, attempt)
            self._note_retry(index, attempt, delay)
            if delay > 0:
                time.sleep(delay)
            attempt += 1

    def _degrade_remaining(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        remaining: Sequence[Tuple[int, int]],
        reason: str,
    ) -> Iterator[StreamItem]:
        """Run ``remaining`` ``(index, attempt)`` pairs serially after the
        pool became unrecoverable.  Loud by design: losing parallelism
        mid-run is worth a warning even though the results (being pure
        functions of the plan) are unaffected."""
        remaining = sorted(set(remaining))
        warnings.warn(
            f"{type(self).__name__} pool is unrecoverable ({reason}); "
            f"running the remaining {len(remaining)} shard task(s) "
            "serially in-process.  Results are unaffected — shards are "
            "deterministic — but parallelism is lost for the rest of "
            "this dispatch.",
            PoolDegradedWarning,
            stacklevel=3,
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "pool.degraded", reason=reason, remaining=len(remaining)
            )
        for index, attempt in remaining:
            yield self._run_with_retries(
                fn, tasks[index], index, first_attempt=attempt
            )


class SerialExecutor(Executor):
    """In-process execution: the reference backend and the 1-worker case.

    With a retry policy configured, each task gets its attempts inline
    (same deterministic backoff as the pool).  ``timeout`` is ignored:
    in-process work cannot be preempted, and serial execution has no
    worker to lose.
    """

    workers = 1

    def stream(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        *,
        window: Optional[int] = None,
    ) -> Iterator[StreamItem]:
        """Serial streaming: tasks complete (and yield) in index order,
        so exactly one result is ever in flight."""
        for index, task in enumerate(list(tasks)):
            yield self._run_with_retries(fn, task, index)

    def __repr__(self) -> str:
        return "SerialExecutor()"


def _serial_clone(executor: Executor) -> SerialExecutor:
    """A serial executor inheriting ``executor``'s fault-tolerance knobs
    (for the 1-task delegation path, so retries still apply)."""
    clone = SerialExecutor()
    clone.retry = executor.retry
    clone.timeout = executor.timeout
    clone.retry_listener = executor.retry_listener
    return clone


class MultiprocessingExecutor(Executor):
    """Process-pool execution via :mod:`multiprocessing`.

    Parameters
    ----------
    workers:
        Pool size.  The pool never exceeds the task count.

    The stream enforces per-shard deadlines (when ``timeout`` is set)
    and polls worker liveness: an expired or crashed shard terminates
    the pool (a single hung worker cannot be killed individually),
    salvages every completion already delivered, respawns the pool,
    resubmits the innocent in-flight shards at no attempt cost, and
    charges only the suspects (the expired shard, or every in-flight
    shard on a crash — the victim is unknowable) an attempt.  After
    :attr:`Executor.max_respawns` rebuilds the remaining shards degrade
    to serial in-process execution with a
    :class:`~repro.runtime.faults.PoolDegradedWarning`.
    """

    def __init__(self, workers: int) -> None:
        self.workers = ensure_positive_int("workers", workers)

    def stream(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        *,
        window: Optional[int] = None,
    ) -> Iterator[StreamItem]:
        """Yield completions as worker processes finish, out of order.

        Windowed ``apply_async`` submission gated on the lowest index
        not yet yielded — the earliest part a plan-order consumer can
        be waiting on — not on raw completion count: if one early shard
        is slow, submission stalls at its index + window, so no more
        than ``window`` completions can ever pile up behind it, even
        under extreme shard-time skew.
        """
        tasks = list(tasks)
        if not tasks:
            return
        pool_size = min(self.workers, len(tasks))
        if pool_size == 1:
            yield from _serial_clone(self).stream(fn, tasks)
            return
        window = _resolve_window(window, pool_size)
        timeout = self.timeout
        tracer = get_tracer()
        context = multiprocessing.get_context(_START_METHOD)
        completions: "queue.SimpleQueue" = queue.SimpleQueue()
        total = len(tasks)
        in_flight: dict = {}  # index -> (attempt, deadline or None)
        scheduled: list = []  # heap of (ready_time, index, next_attempt)
        unfinal: set = set()
        submitted = 0
        finalized = 0
        respawns = 0
        pool = None
        procs: list = []

        def spawn_pool() -> None:
            nonlocal pool, procs
            pool = context.Pool(pool_size)
            # Snapshot the worker Process objects for liveness checks;
            # guard the private attribute so an exotic Pool subclass
            # merely loses crash detection, not correctness.
            procs = list(getattr(pool, "_pool", []))

        def submit(index: int, attempt: int) -> None:
            if tracer.enabled:
                tracer.event("shard.submit", task=index, attempt=attempt)
            deadline = None
            if timeout is not None:
                deadline = (
                    time.monotonic() + timeout * _task_shards(tasks[index])
                )
            in_flight[index] = (attempt, deadline)
            pool.apply_async(
                _guarded_call,
                ((fn, tasks[index]),),
                callback=lambda outcome, index=index: completions.put(
                    (index, outcome)
                ),
                # _guarded_call captures task exceptions as data, so
                # this only fires on transport failures (e.g. an
                # unpicklable result); surface those as shard failures
                # too rather than hanging the drain.
                error_callback=lambda error, index=index: completions.put(
                    (index, (False, ShardFailure.from_exception(
                        error, _format_exception(error)
                    )))
                ),
            )

        def fill() -> None:
            nonlocal submitted
            low = min(unfinal, default=submitted)
            while submitted < total and submitted < low + window:
                unfinal.add(submitted)
                submit(submitted, 1)
                submitted += 1

        def absorb(index: int, ok: bool, value) -> Optional[StreamItem]:
            """Handle one delivered completion; final item or None."""
            attempt, _ = in_flight.pop(index)
            if tracer.enabled:
                tracer.event("shard.complete", task=index, ok=ok)
            if ok:
                return index, True, value
            return self._decide_failure(index, attempt, value, scheduled)

        def recover(expired: set, crashed: bool):
            """Tear down the pool, salvage delivered completions, charge
            the suspects an attempt, and respawn (or signal degrade).

            Returns ``(final_outcomes, degrade)``.
            """
            nonlocal respawns
            pool.terminate()
            pool.join()
            outcomes: List[StreamItem] = []
            # Completions delivered before the teardown are real results
            # — honor them before deciding who was at fault.
            while True:
                try:
                    index, (ok, value) = completions.get_nowait()
                except queue.Empty:
                    break
                if index not in in_flight:
                    continue
                outcome = absorb(index, ok, value)
                if outcome is not None:
                    outcomes.append(outcome)
            # Whatever is still in flight died with the pool.  Expired
            # shards (and, on a crash, every survivor — the victim is
            # unknowable) are suspects and pay an attempt; the rest are
            # innocent and resubmit free.
            innocents: List[Tuple[int, int]] = []
            for index in list(in_flight):
                attempt, _ = in_flight.pop(index)
                if index in expired:
                    if tracer.enabled:
                        tracer.event(
                            "shard.complete", task=index, ok=False,
                            timeout=True,
                        )
                    shards = _task_shards(tasks[index])
                    failure = self._synthetic_failure(WorkerTimeoutError(
                        f"shard task {index} exceeded the "
                        f"{timeout * shards:.4g}s deadline of its {shards} "
                        f"shard(s) on attempt {attempt}"
                    ))
                elif crashed:
                    if tracer.enabled:
                        tracer.event(
                            "shard.complete", task=index, ok=False,
                            crashed=True,
                        )
                    failure = self._synthetic_failure(WorkerCrashError(
                        f"a worker process died while shard task {index} "
                        f"was in flight (attempt {attempt})"
                    ))
                else:
                    innocents.append((index, attempt))
                    continue
                outcome = self._decide_failure(
                    index, attempt, failure, scheduled
                )
                if outcome is not None:
                    outcomes.append(outcome)
            respawns += 1
            if respawns > self.max_respawns:
                # Put the innocents back so the degrade sweep sees them.
                for index, attempt in innocents:
                    in_flight[index] = (attempt, None)
                return outcomes, True
            spawn_pool()
            if tracer.enabled:
                tracer.event(
                    "pool.respawn", crashed=crashed, expired=len(expired),
                    resubmitted=len(innocents),
                )
            # Innocent resubmissions bypass the window gate: their
            # indices are already counted in `submitted`/`unfinal`.
            for index, attempt in innocents:
                submit(index, attempt)
            return outcomes, False

        try:
            spawn_pool()
            fill()
            while finalized < total:
                now = time.monotonic()
                while scheduled and scheduled[0][0] <= now:
                    _, index, attempt = heapq.heappop(scheduled)
                    submit(index, attempt)
                marks = [
                    deadline
                    for _, deadline in in_flight.values()
                    if deadline is not None
                ]
                if scheduled:
                    marks.append(scheduled[0][0])
                if in_flight and procs:
                    marks.append(now + _LIVENESS_TICK)
                block = None if not marks else max(0.0, min(marks) - now)
                try:
                    index, (ok, value) = completions.get(timeout=block)
                except queue.Empty:
                    now = time.monotonic()
                    expired = {
                        index
                        for index, (_, deadline) in in_flight.items()
                        if deadline is not None and deadline <= now
                    }
                    crashed = any(
                        proc.exitcode is not None for proc in procs
                    )
                    if expired or crashed:
                        outcomes, degrade = recover(expired, crashed)
                        for outcome in outcomes:
                            unfinal.discard(outcome[0])
                            finalized += 1
                            yield outcome
                        if degrade:
                            remaining = [
                                (index, attempt)
                                for index, (attempt, _) in in_flight.items()
                            ]
                            remaining += [
                                (index, attempt)
                                for _, index, attempt in scheduled
                            ]
                            remaining += [
                                (index, 1)
                                for index in range(submitted, total)
                            ]
                            in_flight.clear()
                            scheduled.clear()
                            reason = (
                                "worker crash" if crashed else "hung worker"
                            ) + f" after {self.max_respawns} pool respawns"
                            pool.terminate()
                            yield from self._degrade_remaining(
                                fn, tasks, remaining, reason
                            )
                            return
                        fill()
                    continue
                if index not in in_flight:
                    continue  # stale delivery from a recycled pool
                outcome = absorb(index, ok, value)
                if outcome is not None:
                    unfinal.discard(index)
                    finalized += 1
                    fill()
                    yield outcome
        finally:
            if pool is not None:
                pool.terminate()
                pool.join()

    def __repr__(self) -> str:
        return f"MultiprocessingExecutor(workers={self.workers})"


def make_executor(
    workers: int,
    *,
    retry: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
) -> Executor:
    """The executor for a worker count.

    One worker is always the serial reference backend; above that it is
    a :class:`MultiprocessingExecutor`.

    ``retry`` (a :class:`~repro.runtime.faults.RetryPolicy`, or an int
    shorthand for ``RetryPolicy(max_attempts=n)``) and ``timeout``
    (per-shard deadline, seconds) are both off by default: each task
    then runs once, and a task whose worker dies fails with a
    :class:`~repro.runtime.faults.WorkerCrashError`.
    """
    workers = ensure_positive_int("workers", workers)
    if workers == 1:
        executor: Executor = SerialExecutor()
    else:
        executor = MultiprocessingExecutor(workers)
    if retry is not None:
        if isinstance(retry, int):
            retry = RetryPolicy(max_attempts=retry)
        if not isinstance(retry, RetryPolicy):
            raise TypeError(
                f"retry must be a RetryPolicy or int, got {type(retry).__name__}"
            )
        executor.retry = retry
    if timeout is not None:
        timeout = float(timeout)
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        executor.timeout = timeout
    return executor
