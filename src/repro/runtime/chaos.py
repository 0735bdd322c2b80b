"""Deterministic fault injection for testing the fault-tolerance layer.

:class:`ChaosExecutor` wraps any :class:`~repro.runtime.executor.Executor`
and injects failures, delays, hangs, corrupt-payload errors and worker
crashes into the tasks it runs, per a seeded :class:`ChaosSchedule`.
Two properties make it usable in differential tests:

* **Determinism without randomness.**  Whether attempt ``a`` of task
  ``i`` is sabotaged — and how — is a pure SHA-256 function of
  ``(seed, i, a, kind)``.  No RNG is consumed, so a chaos run's shard
  *results* are bit-identical to a fault-free run's (the doctrine the
  whole runtime rests on), and the schedule replays exactly.
* **Bounded malice.**  After ``max_faults_per_task`` faulty attempts, a
  task always runs clean — so any retry policy with
  ``max_attempts > max_faults_per_task`` is *guaranteed* to converge,
  which is what lets the differential suite assert bit-identity rather
  than mere eventual success.

Attempt numbering must survive process boundaries and pool respawns
(the wrapped function runs in workers that share no memory), so
attempts are claimed via ``O_CREAT | O_EXCL`` marker files in a state
directory — atomic on every platform, and shared by the parent, forked
and respawned workers alike.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .executor import Executor, StreamItem
from .faults import RetryPolicy, TransientShardError

__all__ = [
    "ChaosCorruption",
    "ChaosExecutor",
    "ChaosFault",
    "ChaosSchedule",
]

PathLike = Union[str, pathlib.Path]


class ChaosFault(TransientShardError):
    """An injected transient failure (retryable under the default policy)."""


class ChaosCorruption(TransientShardError):
    """An injected corrupt-payload detection.

    Models a worker that *noticed* its result bytes were damaged in
    transit (checksum mismatch) — the recoverable flavor of corruption.
    Silent on-disk corruption is covered separately by the cache's
    crash-consistency handling, which treats unreadable artifacts as
    misses and evicts them.
    """


#: Fault kinds in priority order: at most one fires per attempt.
_FAULT_KINDS = ("crash", "hang", "fail", "corrupt", "delay")


@dataclass(frozen=True)
class ChaosSchedule:
    """A seeded, deterministic schedule of which attempts get sabotaged.

    Parameters
    ----------
    seed:
        Schedule seed; two schedules with equal parameters inject the
        exact same faults.
    state_dir:
        Directory for the attempt-claim marker files.  Must be shared
        by every worker of the run (a temp dir is fine); it is created
        on first use.
    fail_rate / corrupt_rate / delay_rate / hang_rate / crash_rate:
        Per-attempt probabilities (evaluated deterministically) of each
        fault kind.  At most one kind fires per attempt, checked in the
        order crash, hang, fail, corrupt, delay.
    delay / hang:
        Sleep durations (seconds) for the delay and hang kinds.  A hang
        models a stalled worker: long enough to trip a configured
        ``timeout``, but finite so schedules without timeouts still
        terminate.
    crash_exit_code:
        ``os._exit`` code for the crash kind.  Crashes only fire in
        worker *processes* (never in the parent pid — an in-process
        backend downgrades a scheduled crash to a :class:`ChaosFault`).
    max_faults_per_task:
        After this many attempts of a task, no further faults are
        injected — the convergence guarantee.
    """

    seed: int
    state_dir: PathLike
    fail_rate: float = 0.0
    corrupt_rate: float = 0.0
    delay_rate: float = 0.0
    hang_rate: float = 0.0
    crash_rate: float = 0.0
    delay: float = 0.01
    hang: float = 2.0
    crash_exit_code: int = 23
    max_faults_per_task: int = 2

    def __post_init__(self) -> None:
        for name in ("fail_rate", "corrupt_rate", "delay_rate",
                     "hang_rate", "crash_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.delay < 0 or self.hang < 0:
            raise ValueError("delay and hang must be non-negative")
        if self.max_faults_per_task < 0:
            raise ValueError(
                f"max_faults_per_task must be non-negative, "
                f"got {self.max_faults_per_task}"
            )
        object.__setattr__(self, "state_dir", str(self.state_dir))

    def draw(self, task: int, attempt: int, kind: str) -> float:
        """A uniform-[0,1) value, pure in ``(seed, task, attempt, kind)``."""
        digest = hashlib.sha256(
            f"repro-chaos:{self.seed}:{task}:{attempt}:{kind}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def fault_for(self, task: int, attempt: int) -> Optional[str]:
        """The fault kind injected into this attempt, or None for clean."""
        if attempt > self.max_faults_per_task:
            return None
        rates = {
            "crash": self.crash_rate,
            "hang": self.hang_rate,
            "fail": self.fail_rate,
            "corrupt": self.corrupt_rate,
            "delay": self.delay_rate,
        }
        for kind in _FAULT_KINDS:
            rate = rates[kind]
            if rate > 0.0 and self.draw(task, attempt, kind) < rate:
                return kind
        return None

    def claim_attempt(self, task: int) -> int:
        """Atomically claim (and return) this execution's attempt number.

        Marker files under ``state_dir`` make the claim visible to
        every worker of the run, whatever backend or respawn history:
        the n-th process/thread to run task ``i`` sees attempt ``n``.
        """
        root = pathlib.Path(self.state_dir)
        root.mkdir(parents=True, exist_ok=True)
        attempt = 1
        while True:
            marker = root / f"task{task:06d}.attempt{attempt:03d}"
            try:
                fd = os.open(str(marker), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                attempt += 1
                continue
            os.close(fd)
            return attempt


class _Tagged(NamedTuple):
    """A task with its dispatch index, as the sabotaging call sees it."""

    index: int
    task: Any

    @property
    def shard_count(self) -> int:
        """The wrapped task's shard count, so deadlines scale as unwrapped."""
        return getattr(self.task, "shard_count", 1)


class _ChaosCall:
    """The picklable worker-side wrapper: sabotage, then run the task.

    Tasks arrive pre-tagged as ``(task_index, original_task)`` so the
    wrapper knows which schedule row applies without relying on any
    shared state beyond the marker directory.
    """

    def __init__(self, fn: Callable[[Any], Any], schedule: ChaosSchedule,
                 parent_pid: int) -> None:
        self.fn = fn
        self.schedule = schedule
        self.parent_pid = parent_pid

    def __call__(self, tagged: Tuple[int, Any]) -> Any:
        index, task = tagged
        attempt = self.schedule.claim_attempt(index)
        kind = self.schedule.fault_for(index, attempt)
        if kind == "crash":
            if os.getpid() != self.parent_pid:
                os._exit(self.schedule.crash_exit_code)
            # In-process backends cannot survive a real crash of
            # themselves; downgrade to a loud transient failure.
            raise ChaosFault(
                f"injected crash (in-process downgrade) "
                f"task={index} attempt={attempt}"
            )
        if kind == "hang":
            # A stall, not a death: sleep past any sane deadline, then
            # proceed.  Under a timeout the parent kills us
            # first; without one the run is merely slow.
            time.sleep(self.schedule.hang)
        elif kind == "fail":
            raise ChaosFault(
                f"injected failure task={index} attempt={attempt}"
            )
        elif kind == "corrupt":
            raise ChaosCorruption(
                f"injected payload corruption (checksum mismatch) "
                f"task={index} attempt={attempt}"
            )
        elif kind == "delay":
            time.sleep(self.schedule.delay)
        return self.fn(task)


class ChaosExecutor(Executor):
    """Wrap an executor so its tasks run under a fault schedule.

    Forwards ``stream`` (and so ``map``) to the inner executor with
    every task tagged by index and the task function wrapped in the
    sabotaging :class:`_ChaosCall`.  Fault-tolerance knobs live on the
    *inner* executor (chaos wraps it, it does not replace it); the
    properties here delegate so callers — the runner's retry tally in
    particular — see one coherent executor.

    Examples
    --------
    >>> import tempfile
    >>> from repro.runtime import make_executor
    >>> from repro.runtime.chaos import ChaosExecutor, ChaosSchedule
    >>> with tempfile.TemporaryDirectory() as state:
    ...     schedule = ChaosSchedule(seed=7, state_dir=state, fail_rate=1.0,
    ...                              max_faults_per_task=1)
    ...     inner = make_executor(1, retry=3)
    ...     chaos = ChaosExecutor(inner, schedule)
    ...     chaos.map(lambda x: x * 2, [1, 2, 3])
    [2, 4, 6]
    """

    def __init__(self, inner: Executor, schedule: ChaosSchedule) -> None:
        self.inner = inner
        self.schedule = schedule
        pathlib.Path(schedule.state_dir).mkdir(parents=True, exist_ok=True)

    @property
    def workers(self) -> int:
        return self.inner.workers

    @property
    def retry(self) -> Optional[RetryPolicy]:
        return self.inner.retry

    @property
    def timeout(self) -> Optional[float]:
        return self.inner.timeout

    @property
    def retry_listener(self):
        return self.inner.retry_listener

    @retry_listener.setter
    def retry_listener(self, listener) -> None:
        self.inner.retry_listener = listener

    def _wrap(
        self, fn: Callable[[Any], Any], tasks: Sequence[Any]
    ) -> Tuple[_ChaosCall, List[_Tagged]]:
        tagged = [_Tagged(index, task) for index, task in enumerate(list(tasks))]
        return _ChaosCall(fn, self.schedule, os.getpid()), tagged

    def stream(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        *,
        window: Optional[int] = None,
    ) -> Iterator[StreamItem]:
        wrapped, tagged = self._wrap(fn, tasks)
        return self.inner.stream(wrapped, tagged, window=window)

    def __repr__(self) -> str:
        return f"ChaosExecutor({self.inner!r}, seed={self.schedule.seed})"
