"""Tests for repro.runtime.faults and the fault-tolerant executor paths.

Covers the retry-policy unit behavior, the ShardFailure payload (which
must keep unpacking as the historical ``(error, traceback)`` pair and
survive pickling back from worker processes), and the executor-level
retry / timeout / crash / degrade machinery on every backend — plus
the stream failure-path contract the runner's plan-order fold relies
on: each index yielded exactly once with its *final* outcome.
"""

import json
import os
import pathlib
import pickle
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.runtime.executor import (
    SerialExecutor,
    ShardExecutionError,
    make_executor,
)
from repro.runtime.faults import (
    DEFAULT_RETRYABLE,
    PoolDegradedWarning,
    RetryPolicy,
    ShardFailure,
    TransientShardError,
    WorkerCrashError,
    WorkerTimeoutError,
    exception_lineage,
)


def _claim(root, task):
    """The n-th call for ``task`` returns n — across processes and pool respawns."""
    root = pathlib.Path(root)
    root.mkdir(parents=True, exist_ok=True)
    attempt = 1
    while True:
        marker = root / f"{task}.{attempt}"
        try:
            fd = os.open(str(marker), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            attempt += 1
            continue
        os.close(fd)
        return attempt


class Flaky:
    """Fail the first ``failures`` attempts of each task, then succeed.

    Attempt counting lives on disk so the callable works identically
    in-process, in forked workers, and in respawned pools.
    """

    def __init__(self, root, failures=1, error=TransientShardError):
        self.root = str(root)
        self.failures = failures
        self.error = error

    def __call__(self, x):
        attempt = _claim(self.root, x)
        if attempt <= self.failures:
            raise self.error(f"flaky task {x} attempt {attempt}")
        return x * x


class CrashOnce:
    """First attempt of task 0 kills the worker process outright."""

    def __init__(self, root):
        self.root = str(root)

    def __call__(self, x):
        if x == 0 and _claim(self.root, x) == 1:
            os._exit(43)
        return x * x


class HangOnce:
    """First attempt of task 0 stalls well past any test deadline."""

    def __init__(self, root, stall=20.0):
        self.root = str(root)
        self.stall = stall

    def __call__(self, x):
        if x == 0 and _claim(self.root, x) == 1:
            time.sleep(self.stall)
        return x * x


class FailHead:
    """Task 0 — the plan-order cursor — fails permanently; the rest pass."""

    def __init__(self, root):
        self.root = str(root)

    def __call__(self, x):
        _claim(self.root, x)
        if x == 0:
            raise ValueError("head always fails")
        return x * x


def square(x):
    return x * x


FAST = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.01)


class TestRetryPolicy:
    def test_allows_counts_total_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows(1) and policy.allows(2)
        assert not policy.allows(3)

    def test_one_attempt_means_no_retries(self):
        assert not RetryPolicy(max_attempts=1).allows(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)

    def test_delay_is_exponential_and_capped(self):
        policy = RetryPolicy(base_delay=0.1, backoff=2.0, max_delay=0.3,
                             jitter=0.0)
        assert policy.delay(0, 1) == pytest.approx(0.1)
        assert policy.delay(0, 2) == pytest.approx(0.2)
        assert policy.delay(0, 3) == pytest.approx(0.3)  # capped
        assert policy.delay(0, 9) == pytest.approx(0.3)

    def test_delay_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5)
        values = {policy.delay(7, 2) for _ in range(10)}
        assert len(values) == 1  # pure function, no RNG
        (value,) = values
        assert 0.1 <= value <= 0.3  # raw 0.2 scaled by [0.5, 1.5]
        # Different tasks decorrelate.
        assert policy.delay(7, 2) != policy.delay(8, 2)

    def test_classifies_exception_objects_by_lineage(self):
        policy = RetryPolicy()
        assert policy.is_retryable(TransientShardError("x"))
        assert policy.is_retryable(WorkerTimeoutError("x"))
        assert policy.is_retryable(ConnectionResetError("x"))  # via OSError
        assert not policy.is_retryable(ValueError("x"))

    def test_classifies_shard_failures_by_carried_lineage(self):
        policy = RetryPolicy()
        transient = ShardFailure.from_exception(
            TransientShardError("x"), "tb"
        )
        hard = ShardFailure.from_exception(ValueError("x"), "tb")
        assert policy.is_retryable(transient)
        assert not policy.is_retryable(hard)

    def test_classifies_plain_tuples_by_repr_prefix(self):
        policy = RetryPolicy()
        assert policy.is_retryable(("TimeoutError('slow')", "tb"))
        assert not policy.is_retryable(("ValueError('bad')", "tb"))

    def test_exception_catchall_retries_everything(self):
        policy = RetryPolicy(retryable=("Exception",))
        assert policy.is_retryable(ShardFailure.from_exception(
            ValueError("x"), "tb"
        ))

    def test_default_retryable_names_the_markers(self):
        for name in ("TransientShardError", "WorkerTimeoutError",
                     "WorkerCrashError", "OSError"):
            assert name in DEFAULT_RETRYABLE


class TestShardFailure:
    def test_unpacks_as_the_historical_pair(self):
        failure = ShardFailure("ValueError('x')", "tb-text")
        error, tb = failure
        assert (error, tb) == ("ValueError('x')", "tb-text")
        assert failure.error == "ValueError('x')"
        assert failure.traceback == "tb-text"

    def test_from_exception_carries_lineage(self):
        failure = ShardFailure.from_exception(WorkerCrashError("boom"), "tb")
        assert failure.exc_types[0] == "WorkerCrashError"
        assert "TransientShardError" in failure.exc_types
        assert "Exception" in failure.exc_types

    def test_lineage_excludes_object(self):
        assert "object" not in exception_lineage(ValueError("x"))

    def test_with_attempts_is_a_stamped_copy(self):
        failure = ShardFailure("e", "tb", ("ValueError",))
        stamped = failure.with_attempts(4)
        assert stamped.attempts == 4
        assert failure.attempts == 1
        assert stamped.exc_types == failure.exc_types

    def test_pickle_roundtrip_preserves_metadata(self):
        failure = ShardFailure("e", "tb", ("OSError", "Exception"), 3)
        clone = pickle.loads(pickle.dumps(failure))
        assert isinstance(clone, ShardFailure)
        assert tuple(clone) == ("e", "tb")
        assert clone.exc_types == ("OSError", "Exception")
        assert clone.attempts == 3


BACKENDS = [
    pytest.param("serial", id="serial"),
    pytest.param("processes", id="processes"),
]


def _executor(backend, retry=None, timeout=None):
    workers = 1 if backend == "serial" else 3
    return make_executor(workers, retry=retry, timeout=timeout)


class TestExecutorRetries:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_transient_failures_are_retried_to_success(self, backend, tmp_path):
        executor = _executor(backend, retry=FAST)
        seen = []
        executor.retry_listener = lambda index, attempt: seen.append(
            (index, attempt)
        )
        assert executor.map(Flaky(tmp_path, failures=1), [0, 1, 2, 3]) == [
            0, 1, 4, 9,
        ]
        # Every task failed exactly once before succeeding.
        assert sorted(seen) == [(0, 1), (1, 1), (2, 1), (3, 1)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exhausted_attempts_report_the_count(self, backend, tmp_path):
        executor = _executor(backend, retry=FAST)
        with pytest.raises(ShardExecutionError) as excinfo:
            executor.map(Flaky(tmp_path, failures=99), [0, 1])
        assert len(excinfo.value.failures) == 2
        for index, error, _ in excinfo.value.failures:
            assert "(after 3 attempts)" in error

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_non_retryable_failures_fail_fast(self, backend, tmp_path):
        executor = _executor(backend, retry=FAST)
        with pytest.raises(ShardExecutionError) as excinfo:
            executor.map(Flaky(tmp_path, failures=99, error=ValueError), [5])
        (failure,) = excinfo.value.failures
        assert "after" not in failure[1]
        # Only one marker file: no second attempt was made.
        assert len(list(tmp_path.iterdir())) == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_progress_counts_final_outcomes_not_attempts(
        self, backend, tmp_path
    ):
        executor = _executor(backend, retry=FAST)
        seen = []
        executor.map(
            Flaky(tmp_path, failures=1),
            [0, 1, 2],
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stream_yields_each_index_once_with_final_outcome(
        self, backend, tmp_path
    ):
        executor = _executor(backend, retry=FAST)
        items = list(executor.stream(Flaky(tmp_path, failures=1), [0, 1, 2, 3]))
        assert sorted(index for index, _, _ in items) == [0, 1, 2, 3]
        assert all(ok for _, ok, _ in items)

    def test_worker_traceback_reaches_the_error_message(self, tmp_path):
        executor = _executor("processes", retry=None)
        with pytest.raises(ShardExecutionError) as excinfo:
            executor.map(Flaky(tmp_path, failures=99, error=ValueError), [7])
        message = str(excinfo.value)
        # The formatted worker traceback (not just the repr) crossed
        # the process boundary into the aggregate error.
        assert "Traceback (most recent call last)" in message
        assert "flaky task 7 attempt 1" in message

    def test_serial_retry_map_matches_plain_map(self, tmp_path):
        plain = SerialExecutor().map(square, [1, 2, 3])
        retried = _executor("serial", retry=FAST).map(square, [1, 2, 3])
        assert plain == retried


#: Runs MultiprocessingExecutor(2).stream over 4 tasks in a fresh
#: interpreter, where task 1 kills its worker, and prints the items.
#: Task 1 dies only after the other worker has had time to finish
#: tasks 0, 2 and 3, so it is the only shard in flight at the crash.
_CRASH_SCRIPT = textwrap.dedent("""
    import json
    import os
    import time

    from repro.runtime.executor import MultiprocessingExecutor

    def task(x):
        if x == 1:
            time.sleep(0.5)
            os._exit(43)
        return x * x

    if __name__ == "__main__":
        items = MultiprocessingExecutor(2).stream(task, [0, 1, 2, 3])
        print(json.dumps([
            [index, ok, payload if ok else payload[0]]
            for index, ok, payload in items
        ]))
""")


class TestTimeoutsAndCrashes:
    def test_process_timeout_without_retry_fails_with_timeout_error(
        self, tmp_path
    ):
        executor = _executor("processes", timeout=0.3)
        with pytest.raises(ShardExecutionError) as excinfo:
            executor.map(HangOnce(tmp_path), [0, 1, 2, 3])
        (failure,) = excinfo.value.failures
        assert failure[0] == 0
        assert "WorkerTimeoutError" in failure[1]

    def test_process_timeout_respawns_pool_and_retries(self, tmp_path):
        executor = _executor("processes", retry=FAST, timeout=0.4)
        assert executor.map(HangOnce(tmp_path), [0, 1, 2, 3]) == [0, 1, 4, 9]

    def test_process_crash_is_detected_and_retried(self, tmp_path):
        executor = _executor("processes", retry=FAST)
        assert executor.map(CrashOnce(tmp_path), [0, 1, 2, 3]) == [0, 1, 4, 9]

    def test_process_crash_without_knobs_fails_only_its_shard(self):
        # No retry, no timeout: the dead worker's shard must still be
        # reported, never awaited forever.  A subprocess bounds a hang.
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", _CRASH_SCRIPT],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 0, done.stderr
        items = {index: (ok, value) for index, ok, value in
                 json.loads(done.stdout)}
        assert sorted(items) == [0, 1, 2, 3]
        assert items[0] == (True, 0)
        assert items[2] == (True, 4)
        assert items[3] == (True, 9)
        ok, error = items[1]
        assert not ok
        assert "WorkerCrashError" in error

    def test_unrecoverable_pool_degrades_to_serial(self, tmp_path):
        executor = _executor("processes", retry=FAST, timeout=0.3)
        executor.max_respawns = 0
        with pytest.warns(PoolDegradedWarning):
            results = executor.map(HangOnce(tmp_path, stall=20.0), [0, 1, 2, 3])
        # Degraded serial execution ignores the deadline, so even the
        # stalling first attempt of task 0... is retried after its
        # timeout classification and completes in-process.
        assert results == [0, 1, 4, 9]


class TestStreamReorderContract:
    """The stream contract under injected faults: every index arrives
    exactly once, so a plan-order consumer can restore the order."""

    def _release_plan_order(self, executor, fn, tasks):
        arrived = {}
        for index, ok, payload in executor.stream(fn, tasks):
            assert index not in arrived, f"task {index} yielded twice"
            arrived[index] = (ok, payload)
        assert sorted(arrived) == list(range(len(tasks)))
        return sorted(arrived.items())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mid_window_failure_still_releases_every_index(
        self, backend, tmp_path
    ):
        executor = _executor(backend, retry=FAST)
        released = self._release_plan_order(
            executor, Flaky(tmp_path, failures=99, error=ValueError),
            [0, 1, 2, 3, 4],
        )
        assert [index for index, _ in released] == [0, 1, 2, 3, 4]
        oks = {index: ok for index, (ok, _) in released}
        assert all(not ok for ok in oks.values())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_lowest_unyielded_failure_does_not_stall_the_window(
        self, backend, tmp_path
    ):
        # Task 0 (the lowest index, which gates the submission
        # window) fails permanently while later tasks succeed: the
        # stream must still finalize 0 and yield every other index.
        executor = _executor(backend, retry=FAST)
        released = self._release_plan_order(
            executor, FailHead(tmp_path), list(range(8))
        )
        assert [index for index, _ in released] == list(range(8))
        ok0, payload0 = released[0][1]
        assert not ok0
        error, _tb = payload0
        assert "head always fails" in error
        assert all(ok for _, (ok, _) in released[1:])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_retry_then_succeed_releases_in_plan_order(self, backend, tmp_path):
        executor = _executor(backend, retry=FAST)
        released = self._release_plan_order(
            executor, Flaky(tmp_path, failures=2), list(range(6))
        )
        assert [index for index, _ in released] == list(range(6))
        assert [payload for _, (ok, payload) in released] == [
            x * x for x in range(6)
        ]


class TestMakeExecutorKnobs:
    def test_int_retry_shorthand(self):
        executor = make_executor(1, retry=4)
        assert executor.retry.max_attempts == 4

    def test_bad_retry_type(self):
        with pytest.raises(TypeError):
            make_executor(1, retry="lots")

    def test_bad_timeout(self):
        with pytest.raises(ValueError):
            make_executor(1, timeout=0)

    def test_defaults_are_off(self):
        executor = make_executor(2)
        assert executor.retry is None and executor.timeout is None
