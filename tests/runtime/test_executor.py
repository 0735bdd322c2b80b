"""Tests for repro.runtime.executor — serial and process backends."""

import time

import pytest

from repro.runtime.executor import (
    Executor,
    MultiprocessingExecutor,
    SerialExecutor,
    ShardExecutionError,
    make_executor,
)


def square(x):
    return x * x


def fail_on_odd(x):
    if x % 2 == 1:
        raise ValueError(f"odd input {x}")
    return x


def slow_head(x):
    """Task 0 finishes last, guaranteeing out-of-order completion."""
    if x == 0:
        time.sleep(0.25)
    return x * x


class TestSerialExecutor:
    def test_maps_in_order(self):
        assert SerialExecutor().map(square, [1, 2, 3]) == [1, 4, 9]

    def test_empty_tasks(self):
        assert SerialExecutor().map(square, []) == []

    def test_progress_callback_fires_in_order(self):
        seen = []
        SerialExecutor().map(
            square, [1, 2, 3], progress=lambda done, total: seen.append((done, total))
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_aggregates_all_failures(self):
        with pytest.raises(ShardExecutionError) as excinfo:
            SerialExecutor().map(fail_on_odd, [0, 1, 2, 3])
        failures = excinfo.value.failures
        assert [index for index, _, _ in failures] == [1, 3]
        assert "odd input 3" in str(excinfo.value)

    def test_later_tasks_still_run_after_a_failure(self):
        seen = []
        with pytest.raises(ShardExecutionError):
            SerialExecutor().map(
                fail_on_odd,
                [0, 1, 2],
                progress=lambda done, total: seen.append(done),
            )
        assert seen == [1, 2, 3]


class TestMultiprocessingExecutor:
    def test_matches_serial_results_in_order(self):
        tasks = list(range(20))
        assert MultiprocessingExecutor(4).map(square, tasks) == [
            x * x for x in tasks
        ]

    def test_single_worker_pool_degrades_to_serial(self):
        assert MultiprocessingExecutor(4).map(square, [3]) == [9]

    def test_error_aggregation_across_processes(self):
        with pytest.raises(ShardExecutionError) as excinfo:
            MultiprocessingExecutor(2).map(fail_on_odd, [0, 1, 2, 3])
        assert [index for index, _, _ in excinfo.value.failures] == [1, 3]
        # Tracebacks survive the process boundary as text.
        assert "ValueError" in str(excinfo.value)

    def test_progress_callback(self):
        seen = []
        MultiprocessingExecutor(2).map(
            square,
            list(range(4)),
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            MultiprocessingExecutor(0)


STREAM_EXECUTORS = [
    pytest.param(SerialExecutor(), id="serial"),
    pytest.param(MultiprocessingExecutor(3), id="processes"),
]

POOL_EXECUTORS = [pytest.param(MultiprocessingExecutor(2), id="processes")]


class TestStream:
    @pytest.mark.parametrize("executor", STREAM_EXECUTORS)
    def test_yields_every_index_exactly_once_with_results(self, executor):
        tasks = list(range(10))
        items = list(executor.stream(square, tasks))
        assert sorted(index for index, _, _ in items) == tasks
        assert all(ok for _, ok, _ in items)
        assert {index: value for index, _, value in items} == {
            x: x * x for x in tasks
        }

    @pytest.mark.parametrize("executor", STREAM_EXECUTORS)
    def test_failures_streamed_as_data_not_raised(self, executor):
        items = list(executor.stream(fail_on_odd, [0, 1, 2, 3]))
        outcomes = {index: (ok, value) for index, ok, value in items}
        assert outcomes[0] == (True, 0)
        assert outcomes[2] == (True, 2)
        for index in (1, 3):
            ok, payload = outcomes[index]
            assert not ok
            error_repr, tb = payload
            assert f"odd input {index}" in error_repr

    @pytest.mark.parametrize("executor", STREAM_EXECUTORS)
    def test_empty_tasks(self, executor):
        assert list(executor.stream(square, [])) == []

    def test_serial_stream_is_in_order(self):
        items = list(SerialExecutor().stream(square, list(range(6))))
        assert [index for index, _, _ in items] == list(range(6))

    @pytest.mark.parametrize("executor", POOL_EXECUTORS)
    def test_submission_gated_on_lowest_unyielded_index(self, executor):
        # Task 0 is slow while every later task is instant.  Submission
        # must stall at (lowest unyielded index) + window, so no more
        # than window completions can ever be yielded ahead of the
        # plan-order cursor — the bound the runner's reorder buffer
        # relies on.  Without the gate, all nine fast tasks would
        # complete and yield before task 0.
        items = list(executor.stream(slow_head, list(range(10)), window=3))
        order = [index for index, _, _ in items]
        assert sorted(order) == list(range(10))
        assert order.index(0) <= 3

    def test_process_stream_completes_out_of_order(self):
        # Task 0 sleeps; with 2 workers the later tasks finish (and
        # must be yielded) before it — the reorder buffer's raison
        # d'être.
        items = list(
            MultiprocessingExecutor(2).stream(slow_head, list(range(4)))
        )
        order = [index for index, _, _ in items]
        assert sorted(order) == [0, 1, 2, 3]
        assert order[0] != 0

    @pytest.mark.parametrize("executor", POOL_EXECUTORS)
    def test_window_smaller_than_pool_is_clamped(self, executor):
        tasks = list(range(8))
        items = list(executor.stream(square, tasks, window=1))
        assert sorted(index for index, _, _ in items) == tasks

    def test_single_worker_pools_degrade_to_serial_stream(self):
        items = list(MultiprocessingExecutor(4).stream(square, [5]))
        assert items == [(0, True, 25)]

    def test_base_class_map_collects_stream_in_task_order(self):
        # map() is one collect over stream() for every executor: a
        # stream yielding in any order maps back to task order.
        class Reversed(Executor):
            def stream(self, fn, tasks, *, window=None):
                for index in reversed(range(len(tasks))):
                    yield index, True, fn(tasks[index])

        assert Reversed().map(square, [1, 2, 3]) == [1, 4, 9]


class TestMakeExecutor:
    def test_one_worker_is_serial(self):
        assert isinstance(make_executor(1), SerialExecutor)

    def test_many_workers_is_pool(self):
        executor = make_executor(4)
        assert isinstance(executor, MultiprocessingExecutor)
        assert executor.workers == 4

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            make_executor(0)
