"""Pins of the ``--metrics`` counter table.

Each counter is pinned on a run whose value is known exactly: a fig2
grid through the CLI, cold then warm, and a library run that retries
every task once, fails one task for good, absorbs failed fsyncs, and
then resumes from its checkpoints.  The values do not depend on how the
counters are recorded, so only :func:`recorded_counters` knows that.

The rest pin the table row by row at the site that records it — each
cache row against the cache's own count, each executor row on a run
with a known number of retries, timeouts and respawns — and pin that
the table is a plain sum over records: split, reordered, shipped from
a worker or written to a trace file, the records count the same.
"""

import os
import pathlib
import pickle
import re
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chainsim.harness import SystemExperiment
from repro.core.miners import Allocation
from repro.experiments.runner import main
from repro.obs import (
    ShardEnvelope,
    Tracer,
    ingest_envelope,
    metric_counters,
    read_trace,
    using_tracer,
    using_worker_tracer,
    write_trace,
)
from repro.protocols import MultiLotteryPoS, ProofOfWork
from repro.runtime import (
    CacheDegradedWarning,
    ChaosExecutor,
    ChaosSchedule,
    ParallelRunner,
    ResultCache,
    RetryPolicy,
    ShardExecutionError,
    SimulationSpec,
    SystemSpec,
    make_executor,
)
from repro.runtime.diskchaos import DiskChaos, DiskFaultSchedule, using_disk_chaos
from repro.runtime.executor import SerialExecutor
from repro.runtime.faults import PoolDegradedWarning, TransientShardError
from repro.runtime.integrity import clear_digest
from repro.sim.engine import simulate

_ROW = re.compile(r"^\s+(\S+)\s+(\d+)$")


def printed_counters(output):
    """The ``counter  value`` rows of the table ``--metrics`` prints."""
    lines = output.splitlines()
    table = lines[lines.index("metrics") + 1:]
    return {
        match.group(1): int(match.group(2))
        for match in map(_ROW.match, table)
        if match
    }


def recorded_counters(action):
    """Run ``action()`` under a fresh recorder; its counters by row name."""
    tracer = Tracer()
    with using_tracer(tracer):
        action()
    return metric_counters(tracer.spans)


class TestCLICounters:
    def test_cold_then_warm_fig2(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["fig2", "--preset", "ci", "--workers", "2",
                "--cache", str(cache), "--metrics"]
        assert main(argv) == 0
        cold = printed_counters(capsys.readouterr().out)
        stored = sorted(cache.glob("*.npz"))
        assert len(stored) == 4
        assert cold == {
            "cache.misses": 4,
            "cache.puts": 4,
            # zlib output differs across NumPy builds: sum what was written.
            "cache.put_bytes": sum(path.stat().st_size for path in stored),
            "runner.shards_dispatched": 4,
            "runner.specs": 4,
        }
        assert main(argv) == 0
        warm = printed_counters(capsys.readouterr().out)
        assert warm == {
            "cache.hits": 4,
            "runner.shards_dispatched": 0,
            "runner.specs": 4,
        }


class _OneRepeatFails:
    """A system experiment whose one-repeat shards always raise."""

    def __init__(self, inner):
        self.inner = inner

    def _run_serial(self, rounds, repeats, checkpoints=None, seed=None):
        if repeats == 1:
            raise RuntimeError("a one-repeat shard always fails")
        return self.inner._run_serial(
            rounds, repeats, checkpoints=checkpoints, seed=seed
        )


class TestLibraryCounters:
    def test_retries_failure_storage_errors_and_resume(
        self, tmp_path, two_miners
    ):
        # Two specs of two shards each: the healthy one splits 2 + 2
        # repeats, the other 2 + 1, and its 1-repeat shard always
        # raises.  System shards run one per task, so four tasks.
        specs = [
            SystemSpec(SystemExperiment("ml-pos", two_miners), 20, 4, seed=3),
            SystemSpec(
                _OneRepeatFails(SystemExperiment("ml-pos", two_miners)),
                20, 3, seed=4,
            ),
        ]
        cache = tmp_path / "cache"
        # Every task's first attempt fails and is retried; the second
        # runs clean, so only the 1-repeat shard fails for good.
        schedule = ChaosSchedule(
            seed=5, state_dir=str(tmp_path / "chaos"), fail_rate=1.0,
            max_faults_per_task=1,
        )
        chaotic = ParallelRunner(
            executor=ChaosExecutor(
                make_executor(1, retry=RetryPolicy(3, base_delay=0.0)),
                schedule,
            ),
            cache=cache,
            resume=True,
        )
        # Every fsync fails: each is counted and the run carries on.
        fsync_errors = DiskChaos(
            schedule=DiskFaultSchedule(seed=6, fsync_error_rate=1.0)
        )

        def interrupted():
            with using_disk_chaos(fsync_errors):
                with pytest.raises(ShardExecutionError, match="always fails"):
                    chaotic.run_system_many(specs, shards=2)

        counters = recorded_counters(interrupted)
        assert chaotic.shards_retried == 4
        assert counters["executor.retries"] == 4
        assert counters["runner.shards_retried"] == 4
        assert counters["runner.shards_failed"] == 1
        assert "runner.shards_resumed" not in counters
        # Four stores (the healthy spec's two shard checkpoints and its
        # merged artifact, one checkpoint of the other), two fsyncs each.
        assert counters["cache.puts"] == 4
        assert counters["cache.os_errors.fsync"] == 8

        resumed = ParallelRunner(workers=1, cache=cache, resume=True)

        def resume():
            with pytest.raises(ShardExecutionError, match="always fails"):
                resumed.run_system_many(specs, shards=2)

        counters = recorded_counters(resume)
        assert resumed.shards_resumed == 1
        assert counters["runner.shards_resumed"] == 1
        assert counters["runner.shards_failed"] == 1
        assert counters["cache.hits"] == 2  # the healthy spec, one checkpoint
        assert "executor.retries" not in counters


def _record(name, **attrs):
    """One span record, shaped as a :class:`Tracer` stores it."""
    return {
        "name": name, "span_id": 1, "parent_id": None, "ts": 0.0,
        "dur": 0.0, "pid": 1, "tid": 1, "attrs": attrs,
    }


#: One record of every kind a row reads, plus one that no row counts.
_RECORDS = [
    _record("runner.run_many", specs=2, shards=5, tasks=2),
    _record("runner.run_system_many", specs=1, shards=0),
    _record("shards.retried", task=0, shards=3),
    _record("shards.resumed", key="k", shards=2),
    _record("shards.failed", task=1, shards=1),
    _record("shard.retry", task=0, attempt=1),
    _record("shard.complete", task=1, ok=False, timeout=True),
    _record("shard.complete", task=1, ok=True),
    _record("pool.respawn", crashed=False, expired=1),
    _record("pool.degraded", reason="hung worker", remaining=1),
    _record("cache.get", hit=True),
    _record("cache.get", hit=False),
    _record("cache.put", bytes=100),
    _record("cache.put"),
    _record("cache.put_skipped"),
    _record("cache.evict", bytes=40),
    _record("cache.quarantine", bytes=7),
    _record("cache.quarantine"),
    _record("cache.degraded"),
    _record("cache.sum_adopted"),
    _record("cache.io_error"),
    _record("storage.os_error", component="cache", op="fsync"),
    _record("storage.os_error", component="fsck", op="digest"),
    _record("shard.run", task=0),
]

_record_lists = st.lists(st.sampled_from(_RECORDS), max_size=40)


def _added(*tables):
    """Row-wise sum of counter tables (zero rows kept, unlike Counter)."""
    total = {}
    for table in tables:
        for row, value in table.items():
            total[row] = total.get(row, 0) + value
    return total


@pytest.fixture
def result(two_miners):
    return simulate(MultiLotteryPoS(0.01), two_miners, 100, trials=20, seed=1)


KEY, OTHER = "a" * 64, "b" * 64


class TestCountingRecords:
    @settings(max_examples=50, deadline=None)
    @given(_record_lists, _record_lists)
    def test_counts_add_over_split_records(self, head, tail):
        # Worker buffers, per-dispatch drains and trace files all split
        # one run's records: the table of the whole is the sum of parts.
        assert metric_counters(head + tail) == _added(
            metric_counters(head), metric_counters(tail)
        )

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(_RECORDS))
    def test_counts_ignore_record_order(self, records):
        # Workers' records arrive in completion order, not plan order.
        assert metric_counters(records) == metric_counters(_RECORDS)

    def test_a_trace_file_counts_what_the_run_recorded(
        self, tmp_path, two_miners
    ):
        spec = SimulationSpec(
            ProofOfWork(0.01), two_miners, trials=40, horizon=50, seed=7
        )
        runner = ParallelRunner(workers=1, cache=tmp_path / "cache")
        tracer = Tracer()
        with using_tracer(tracer):
            runner.run(spec, shards=2)
            runner.run(spec, shards=2)
        counters = metric_counters(tracer.spans)
        assert all(type(value) is int for value in counters.values())
        _, spans = read_trace(write_trace(tmp_path / "t.jsonl", tracer.spans))
        assert metric_counters(spans) == counters
        assert counters["cache.misses"] == counters["cache.hits"] == 1

    def test_worker_records_count_once_after_the_envelope(
        self, tmp_path, result
    ):
        cache = ResultCache(tmp_path / "cache")
        cache.put(KEY, result)
        worker = Tracer()
        with using_worker_tracer(worker):
            cache.get(KEY)
            cache.get(OTHER)
        envelope = pickle.loads(
            pickle.dumps(ShardEnvelope("payload", worker.drain()))
        )
        run = Tracer()
        with using_tracer(run):
            assert ingest_envelope(envelope) == "payload"
        assert metric_counters(run.spans) == {
            "cache.hits": 1, "cache.misses": 1,
        }

    def test_threads_sharing_one_cache_lose_no_counts(self, tmp_path, result):
        cache = ResultCache(tmp_path / "cache")
        cache.put(KEY, result)

        def read(n):
            cache.get(KEY if n % 2 else OTHER)

        def action():
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(read, range(80)))

        counters = recorded_counters(action)
        assert counters == {"cache.hits": 40, "cache.misses": 40}
        assert (cache.hits, cache.misses) == (40, 40)


class TestCacheRows:
    """Each cache row equals the count the cache keeps itself."""

    def test_miss_store_and_hit(self, tmp_path, result):
        cache = ResultCache(tmp_path / "cache")

        def action():
            cache.get(KEY)
            cache.put(KEY, result)
            cache.get(KEY)

        counters = recorded_counters(action)
        assert counters == {
            "cache.misses": 1,
            "cache.puts": 1,
            "cache.put_bytes": cache.path_for(KEY).stat().st_size,
            "cache.hits": 1,
        }
        assert (cache.misses, cache.hits) == (1, 1)

    def test_unreadable_artifact_is_a_miss(self, tmp_path, result):
        cache = ResultCache(tmp_path / "cache", verify=False)
        cache.put(KEY, result).write_bytes(b"not an npz archive")
        counters = recorded_counters(lambda: cache.get(KEY))
        assert counters == {"cache.misses": 1}
        assert cache.misses == 1

    @pytest.mark.parametrize("budgeted", [False, True])
    def test_quarantine_measures_bytes_only_under_a_budget(
        self, tmp_path, result, budgeted
    ):
        cache = ResultCache(
            tmp_path / "cache", max_bytes=10**9 if budgeted else None
        )
        path = cache.put(KEY, result)
        flipped = bytearray(path.read_bytes())
        flipped[-1] ^= 0xFF
        path.write_bytes(bytes(flipped))
        counters = recorded_counters(lambda: cache.get(KEY))
        expected = {"cache.misses": 1, "cache.quarantined": 1}
        if budgeted:
            expected["cache.quarantined_bytes"] = len(flipped)
        assert counters == expected
        assert (cache.misses, cache.quarantined) == (1, 1)

    def test_a_missing_checksum_is_adopted_once(self, tmp_path, result):
        cache = ResultCache(tmp_path / "cache")
        cache.put(KEY, result)
        clear_digest(cache.directory, KEY)

        def action():
            cache.get(KEY)
            cache.get(KEY)

        assert recorded_counters(action) == {
            "cache.sums_adopted": 1, "cache.hits": 2,
        }

    def test_evictions_count_entries_and_their_bytes(self, tmp_path, result):
        probe = ResultCache(tmp_path / "probe")
        size = probe.put(KEY, result).stat().st_size
        # Room for one artifact, not two.
        cache = ResultCache(tmp_path / "cache", max_bytes=size + size // 2)

        def action():
            cache.put(KEY, result)
            cache.put(OTHER, result)

        counters = recorded_counters(action)
        assert counters == {
            "cache.puts": 2,
            "cache.put_bytes": 2 * size,
            "cache.evictions": 1,
            "cache.evicted_bytes": size,
        }
        assert cache.evictions == 1
        assert not cache.path_for(KEY).exists()

    def test_full_disk_degrades_once_and_skips_later_puts(
        self, tmp_path, result
    ):
        cache = ResultCache(tmp_path / "cache")
        full = DiskChaos(schedule=DiskFaultSchedule(seed=3, enospc_rate=1.0))

        def action():
            with using_disk_chaos(full), pytest.warns(CacheDegradedWarning):
                for key in (KEY, OTHER, "c" * 64):
                    cache.put(key, result)

        # The first put hit the full disk and stored nothing; the two
        # after it found the cache already degraded.
        assert recorded_counters(action) == {
            "cache.degraded": 1, "cache.puts_skipped_degraded": 2,
        }
        assert cache.degraded

    def test_a_failed_write_counts_an_io_error(self, tmp_path, result):
        cache = ResultCache(tmp_path / "cache")
        cache.directory.mkdir()
        # The staging directory's name is taken by a file.
        (cache.directory / ".tmp").write_text("in the way")

        def action():
            with pytest.raises(OSError):
                cache.put(KEY, result)

        assert recorded_counters(action) == {"cache.io_errors": 1}
        assert cache.io_errors == 1

    def test_failed_fsyncs_are_counted_per_component_and_op(
        self, tmp_path, result
    ):
        cache = ResultCache(tmp_path / "cache")
        no_fsync = DiskChaos(
            schedule=DiskFaultSchedule(seed=6, fsync_error_rate=1.0)
        )

        def action():
            with using_disk_chaos(no_fsync):
                cache.put(KEY, result)

        counters = recorded_counters(action)
        # A put fsyncs its staged artifact and then the directory.  Each
        # refused fsync is absorbed.
        assert counters["cache.os_errors.fsync"] == 2
        assert counters["cache.puts"] == 1


def _claim_attempt(root, task):
    """The n-th call for ``task`` returns n, across worker processes."""
    root = pathlib.Path(root)
    root.mkdir(parents=True, exist_ok=True)
    attempt = 1
    while True:
        marker = root / f"{task}.{attempt}"
        try:
            os.close(os.open(str(marker), os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            attempt += 1
            continue
        return attempt


class _FailsOnce:
    """Every task's first attempt raises a retryable error."""

    def __init__(self, root):
        self.root = str(root)

    def __call__(self, x):
        if _claim_attempt(self.root, x) == 1:
            raise TransientShardError(f"task {x} fails once")
        return x * x


class _HangsOnce:
    """Task 0's first attempt stalls far past the deadline."""

    def __init__(self, root):
        self.root = str(root)

    def __call__(self, x):
        if x == 0 and _claim_attempt(self.root, x) == 1:
            time.sleep(20.0)
        return x * x


_FAST = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.01)


class TestExecutorRows:
    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "processes"])
    def test_retries_count_every_retried_attempt(self, tmp_path, workers):
        executor = make_executor(workers, retry=_FAST)

        def action():
            assert executor.map(_FailsOnce(tmp_path), [0, 1, 2]) == [0, 1, 4]

        assert recorded_counters(action) == {"executor.retries": 3}

    def test_a_timed_out_task_counts_its_timeout_and_the_respawn(
        self, tmp_path
    ):
        executor = make_executor(3, retry=_FAST, timeout=1.0)

        def action():
            assert executor.map(_HangsOnce(tmp_path), [0, 1, 2, 3]) == [
                0, 1, 4, 9,
            ]

        assert recorded_counters(action) == {
            "executor.timeouts": 1,
            "executor.respawns": 1,
            "executor.retries": 1,
        }

    def test_a_pool_past_its_respawns_counts_its_degrade(self, tmp_path):
        executor = make_executor(3, retry=_FAST, timeout=1.0)
        executor.max_respawns = 0

        def action():
            with pytest.warns(PoolDegradedWarning):
                assert executor.map(_HangsOnce(tmp_path), [0, 1, 2, 3]) == [
                    0, 1, 4, 9,
                ]

        assert recorded_counters(action) == {
            "executor.timeouts": 1,
            "executor.degraded": 1,
            "executor.retries": 1,
        }


def _grid(allocation):
    return [
        SimulationSpec(ProofOfWork(0.01), allocation, trials=40, horizon=50,
                       seed=seed)
        for seed in (1, 2, 3)
    ]


class _PayloadExecutor(SerialExecutor):
    """Reports every task as run, with ``payload`` as its result."""

    workers = 4  # one shard per task

    def __init__(self, payload):
        self.payload = payload

    def stream(self, fn, tasks, *, window=None):
        for index in range(len(tasks)):
            yield index, True, self.payload


class TestRunnerRows:
    @pytest.mark.parametrize(
        "payload, failed",
        [
            # Each task's result is not a list of its parts: both fail.
            ("not a list of parts", 2),
            # The fold rejects the first part; the spec has then failed,
            # so the second part is never folded.
            (["not a part"], 1),
        ],
        ids=["not-a-list", "rejected-part"],
    )
    def test_shards_failed_after_their_task_ran_are_counted(
        self, two_miners, payload, failed
    ):
        (spec,) = _grid(two_miners)[:1]
        runner = ParallelRunner(executor=_PayloadExecutor(payload))
        raised = []

        def run():
            with pytest.raises(ShardExecutionError) as error:
                runner.run(spec, shards=2)
            raised.extend(error.value.failures)

        counters = recorded_counters(run)
        assert len(raised) == failed
        assert counters == {
            "runner.specs": 1,
            "runner.shards_dispatched": 2,
            "runner.shards_failed": failed,
        }

    def test_one_spec_counts_one_spec_and_its_shards(self, two_miners):
        (spec,) = _grid(two_miners)[:1]
        runner = ParallelRunner(workers=1)
        counters = recorded_counters(lambda: runner.run(spec, shards=4))
        assert counters == {"runner.specs": 1, "runner.shards_dispatched": 4}

    def test_a_duplicate_spec_loads_back_as_a_hit(self, tmp_path, two_miners):
        (spec,) = _grid(two_miners)[:1]
        runner = ParallelRunner(workers=1, cache=tmp_path / "cache")
        counters = recorded_counters(
            lambda: runner.run_many([spec, spec], shards=2)
        )
        (stored,) = (tmp_path / "cache").glob("*.npz")
        # The duplicate is computed once, then read back like a warm hit.
        assert counters == {
            "runner.specs": 2,
            "runner.shards_dispatched": 2,
            "cache.misses": 1,
            "cache.puts": 1,
            "cache.put_bytes": stored.stat().st_size,
            "cache.hits": 1,
        }
        assert (runner.cache.misses, runner.cache.hits) == (1, 1)

    def test_a_system_dispatch_counts_its_specs_and_shards(self, two_miners):
        specs = [
            SystemSpec(SystemExperiment("ml-pos", two_miners), 20, 4, seed=3),
            SystemSpec(SystemExperiment("ml-pos", two_miners), 20, 3, seed=4),
        ]
        runner = ParallelRunner(workers=1)
        counters = recorded_counters(
            lambda: runner.run_system_many(specs, shards=2)
        )
        assert counters == {"runner.specs": 2, "runner.shards_dispatched": 4}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_processes_count_what_serial_counts(
        self, tmp_path, workers
    ):
        # The runner and its cache record in the parent whichever
        # executor runs the shards, so a pool prints the serial table.
        specs = _grid(Allocation.two_miners(0.2))
        runner = ParallelRunner(workers=workers, cache=tmp_path / "cache")
        counters = recorded_counters(lambda: runner.run_many(specs, shards=2))
        stored = sorted((tmp_path / "cache").glob("*.npz"))
        assert len(stored) == 3
        assert counters == {
            "runner.specs": 3,
            "runner.shards_dispatched": 6,
            "cache.misses": 3,
            "cache.puts": 3,
            "cache.put_bytes": sum(path.stat().st_size for path in stored),
        }


class TestCLITables:
    def test_trace_and_metrics_print_what_the_trace_file_counts(
        self, tmp_path, capsys
    ):
        cache, trace = tmp_path / "cache", tmp_path / "t.jsonl"
        assert main([
            "fig2", "--preset", "ci", "--cache", str(cache),
            "--trace", str(trace), "--metrics",
        ]) == 0
        printed = printed_counters(capsys.readouterr().out)
        stored = sorted(cache.glob("*.npz"))
        _, spans = read_trace(trace)
        assert metric_counters(spans) == printed
        assert printed == {
            "cache.misses": 4,
            "cache.puts": 4,
            "cache.put_bytes": sum(path.stat().st_size for path in stored),
            "runner.shards_dispatched": 4,
            "runner.specs": 4,
        }

    def test_no_table_without_metrics(self, tmp_path, capsys):
        assert main([
            "fig2", "--preset", "ci", "--trace", str(tmp_path / "t.jsonl"),
        ]) == 0
        # Tracing alone records the same facts but prints no table.
        lines = capsys.readouterr().out.splitlines()
        assert "metrics" not in lines
        assert ["counter", "value"] not in [line.split() for line in lines]
