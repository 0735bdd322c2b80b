"""Tests for repro.runtime.journal — grid checkpoint/resume.

A killed grid run must resume recomputing *only* the shards that were
never journaled: journaled shard artifacts load from the cache (hits),
the rest dispatch, and the finished spec's merged artifact is stored
exactly as an uninterrupted run would have stored it — same key, same
bytes.  The journal itself is advisory: torn trailing lines and evicted
artifacts degrade to recomputation, never to wrong results.
"""

import json
import os

import pytest

from repro.core.miners import Allocation
from repro.protocols import MultiLotteryPoS, ProofOfWork
from repro.runtime import (
    ParallelRunner,
    ResultCache,
    RunJournal,
    ShardExecutionError,
    SimulationSpec,
    shard_fingerprint,
    spec_fingerprint,
)
from repro.runtime.executor import SerialExecutor


def make_spec(trials=40, horizon=50, seed=7, protocol=None):
    return SimulationSpec(
        protocol=protocol or ProofOfWork(0.01),
        allocation=Allocation.two_miners(0.2),
        trials=trials,
        horizon=horizon,
        seed=seed,
    )


class BombExecutor(SerialExecutor):
    """Serial executor that permanently fails the given task indices.

    It reports ``workers`` slots, so the runner strides each spec's
    shards over that many tasks: a 4-shard spec is four one-shard
    tasks, and task ``i`` of it is shard ``i``.
    """

    def __init__(self, fail_indices, workers=4):
        self.fail_indices = set(fail_indices)
        self.workers = workers

    def stream(self, fn, tasks, *, window=None):
        for index, task in enumerate(list(tasks)):
            if index in self.fail_indices:
                yield index, False, ("RuntimeError('bomb')", "boom traceback")
            else:
                yield index, True, fn(task)


def assert_byte_equal(left, right):
    assert left.reward_fractions.tobytes() == right.reward_fractions.tobytes()
    assert left.checkpoints.tobytes() == right.checkpoints.tobytes()


class TestRunJournal:
    def test_records_survive_reload(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        journal.record_shard("spec-a", 0, "key-0")
        journal.record_shard("spec-a", 2, "key-2")
        journal.record_spec("spec-b")
        journal.close()
        reloaded = RunJournal(path)
        assert reloaded.completed_shards("spec-a") == {0: "key-0", 2: "key-2"}
        assert reloaded.is_complete("spec-b")
        assert not reloaded.is_complete("spec-a")
        assert reloaded.recovered_records == 3

    def test_header_line_is_written_once(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        journal.record_shard("s", 0, "k")
        journal.close()
        journal = RunJournal(path)
        journal.record_shard("s", 1, "k1")
        journal.close()
        lines = path.read_text().splitlines()
        headers = [l for l in lines if json.loads(l).get("e") == "header"]
        assert len(headers) == 1
        assert json.loads(headers[0])["schema"] == "repro-journal/v1"

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        journal.record_shard("spec-a", 0, "key-0")
        journal.close()
        with open(path, "a") as handle:
            handle.write('{"e": "shard", "spec": "spec-a", "sha')  # torn
        reloaded = RunJournal(path)
        assert reloaded.completed_shards("spec-a") == {0: "key-0"}
        assert reloaded.skipped_lines == 1

    def test_malformed_records_are_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            '{"e": "shard", "spec": 7, "shard": 0, "key": "k"}\n'
            '{"e": "shard", "spec": "s", "shard": -1, "key": "k"}\n'
            '{"e": "unknown"}\n'
            '[1, 2, 3]\n'
            '{"e": "shard", "spec": "s", "shard": 1, "key": "good"}\n'
        )
        journal = RunJournal(path)
        assert journal.completed_shards("s") == {1: "good"}
        assert journal.skipped_lines == 4

    def test_record_spec_drops_shard_records(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.record_shard("s", 0, "k")
        journal.record_spec("s")
        assert journal.completed_shards("s") == {}
        assert journal.is_complete("s")

    def test_shard_fingerprint_is_distinct_per_ordinal_and_spec(self):
        keys = {
            shard_fingerprint(spec, ordinal)
            for spec in ("a", "b")
            for ordinal in range(3)
        }
        assert len(keys) == 6
        with pytest.raises(ValueError):
            shard_fingerprint("a", -1)

    def test_journal_requires_a_cache(self, tmp_path):
        with pytest.raises(ValueError, match="journal requires a cache"):
            ParallelRunner(journal=tmp_path / "journal.jsonl")


class TestResume:
    def test_resume_recomputes_only_unjournaled_shards(self, tmp_path):
        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"
        journal_path = cache_dir / "journal.jsonl"

        interrupted = ParallelRunner(
            executor=BombExecutor({2}), cache=cache_dir, journal=journal_path
        )
        with pytest.raises(ShardExecutionError):
            interrupted.run(spec, shards=4)
        interrupted.journal.close()

        resumed = ParallelRunner(
            workers=1, cache=cache_dir, journal=journal_path
        )
        hits, misses = resumed.cache.hits, resumed.cache.misses
        result = resumed.run(spec, shards=4)
        assert_byte_equal(result, reference)
        # Spec miss + 3 journaled shard hits; only shard 2 recomputed.
        assert resumed.cache.hits - hits == 3
        assert resumed.shards_resumed == 3

    def test_finalized_spec_discards_shard_checkpoints(self, tmp_path):
        spec = make_spec()
        cache_dir = tmp_path / "cache"
        journal_path = cache_dir / "journal.jsonl"
        interrupted = ParallelRunner(
            executor=BombExecutor({2}), cache=cache_dir, journal=journal_path
        )
        with pytest.raises(ShardExecutionError):
            interrupted.run(spec, shards=4)
        interrupted.journal.close()
        assert len(list(cache_dir.glob("*.npz"))) == 3  # shard checkpoints

        resumed = ParallelRunner(
            workers=1, cache=cache_dir, journal=journal_path
        )
        resumed.run(spec, shards=4)
        # Only the merged spec artifact remains.
        key = spec_fingerprint(spec, shards=4)
        remaining = [p.stem for p in cache_dir.glob("*.npz")]
        assert remaining == [key]

    def test_resumed_artifact_matches_uninterrupted_run(self, tmp_path):
        spec = make_spec()
        clean_dir = tmp_path / "clean"
        ParallelRunner(workers=1, cache=clean_dir).run(spec, shards=4)

        cache_dir = tmp_path / "resumed"
        journal_path = cache_dir / "journal.jsonl"
        interrupted = ParallelRunner(
            executor=BombExecutor({1, 3}), cache=cache_dir,
            journal=journal_path,
        )
        with pytest.raises(ShardExecutionError):
            interrupted.run(spec, shards=4)
        interrupted.journal.close()
        resumed = ParallelRunner(
            workers=1, cache=cache_dir, journal=journal_path
        )
        resumed.run(spec, shards=4)
        clean = sorted(p.name for p in clean_dir.glob("*.npz"))
        after = sorted(p.name for p in cache_dir.glob("*.npz"))
        assert clean == after

    def test_journaled_shard_with_evicted_artifact_recomputes(self, tmp_path):
        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"
        journal_path = cache_dir / "journal.jsonl"
        interrupted = ParallelRunner(
            executor=BombExecutor({2}), cache=cache_dir, journal=journal_path
        )
        with pytest.raises(ShardExecutionError):
            interrupted.run(spec, shards=4)
        interrupted.journal.close()
        # Evict one journaled shard artifact behind the journal's back.
        key = spec_fingerprint(spec, shards=4)
        victim = cache_dir / f"{shard_fingerprint(key, 0)}.npz"
        os.unlink(victim)

        resumed = ParallelRunner(
            workers=1, cache=cache_dir, journal=journal_path
        )
        result = resumed.run(spec, shards=4)
        assert_byte_equal(result, reference)
        assert resumed.shards_resumed == 2  # ordinals 1, 3 only

    def test_fully_journaled_spec_merges_without_dispatch(self, tmp_path):
        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"
        journal_path = cache_dir / "journal.jsonl"
        # Journal every shard but crash before the spec finalizes: the
        # merged artifact was never stored.
        first = ParallelRunner(
            workers=1, cache=ResultCache(cache_dir), journal=journal_path
        )
        key = spec_fingerprint(spec, shards=4)
        from repro.runtime.runner import _simulation_shard_body
        from repro.runtime.sharding import plan_shards

        plan = plan_shards(spec.trials, spec.seed_sequence, 4)
        for ordinal, shard in enumerate(plan):
            part = _simulation_shard_body(spec, shard)
            first.cache.put(shard_fingerprint(key, ordinal), part)
            first.journal.record_shard(
                key, ordinal, shard_fingerprint(key, ordinal)
            )
        first.journal.close()

        resumed = ParallelRunner(
            executor=BombExecutor(range(99)),  # any dispatch would fail
            cache=cache_dir,
            journal=journal_path,
        )
        result = resumed.run(spec, shards=4)
        assert_byte_equal(result, reference)
        assert resumed.shards_resumed == 4

    def test_shards_are_journaled_on_arrival(self, tmp_path):
        # A pool finishes tasks 3, 2 and 1 while task 0 is still running,
        # then the run is killed.  Every finished shard must already be
        # journaled — none may wait, unjournaled, behind task 0.
        class KilledAfterLateShards(SerialExecutor):
            workers = 4  # one shard per task

            def stream(self, fn, tasks, *, window=None):
                for index in (3, 2, 1):
                    yield index, True, fn(tasks[index])
                raise KeyboardInterrupt

        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"
        journal_path = cache_dir / "journal.jsonl"
        killed = ParallelRunner(
            executor=KilledAfterLateShards(), cache=cache_dir,
            journal=journal_path,
        )
        with pytest.raises(KeyboardInterrupt):
            killed.run(spec, shards=4)
        killed.journal.close()
        key = spec_fingerprint(spec, shards=4)
        assert set(RunJournal(journal_path).completed_shards(key)) == {1, 2, 3}

        resumed = ParallelRunner(
            workers=1, cache=cache_dir, journal=journal_path
        )
        result = resumed.run(spec, shards=4)
        assert resumed.shards_resumed == 3
        assert_byte_equal(result, reference)
        assert result.terminal_stakes.tobytes() == (
            reference.terminal_stakes.tobytes()
        )

    def test_multi_spec_grid_resumes_each_spec_independently(self, tmp_path):
        specs = [
            make_spec(seed=7),
            make_spec(seed=8, protocol=MultiLotteryPoS(0.01)),
        ]
        reference = [
            ParallelRunner(workers=1).run(s, shards=4) for s in specs
        ]
        cache_dir = tmp_path / "cache"
        journal_path = cache_dir / "journal.jsonl"
        interrupted = ParallelRunner(
            executor=BombExecutor({1, 6}),  # one shard of each spec
            cache=cache_dir,
            journal=journal_path,
        )
        with pytest.raises(ShardExecutionError):
            interrupted.run_many(specs, shards=4)
        interrupted.journal.close()

        resumed = ParallelRunner(
            workers=1, cache=cache_dir, journal=journal_path
        )
        results = resumed.run_many(specs, shards=4)
        for result, expected in zip(results, reference):
            assert_byte_equal(result, expected)
        assert resumed.shards_resumed == 6

    def test_journal_path_coercion_from_string(self, tmp_path):
        cache_dir = tmp_path / "cache"
        runner = ParallelRunner(
            workers=1, cache=cache_dir,
            journal=str(cache_dir / "journal.jsonl"),
        )
        assert isinstance(runner.journal, RunJournal)
        spec = make_spec()
        runner.run(spec, shards=4)
        assert runner.journal.is_complete(spec_fingerprint(spec, shards=4))


class TestLoadEdgeCases:
    def test_duplicate_shard_records_last_wins(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        journal.record_shard("s", 0, "first-key")
        journal.record_shard("s", 0, "second-key")
        journal.close()
        reloaded = RunJournal(path)
        assert reloaded.completed_shards("s") == {0: "second-key"}

    def test_interleaved_specs_replay_independently(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        journal.record_shard("s-a", 0, "a0")
        journal.record_shard("s-b", 0, "b0")
        journal.record_shard("s-a", 1, "a1")
        journal.record_spec("s-b")
        journal.record_shard("s-a", 2, "a2")
        journal.close()
        reloaded = RunJournal(path)
        assert reloaded.completed_shards("s-a") == {
            0: "a0", 1: "a1", 2: "a2",
        }
        assert reloaded.is_complete("s-b")
        # s-b finished: its shard records are dead weight, dropped.
        assert reloaded.completed_shards("s-b") == {}

    def test_torn_midfile_line_followed_by_valid_records(self, tmp_path):
        """A tear that cuts a *middle* line (a compaction temp torn and
        appended to, or filesystem damage) must not take down the valid
        records after it."""
        path = tmp_path / "journal.jsonl"
        path.write_text(
            '{"e": "header", "schema": "repro-journal/v1"}\n'
            '{"e": "shard", "spec": "s", "sha\n'
            '{"e": "shard", "spec": "s", "shard": 1, "key": "k1"}\n'
            '{"e": "spec", "spec": "t"}\n'
        )
        journal = RunJournal(path)
        assert journal.completed_shards("s") == {1: "k1"}
        assert journal.is_complete("t")
        assert journal.skipped_lines == 1

    def test_zero_byte_journal_loads_and_appends_header(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.touch()
        journal = RunJournal(path)
        assert journal.recovered_records == 0
        assert journal.skipped_lines == 0
        journal.record_shard("s", 0, "k")
        journal.close()
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["e"] == "header"
        assert len(lines) == 2


class TestCompaction:
    def test_compact_reclaims_bytes_and_replays_identically(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path, compact_bytes=None)
        for ordinal in range(8):
            journal.record_shard("s-done", ordinal, f"k{ordinal}")
        journal.record_spec("s-done")
        journal.record_shard("s-live", 0, "live-key")
        before = path.stat().st_size
        reclaimed = journal.compact()
        assert reclaimed > 0
        assert path.stat().st_size == before - reclaimed
        assert journal.compactions == 1
        journal.close()
        reloaded = RunJournal(path)
        assert reloaded.is_complete("s-done")
        assert reloaded.completed_shards("s-live") == {0: "live-key"}
        assert reloaded.skipped_lines == 0

    def test_compact_missing_file_is_zero(self, tmp_path):
        journal = RunJournal(tmp_path / "never-written.jsonl")
        assert journal.compact() == 0
        assert journal.compactions == 0

    def test_compact_is_idempotent(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path, compact_bytes=None)
        journal.record_shard("s", 0, "k")
        journal.record_spec("s")
        journal.compact()
        first = path.read_bytes()
        assert journal.compact() == 0
        assert path.read_bytes() == first

    def test_auto_compaction_triggers_on_size_and_dead_ratio(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path, compact_bytes=1)
        journal.record_shard("s", 0, "k0")
        journal.record_shard("s", 1, "k1")
        # All records live: over the size threshold but nothing to
        # reclaim, so no compaction yet.
        assert journal.compactions == 0
        journal.record_spec("s")
        # Now two of three records are dead -> auto-compacted.
        assert journal.compactions == 1
        journal.close()
        reloaded = RunJournal(path)
        assert reloaded.is_complete("s")
        assert reloaded.recovered_records == 1

    def test_auto_compaction_disabled_below_threshold(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path, compact_bytes=1 << 20)
        journal.record_shard("s", 0, "k0")
        journal.record_spec("s")
        assert journal.compactions == 0

    def test_auto_compaction_none_disables(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl", compact_bytes=None)
        journal.record_shard("s", 0, "k0")
        journal.record_spec("s")
        assert journal.compactions == 0
        assert journal.compact() > 0  # manual compaction still works

    def test_compact_bytes_is_validated(self, tmp_path):
        with pytest.raises(ValueError):
            RunJournal(tmp_path / "journal.jsonl", compact_bytes=0)

    def test_stale_compaction_temp_is_swept_on_open(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        journal.record_shard("s", 0, "k")
        journal.close()
        stale = tmp_path / "journal.jsonl.compact-1234-5678"
        stale.write_text("torn compaction temp")
        reloaded = RunJournal(path)
        assert not stale.exists()
        assert reloaded.completed_shards("s") == {0: "k"}

    def test_writes_after_compaction_append_to_the_new_file(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path, compact_bytes=None)
        journal.record_shard("s", 0, "k0")
        journal.record_spec("s")
        journal.compact()
        journal.record_shard("t", 0, "t0")
        journal.close()
        reloaded = RunJournal(path)
        assert reloaded.is_complete("s")
        assert reloaded.completed_shards("t") == {0: "t0"}
        lines = path.read_text().splitlines()
        headers = [l for l in lines if json.loads(l).get("e") == "header"]
        assert len(headers) == 1
