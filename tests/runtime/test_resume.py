"""Tests for ``ParallelRunner(resume=True)`` — grid checkpoint/resume.

A killed grid run must resume recomputing *only* the shards it left no
checkpoint for: checkpointed shards load from the cache (hits), the
rest dispatch, and the finished spec's merged artifact is stored
exactly as an uninterrupted run would have stored it — same key, same
bytes.  Checkpoints are found by their cache keys alone; an evicted
one degrades to recomputation, never to wrong results.
"""

import os

import pytest

from repro.core.miners import Allocation
from repro.obs import Tracer, metric_counters, using_tracer
from repro.protocols import MultiLotteryPoS, ProofOfWork
from repro.runtime import (
    ParallelRunner,
    ResultCache,
    ShardExecutionError,
    SimulationSpec,
    checkpoint_key,
    spec_fingerprint,
)
from repro.runtime.executor import SerialExecutor
from repro.runtime.integrity import QUARANTINE_DIR, digest_path, fsck


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


def interrupt(cache_dir, spec, failing, shards=4):
    """A resumable run of ``spec`` whose tasks ``failing`` fail for good,
    leaving a checkpoint for every other shard."""
    runner = ParallelRunner(
        executor=BombExecutor(failing), cache=cache_dir, resume=True
    )
    with pytest.raises(ShardExecutionError):
        runner.run(spec, shards=shards)


def flip_byte(path):
    """Corrupt one byte mid-file without changing its length."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def checkpointed(cache_dir, key):
    """Ordinals of ``key`` that hold a checkpoint in ``cache_dir``."""
    return {
        int(path.name[len(key) + 1:-len(".npz")])
        for path in cache_dir.glob(f"{key}.*.npz")
    }


class TestCheckpointKey:
    def test_distinct_per_ordinal_and_spec(self):
        keys = {
            checkpoint_key(spec, ordinal)
            for spec in ("a", "b")
            for ordinal in range(3)
        }
        assert len(keys) == 6
        assert checkpoint_key("a" * 64, 3) == "a" * 64 + ".3"
        with pytest.raises(ValueError):
            checkpoint_key("a", -1)

    def test_resume_requires_a_cache(self):
        with pytest.raises(ValueError, match="resume requires a cache"):
            ParallelRunner(resume=True)


class TestResume:
    def test_resume_recomputes_only_uncheckpointed_shards(self, tmp_path):
        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"

        interrupted = ParallelRunner(
            executor=BombExecutor({2}), cache=cache_dir, resume=True
        )
        with pytest.raises(ShardExecutionError):
            interrupted.run(spec, shards=4)

        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        hits, misses = resumed.cache.hits, resumed.cache.misses
        result = resumed.run(spec, shards=4)
        assert_byte_equal(result, reference)
        # Spec miss + 3 checkpoint hits; only shard 2 recomputed, and
        # its absent checkpoint counts no miss.
        assert resumed.cache.hits - hits == 3
        assert resumed.cache.misses - misses == 1
        assert resumed.shards_resumed == 3

    def test_finalized_spec_discards_shard_checkpoints(self, tmp_path):
        spec = make_spec()
        cache_dir = tmp_path / "cache"
        interrupted = ParallelRunner(
            executor=BombExecutor({2}), cache=cache_dir, resume=True
        )
        with pytest.raises(ShardExecutionError):
            interrupted.run(spec, shards=4)
        assert len(list(cache_dir.glob("*.npz"))) == 3  # shard checkpoints

        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
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
        interrupted = ParallelRunner(
            executor=BombExecutor({1, 3}), cache=cache_dir, resume=True
        )
        with pytest.raises(ShardExecutionError):
            interrupted.run(spec, shards=4)
        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        resumed.run(spec, shards=4)
        clean = sorted(p.name for p in clean_dir.glob("*.npz"))
        after = sorted(p.name for p in cache_dir.glob("*.npz"))
        assert clean == after

    def test_evicted_checkpoint_recomputes(self, tmp_path):
        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"
        interrupted = ParallelRunner(
            executor=BombExecutor({2}), cache=cache_dir, resume=True
        )
        with pytest.raises(ShardExecutionError):
            interrupted.run(spec, shards=4)
        # Evict one checkpoint behind the runner's back.
        key = spec_fingerprint(spec, shards=4)
        victim = cache_dir / f"{checkpoint_key(key, 0)}.npz"
        os.unlink(victim)

        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        result = resumed.run(spec, shards=4)
        assert_byte_equal(result, reference)
        assert resumed.shards_resumed == 2  # ordinals 1, 3 only

    def test_fully_checkpointed_spec_merges_without_dispatch(self, tmp_path):
        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"
        # Checkpoint every shard but crash before the spec finalizes:
        # the merged artifact was never stored.
        cache = ResultCache(cache_dir)
        key = spec_fingerprint(spec, shards=4)
        from repro.runtime.runner import _simulation_shard_body
        from repro.runtime.sharding import plan_shards

        plan = plan_shards(spec.trials, spec.seed_sequence, 4)
        for ordinal, shard in enumerate(plan):
            part = _simulation_shard_body(spec, shard)
            cache.put(checkpoint_key(key, ordinal), part)

        resumed = ParallelRunner(
            executor=BombExecutor(range(99)),  # any dispatch would fail
            cache=cache_dir,
            resume=True,
        )
        result = resumed.run(spec, shards=4)
        assert_byte_equal(result, reference)
        assert resumed.shards_resumed == 4

    def test_shards_are_checkpointed_on_arrival(self, tmp_path):
        # A pool finishes tasks 3, 2 and 1 while task 0 is still running,
        # then the run is killed.  Every finished shard must already be
        # checkpointed — none may wait, unstored, behind task 0.
        class KilledAfterLateShards(SerialExecutor):
            workers = 4  # one shard per task

            def stream(self, fn, tasks, *, window=None):
                for index in (3, 2, 1):
                    yield index, True, fn(tasks[index])
                raise KeyboardInterrupt

        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"
        killed = ParallelRunner(
            executor=KilledAfterLateShards(), cache=cache_dir, resume=True
        )
        with pytest.raises(KeyboardInterrupt):
            killed.run(spec, shards=4)
        key = spec_fingerprint(spec, shards=4)
        assert checkpointed(cache_dir, key) == {1, 2, 3}

        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
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
        interrupted = ParallelRunner(
            executor=BombExecutor({1, 6}),  # one shard of each spec
            cache=cache_dir,
            resume=True,
        )
        with pytest.raises(ShardExecutionError):
            interrupted.run_many(specs, shards=4)

        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        results = resumed.run_many(specs, shards=4)
        for result, expected in zip(results, reference):
            assert_byte_equal(result, expected)
        assert resumed.shards_resumed == 6

    def test_cached_spec_discards_leftover_checkpoints(self, tmp_path):
        # A run killed between storing a spec and discarding its
        # checkpoints leaves them behind; the resumed run, which serves
        # the spec from the cache, drops them.
        spec = make_spec()
        cache_dir = tmp_path / "cache"
        ParallelRunner(workers=1, cache=cache_dir).run(spec, shards=4)
        key = spec_fingerprint(spec, shards=4)
        cache = ResultCache(cache_dir)
        cache.put(checkpoint_key(key, 1), cache.get(key))
        assert checkpointed(cache_dir, key) == {1}

        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        resumed.run(spec, shards=4)
        assert resumed.cache.hits == 1
        assert checkpointed(cache_dir, key) == set()

    def test_duplicate_specs_resume_once(self, tmp_path):
        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"
        interrupt(cache_dir, spec, {2})

        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        results = resumed.run_many([spec, spec], shards=4)
        for result in results:
            assert_byte_equal(result, reference)
        assert resumed.shards_resumed == 3

    def test_a_failure_keeps_the_specs_that_finished(self, tmp_path):
        specs = [
            make_spec(seed=7),
            make_spec(seed=8, protocol=MultiLotteryPoS(0.01)),
        ]
        reference = [
            ParallelRunner(workers=1).run(s, shards=4) for s in specs
        ]
        cache_dir = tmp_path / "cache"
        interrupted = ParallelRunner(
            executor=BombExecutor({5}),  # shard 1 of the second spec
            cache=cache_dir,
            resume=True,
        )
        with pytest.raises(ShardExecutionError):
            interrupted.run_many(specs, shards=4)
        finished, failed = (spec_fingerprint(s, shards=4) for s in specs)
        # The first spec finalized before the failure: stored, and its
        # checkpoints discarded.  The second keeps its three.
        assert (cache_dir / f"{finished}.npz").exists()
        assert checkpointed(cache_dir, finished) == set()
        assert checkpointed(cache_dir, failed) == {0, 2, 3}

        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        results = resumed.run_many(specs, shards=4)
        for result, expected in zip(results, reference):
            assert_byte_equal(result, expected)
        assert resumed.cache.hits == 4  # the first spec + 3 checkpoints
        assert resumed.shards_resumed == 3

    def test_checkpoints_of_another_shard_plan_are_not_folded(self, tmp_path):
        # The spec key covers the shard count, so a 2-shard rerun of a
        # spec interrupted under a 4-shard plan starts from scratch.
        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=2)
        cache_dir = tmp_path / "cache"
        interrupt(cache_dir, spec, {2})

        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        result = resumed.run(spec, shards=2)
        assert_byte_equal(result, reference)
        assert resumed.shards_resumed == 0
        # They still belong to the 4-shard spec, whose resume folds them.
        four = spec_fingerprint(spec, shards=4)
        assert checkpointed(cache_dir, four) == {0, 1, 3}

    def test_corrupt_checkpoint_is_quarantined_and_recomputed(self, tmp_path):
        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"
        interrupt(cache_dir, spec, {2})
        key = spec_fingerprint(spec, shards=4)
        victim = checkpoint_key(key, 0)
        flip_byte(cache_dir / f"{victim}.npz")

        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        result = resumed.run(spec, shards=4)
        assert_byte_equal(result, reference)
        assert resumed.shards_resumed == 2  # ordinals 1, 3 only
        # Spec miss + the corrupt checkpoint's miss; ordinal 2 had none.
        assert resumed.cache.misses == 2
        assert (cache_dir / QUARANTINE_DIR / f"{victim}.npz").exists()
        assert checkpointed(cache_dir, key) == set()

    def test_checkpoint_without_its_digest_is_adopted(self, tmp_path):
        # A lost sidecar costs re-adoption from content, not the shard.
        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"
        interrupt(cache_dir, spec, {2})
        key = spec_fingerprint(spec, shards=4)
        os.unlink(digest_path(cache_dir, checkpoint_key(key, 1)))

        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        result = resumed.run(spec, shards=4)
        assert_byte_equal(result, reference)
        assert resumed.shards_resumed == 3

    def test_resume_over_a_worker_pool(self, tmp_path):
        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"
        interrupt(cache_dir, spec, {1, 2})

        resumed = ParallelRunner(workers=2, cache=cache_dir, resume=True)
        result = resumed.run(spec, shards=4)
        assert_byte_equal(result, reference)
        assert resumed.shards_resumed == 2
        key = spec_fingerprint(spec, shards=4)
        assert checkpointed(cache_dir, key) == set()

    def test_resumable_run_stores_what_a_plain_run_stores(self, tmp_path):
        # Resume is an execution flag: an uninterrupted resumable run
        # leaves the cache byte-for-byte as a plain run does.
        spec = make_spec()

        def contents(root):
            return sorted(
                (path.relative_to(root).as_posix(), path.read_bytes())
                for path in root.rglob("*")
                if path.is_file()
            )

        plain_dir = tmp_path / "plain"
        ParallelRunner(workers=1, cache=plain_dir).run(spec, shards=4)
        resumable_dir = tmp_path / "resumable"
        ParallelRunner(workers=1, cache=resumable_dir, resume=True).run(
            spec, shards=4
        )
        assert contents(resumable_dir) == contents(plain_dir)
        key = spec_fingerprint(spec, shards=4)
        assert [path.stem for path in plain_dir.glob("*.npz")] == [key]

    def test_resumed_shards_are_traced(self, tmp_path):
        spec = make_spec()
        cache_dir = tmp_path / "cache"
        interrupt(cache_dir, spec, {2})
        key = spec_fingerprint(spec, shards=4)

        tracer = Tracer()
        with using_tracer(tracer):
            ParallelRunner(workers=1, cache=cache_dir, resume=True).run(
                spec, shards=4
            )
            # Nothing left to resume: the spec is a hit, and a fresh
            # spec finds no checkpoint, so neither records an event.
            ParallelRunner(workers=1, cache=cache_dir, resume=True).run_many(
                [spec, make_spec(seed=9)], shards=4
            )
        events = [r for r in tracer.spans if r["name"] == "shards.resumed"]
        assert [event["attrs"] for event in events] == [
            {"key": key[:12], "shards": 3}
        ]
        assert metric_counters(tracer.spans)["runner.shards_resumed"] == 3

    def test_old_journal_file_is_left_alone(self, tmp_path):
        # Checkpoints are found by their keys; a journal an older
        # release left beside the cache is neither read nor removed.
        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"
        interrupt(cache_dir, spec, {2})
        journal = cache_dir / "journal.jsonl"
        stale = '{"e": "spec", "spec": "' + "0" * 64 + '"}\n{"e": "sh'
        journal.write_text(stale)

        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        result = resumed.run(spec, shards=4)
        assert_byte_equal(result, reference)
        assert resumed.shards_resumed == 3
        assert journal.read_text() == stale


class TestResumeOff:
    def test_a_plain_run_stores_no_checkpoints(self, tmp_path):
        spec = make_spec()
        cache_dir = tmp_path / "cache"
        interrupted = ParallelRunner(
            executor=BombExecutor({2}), cache=cache_dir
        )
        with pytest.raises(ShardExecutionError):
            interrupted.run(spec, shards=4)
        assert list(cache_dir.glob("*.npz")) == []

    def test_a_plain_run_neither_folds_nor_discards_checkpoints(
        self, tmp_path
    ):
        # Without resume every shard dispatches and the checkpoints an
        # interrupted resumable run left stay behind — for a later
        # resume of another plan, or for ``repro-fsck --repair``.
        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"
        interrupt(cache_dir, spec, {2})

        plain = ParallelRunner(workers=1, cache=cache_dir)
        result = plain.run(spec, shards=4)
        assert_byte_equal(result, reference)
        assert plain.shards_resumed == 0
        assert plain.cache.hits == 0
        key = spec_fingerprint(spec, shards=4)
        assert checkpointed(cache_dir, key) == {0, 1, 3}
        orphans = [checkpoint_key(key, ordinal) for ordinal in (0, 1, 3)]
        assert fsck(cache_dir).orphaned_checkpoints == orphans
        fsck(cache_dir, repair=True)
        assert checkpointed(cache_dir, key) == set()
        assert fsck(cache_dir).clean
