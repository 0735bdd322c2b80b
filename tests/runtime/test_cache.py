"""Tests for repro.runtime.cache — content-addressed result storage."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.miners import Allocation
from repro.protocols import MultiLotteryPoS
from repro.runtime.cache import ResultCache
from repro.runtime.spec import SimulationSpec, spec_fingerprint
from repro.sim.engine import simulate


@pytest.fixture
def result(two_miners):
    return simulate(MultiLotteryPoS(0.01), two_miners, 100, trials=20, seed=1)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


KEY = "a" * 64


class TestRoundTrip:
    def test_put_then_get_byte_equal(self, cache, result):
        cache.put(KEY, result)
        loaded = cache.get(KEY)
        assert loaded.reward_fractions.tobytes() == result.reward_fractions.tobytes()
        assert loaded.terminal_stakes.tobytes() == result.terminal_stakes.tobytes()
        assert loaded.protocol_name == result.protocol_name
        assert loaded.allocation == result.allocation

    def test_miss_returns_none(self, cache):
        assert cache.get(KEY) is None

    def test_contains(self, cache, result):
        assert KEY not in cache
        cache.put(KEY, result)
        assert KEY in cache

    def test_hit_and_miss_counters(self, cache, result):
        cache.get(KEY)
        cache.put(KEY, result)
        cache.get(KEY)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_len_counts_entries(self, cache, result):
        assert len(cache) == 0
        cache.put(KEY, result)
        cache.put("b" * 64, result)
        assert len(cache) == 2

    def test_clear(self, cache, result):
        cache.put(KEY, result)
        assert cache.clear() == 1
        assert cache.get(KEY) is None

    def test_clear_counts_staging_leftovers(self, cache, result):
        cache.put(KEY, result)
        orphan = cache.directory / ".tmp" / "dead-run-123.npz"
        orphan.write_bytes(b"partial write")
        assert cache.clear() == 2
        assert not orphan.exists()


class TestRobustness:
    def test_corrupt_entry_is_a_miss_and_evicted(self, cache, result):
        path = cache.put(KEY, result)
        path.write_bytes(b"not an npz archive")
        assert cache.get(KEY) is None
        assert not path.exists()

    def test_no_partial_artifacts_on_put(self, cache, result):
        cache.put(KEY, result)
        entries = [p.name for p in cache.directory.glob("*.npz")]
        assert entries == [f"{KEY}.npz"]
        assert list((cache.directory / ".tmp").glob("*.npz")) == []

    def test_orphaned_staging_files_do_not_count_as_entries(self, cache, result):
        cache.put(KEY, result)
        orphan = cache.directory / ".tmp" / "dead-run-123.npz"
        orphan.write_bytes(b"partial write")
        assert len(cache) == 1
        cache.clear()
        assert not orphan.exists()

    def test_rejects_path_traversal_keys(self, cache):
        with pytest.raises(ValueError, match="invalid cache key"):
            cache.path_for("../escape")
        with pytest.raises(ValueError, match="invalid cache key"):
            cache.path_for("")

    def test_rejects_existing_file_as_directory(self, tmp_path):
        file_path = tmp_path / "not-a-dir"
        file_path.write_text("occupied")
        with pytest.raises(ValueError, match="not a directory"):
            ResultCache(file_path)

    def test_directory_created_lazily(self, tmp_path, result):
        cache = ResultCache(tmp_path / "deep" / "nested")
        assert not cache.directory.exists()
        cache.put(KEY, result)
        assert cache.directory.exists()


class TestCrashConsistency:
    """A writer killed mid-put must never corrupt, phantom-serve, or
    budget-poison the cache."""

    def _torn_staging(self, cache, name="torn-pid999.npz", age=None):
        staging = cache.directory / ".tmp"
        staging.mkdir(parents=True, exist_ok=True)
        torn = staging / name
        torn.write_bytes(b"PK\x03\x04 truncated mid-write")
        if age is not None:
            import os
            import time

            stamp = time.time() - age
            os.utime(torn, (stamp, stamp))
        return torn

    def test_torn_staging_is_never_served(self, cache, result):
        # A staging file whose name matches a real key must still be
        # invisible: only the atomic rename publishes an artifact.
        self._torn_staging(cache, name=f"{KEY}-12345-678-abcd1234.npz")
        assert cache.get(KEY) is None
        assert KEY not in cache

    def test_torn_staging_is_not_counted_by_the_byte_budget(
        self, tmp_path, result
    ):
        cache = ResultCache(tmp_path / "cache", max_bytes=1 << 30)
        cache.put(KEY, result)
        real = cache.path_for(KEY).stat().st_size
        self._torn_staging(cache)
        # _scan_bytes globs the cache root only; .tmp leftovers add 0.
        assert cache._scan_bytes() == real

    def test_stale_staging_is_swept_on_init(self, tmp_path, result):
        cache = ResultCache(tmp_path / "cache")
        cache.put(KEY, result)
        dead = self._torn_staging(cache, name="dead.npz", age=7200.0)
        fresh = self._torn_staging(cache, name="fresh.npz")
        reopened = ResultCache(tmp_path / "cache")
        assert not dead.exists()  # old enough: a killed writer's leavings
        assert fresh.exists()  # could belong to a live concurrent writer
        assert reopened.get(KEY) is not None  # real artifacts untouched

    def test_visible_artifact_survives_reopen_byte_equal(
        self, tmp_path, result
    ):
        cache = ResultCache(tmp_path / "cache")
        cache.put(KEY, result)
        reopened = ResultCache(tmp_path / "cache")
        loaded = reopened.get(KEY)
        assert (
            loaded.reward_fractions.tobytes()
            == result.reward_fractions.tobytes()
        )

    def test_discard_removes_without_counting_an_eviction(
        self, tmp_path, result
    ):
        cache = ResultCache(tmp_path / "cache", max_bytes=1 << 30)
        cache.put(KEY, result)
        assert cache.discard(KEY)
        assert KEY not in cache
        assert cache.evictions == 0
        assert not cache.discard(KEY)  # already gone

    def test_discard_updates_the_occupancy_estimate(self, tmp_path, result):
        budget = ResultCache(tmp_path / "cache", max_bytes=1 << 30)
        budget.put("a" * 64, result)
        budget.put("b" * 64, result)
        before = budget._approx_bytes
        size = budget.path_for("a" * 64).stat().st_size
        budget.discard("a" * 64)
        assert budget._approx_bytes == before - size


class TestBudget:
    """max_bytes LRU eviction."""

    def artifact_size(self, tmp_path, result):
        probe = ResultCache(tmp_path / "probe")
        path = probe.put("f" * 64, result)
        return path.stat().st_size

    def budget_cache(self, tmp_path, result, entries):
        size = self.artifact_size(tmp_path, result)
        return ResultCache(
            tmp_path / "cache", max_bytes=int(size * entries + size / 2)
        )

    def test_rejects_non_positive_budget(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(tmp_path, max_bytes=0)

    def test_put_over_budget_evicts_oldest(self, cache_keys, tmp_path, result):
        import os, time

        cache = self.budget_cache(tmp_path, result, entries=2)
        base = time.time()
        first = cache.put(cache_keys[0], result)
        second = cache.put(cache_keys[1], result)
        # Distinct, past mtimes so the LRU order is unambiguous on
        # coarse-timestamp filesystems.
        os.utime(first, (base - 60, base - 60))
        os.utime(second, (base - 30, base - 30))
        cache.put(cache_keys[2], result)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(cache_keys[0]) is None  # the oldest went
        assert cache.get(cache_keys[2]) is not None

    def test_hit_refreshes_recency(self, cache_keys, tmp_path, result):
        import os, time

        cache = self.budget_cache(tmp_path, result, entries=2)
        base = time.time()
        first = cache.put(cache_keys[0], result)
        os.utime(first, (base - 60, base - 60))
        second = cache.put(cache_keys[1], result)
        os.utime(second, (base - 30, base - 30))
        assert cache.get(cache_keys[0]) is not None  # refresh entry 0
        cache.put(cache_keys[2], result)
        # Entry 1 is now the least recently used and must be the one
        # evicted; the refreshed entry 0 survives.
        assert cache.get(cache_keys[1]) is None
        assert cache.get(cache_keys[0]) is not None

    def test_current_put_never_self_evicts(self, tmp_path, result):
        size = self.artifact_size(tmp_path, result)
        cache = ResultCache(tmp_path / "cache", max_bytes=max(1, size // 2))
        cache.put("b" * 64, result)
        assert len(cache) == 1
        assert cache.get("b" * 64) is not None

    def test_stats_reports_counters_and_occupancy(self, cache, result):
        stats = cache.stats()
        assert stats["entries"] == 0 and stats["evictions"] == 0
        cache.put(KEY, result)
        cache.get(KEY)
        cache.get("c" * 64)
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["max_bytes"] is None

    def test_unbounded_cache_never_evicts(self, cache, cache_keys, result):
        for key in cache_keys:
            cache.put(key, result)
        assert len(cache) == len(cache_keys)
        assert cache.evictions == 0

    def test_occupancy_exactly_at_budget_is_not_evicted(
        self, cache_keys, tmp_path, result
    ):
        # The budget is inclusive: eviction triggers strictly *over*
        # max_bytes, so a cache filled to exactly the budget keeps
        # every entry.
        size = self.artifact_size(tmp_path, result)
        cache = ResultCache(tmp_path / "cache", max_bytes=size * 2)
        cache.put(cache_keys[0], result)
        cache.put(cache_keys[1], result)
        assert len(cache) == 2
        assert cache.evictions == 0
        assert cache.get(cache_keys[0]) is not None
        assert cache.get(cache_keys[1]) is not None

    def test_budget_smaller_than_one_entry_keeps_only_newest(
        self, cache_keys, tmp_path, result
    ):
        import os, time

        size = self.artifact_size(tmp_path, result)
        cache = ResultCache(tmp_path / "cache", max_bytes=max(1, size // 2))
        first = cache.put(cache_keys[0], result)
        # Backdate so the LRU order is unambiguous on coarse-mtime
        # filesystems.
        os.utime(first, (time.time() - 60, time.time() - 60))
        cache.put(cache_keys[1], result)
        # The oversized newcomer always lands (self-eviction is
        # forbidden) and the previous oversized entry is the one that
        # pays for it.
        assert len(cache) == 1
        assert cache.evictions == 1
        assert cache.get(cache_keys[0]) is None
        assert cache.get(cache_keys[1]) is not None

    def test_corrupt_entry_eviction_updates_occupancy_estimate(
        self, cache_keys, tmp_path, result
    ):
        # A corrupt artifact evicted by get() must leave the running
        # byte estimate, or later puts would see phantom occupancy and
        # evict live entries early.
        size = self.artifact_size(tmp_path, result)
        cache = ResultCache(tmp_path / "cache", max_bytes=size * 3)
        path = cache.put(cache_keys[0], result)
        assert cache._approx_bytes == size
        path.write_bytes(b"truncated")
        assert cache.get(cache_keys[0]) is None  # evicted as corrupt
        assert cache._approx_bytes == size - len(b"truncated")
        cache.put(cache_keys[1], result)
        cache.put(cache_keys[2], result)
        assert cache.evictions == 0  # no phantom-occupancy evictions
        assert len(cache) == 2


@pytest.fixture
def cache_keys():
    return ["1" * 64, "2" * 64, "3" * 64, "4" * 64]


class TestConcurrency:
    def test_concurrent_puts_of_same_key_never_corrupt(self, cache, result):
        # Regression: the staging name used to be {key}-{pid}.npz —
        # identical for every thread of a process — so two threads
        # storing the same key overwrote each other's half-written
        # artifact.  With per-writer staging names each rename lands an
        # intact file no matter how the race resolves.
        def put(_):
            return cache.put(KEY, result)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(put, range(32)))

        loaded = cache.get(KEY)
        assert loaded is not None
        assert loaded.reward_fractions.tobytes() == result.reward_fractions.tobytes()
        assert list((cache.directory / ".tmp").glob("*.npz")) == []

    def test_concurrent_put_get_mix_keeps_counters_consistent(
        self, cache, result
    ):
        keys = [format(i, "x") * 16 for i in range(1, 9)]

        def hammer(key):
            for _ in range(6):
                cache.put(key, result)
                assert cache.get(key) is not None

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, keys))

        # Every get above was a hit; the lock makes the tally exact.
        assert cache.hits == len(keys) * 6
        assert cache.misses == 0
        assert len(cache) == len(keys)

    def test_eviction_racing_concurrent_gets_under_threads(
        self, tmp_path, result
    ):
        # A budgeted cache evicting LRU entries while pool threads
        # hammer get(): every get must return either a fully intact
        # result or a clean miss — never a partial read or a crash —
        # and the hit/miss tally must cover every call.
        size = ResultCache(tmp_path / "probe").put("f" * 64, result).stat().st_size
        cache = ResultCache(tmp_path / "cache", max_bytes=size * 3)
        keys = [format(i, "x") * 16 for i in range(1, 9)]
        reference = result.reward_fractions.tobytes()
        gets = 0

        def hammer(key):
            outcomes = 0
            for _ in range(8):
                cache.put(key, result)  # keeps evictions churning
                loaded = cache.get(key)
                if loaded is not None:
                    assert loaded.reward_fractions.tobytes() == reference
                outcomes += 1
            return outcomes

        with ThreadPoolExecutor(max_workers=8) as pool:
            gets = sum(pool.map(hammer, keys))

        assert gets == len(keys) * 8
        assert cache.hits + cache.misses == gets
        stats = cache.stats()
        # The churn must have actually exercised the eviction path.
        assert stats["evictions"] > 0
        assert stats["bytes"] <= size * len(keys)


class TestFingerprintIntegration:
    def test_spec_key_round_trip(self, cache, result, two_miners):
        spec = SimulationSpec(
            MultiLotteryPoS(0.01), two_miners, trials=20, horizon=100, seed=1
        )
        key = spec_fingerprint(spec, shards=4)
        cache.put(key, result)
        assert cache.get(key) is not None
