"""Tests for repro.runtime.diskchaos — the storage crash-point sweep.

The central proof: a workload that exercises every write/fsync/rename
boundary in the cache, resume checkpoints included, is crashed at
*each* enumerated boundary in turn, and after every crash recovery
holds — no torn artifact is ever served, byte accounting re-syncs, the
rerun produces bit-identical results, and ``fsck --repair`` leaves the
tree clean.
"""

import pytest

from repro.core.miners import Allocation
from repro.protocols import MultiLotteryPoS, ProofOfWork
from repro.runtime import ParallelRunner, checkpoint_key
from repro.runtime.cache import ResultCache
from repro.runtime.diskchaos import (
    DiskChaos,
    DiskFaultSchedule,
    SimulatedCrash,
    _tear_file,
    crashpoint,
    using_disk_chaos,
)
from repro.runtime.integrity import CacheDegradedWarning, fsck
from repro.runtime.spec import SimulationSpec
from repro.sim.engine import simulate

SPEC_KEY = "5" * 64
SCRATCH = "c" * 64


@pytest.fixture(scope="module")
def result_a():
    return simulate(
        MultiLotteryPoS(0.01), Allocation.two_miners(0.2), 100,
        trials=20, seed=1,
    )


@pytest.fixture(scope="module")
def result_b():
    return simulate(
        ProofOfWork(0.01), Allocation.two_miners(0.2), 100,
        trials=20, seed=2,
    )


def run_workload(root, result_a, result_b):
    """Three shard checkpoints, the merged artifact, and the checkpoint
    discards — one pass over every storage boundary the durable layer
    owns."""
    cache = ResultCache(root, max_bytes=1 << 20)
    checkpoints = [checkpoint_key(SPEC_KEY, ordinal) for ordinal in range(3)]
    for checkpoint, part in zip(checkpoints, (result_a, result_b, result_a)):
        cache.put(checkpoint, part)
    cache.put(SPEC_KEY, result_a)
    for checkpoint in checkpoints:
        cache.discard(checkpoint)
    return cache


@pytest.fixture(scope="module")
def reference_bytes(tmp_path_factory, result_a, result_b):
    """The merged artifact bytes of an uninterrupted workload."""
    root = tmp_path_factory.mktemp("clean")
    run_workload(root, result_a, result_b)
    return (root / f"{SPEC_KEY}.npz").read_bytes()


def assert_recovered(root, result_a, result_b, reference_bytes):
    """The full post-crash contract."""
    # 1. No torn artifact is served: every surviving entry either
    #    loads or reads as a miss (quarantined/evicted), never raises.
    cache = ResultCache(root, max_bytes=1 << 20)
    for path in sorted(root.glob("*.npz")):
        cache.get(path.stem)
    # 2. Byte accounting matches a fresh scan after recovery activity.
    cache.put(SCRATCH, result_b)
    with cache._stats_lock:
        assert cache._approx_bytes == cache._scan_bytes()
    cache.discard(SCRATCH)
    # 3. The rerun completes and reproduces the clean run bit-for-bit.
    run_workload(root, result_a, result_b)
    assert (root / f"{SPEC_KEY}.npz").read_bytes() == reference_bytes
    # 4. fsck --repair leaves the tree clean.
    fsck(root, repair=True)
    assert fsck(root).clean


class TestDiskFaultSchedule:
    def test_draw_is_deterministic(self):
        schedule = DiskFaultSchedule(seed=7)
        assert schedule.draw("cache.put.save", 3, "enospc") == (
            DiskFaultSchedule(seed=7).draw("cache.put.save", 3, "enospc")
        )

    def test_draw_varies_with_every_coordinate(self):
        schedule = DiskFaultSchedule(seed=7)
        base = schedule.draw("p", 0, "enospc")
        assert base != schedule.draw("p", 1, "enospc")
        assert base != schedule.draw("q", 0, "enospc")
        assert base != schedule.draw("p", 0, "fsync")
        assert base != DiskFaultSchedule(seed=8).draw("p", 0, "enospc")

    def test_draw_is_uniform_range(self):
        schedule = DiskFaultSchedule(seed=1)
        values = [schedule.draw("p", hit, "enospc") for hit in range(100)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_rates_are_validated(self):
        with pytest.raises(ValueError):
            DiskFaultSchedule(seed=1, enospc_rate=1.5)
        with pytest.raises(ValueError):
            DiskFaultSchedule(seed=1, fsync_error_rate=-0.1)


class TestDiskChaosController:
    def test_crashpoint_is_noop_without_controller(self, tmp_path):
        crashpoint("cache.put.save", kind="write", path=tmp_path / "x")

    def test_record_mode_enumerates_without_faulting(self):
        chaos = DiskChaos(record=True, crash_at=0)
        with using_disk_chaos(chaos):
            crashpoint("a", kind="write")
            crashpoint("b", kind="fsync")
        assert chaos.total_hits == 2
        assert [name for name, _, _ in chaos.hits] == ["a", "b"]

    def test_crash_at_fires_on_the_exact_hit(self):
        chaos = DiskChaos(crash_at=1)
        with using_disk_chaos(chaos):
            crashpoint("a", kind="write")
            with pytest.raises(SimulatedCrash):
                crashpoint("b", kind="write")

    def test_unknown_kind_is_rejected(self):
        with using_disk_chaos(DiskChaos(record=True)):
            with pytest.raises(ValueError):
                crashpoint("a", kind="rename")

    def test_negative_crash_at_is_rejected(self):
        with pytest.raises(ValueError):
            DiskChaos(crash_at=-1)

    def test_nesting_restores_the_previous_controller(self):
        outer = DiskChaos(record=True)
        inner = DiskChaos(record=True)
        with using_disk_chaos(outer):
            with using_disk_chaos(inner):
                crashpoint("a")
            crashpoint("b")
        assert [name for name, _, _ in inner.hits] == ["a"]
        assert [name for name, _, _ in outer.hits] == ["b"]

    def test_tear_file_truncates_deterministically(self, tmp_path):
        victim = tmp_path / "victim.bin"
        victim.write_bytes(bytes(range(200)))
        _tear_file(victim, seed=3, point="p")
        torn = victim.read_bytes()
        assert 1 <= len(torn) < 200
        assert torn == bytes(range(200))[: len(torn)]
        victim.write_bytes(bytes(range(200)))
        _tear_file(victim, seed=3, point="p")
        assert victim.read_bytes() == torn

    def test_tear_file_tolerates_missing_and_tiny_files(self, tmp_path):
        _tear_file(tmp_path / "ghost", seed=1, point="p")
        tiny = tmp_path / "tiny"
        tiny.write_bytes(b"x")
        _tear_file(tiny, seed=1, point="p")
        assert tiny.read_bytes() == b"x"


class TestCrashPointSweep:
    def test_crash_at_every_point_recovers(
        self, tmp_path, result_a, result_b, reference_bytes
    ):
        recorder = DiskChaos(record=True)
        with using_disk_chaos(recorder):
            run_workload(tmp_path / "record", result_a, result_b)
        total = recorder.total_hits
        names = {name for name, _, _ in recorder.hits}
        # The workload must cross every boundary family — a sweep over
        # a workload that skips boundaries proves nothing.
        assert total >= 30
        for prefix in ("cache.put.", "cache.sum."):
            assert any(name.startswith(prefix) for name in names), prefix

        for crash_at in range(total):
            root = tmp_path / f"crash-{crash_at}"
            with using_disk_chaos(DiskChaos(crash_at=crash_at)):
                with pytest.raises(SimulatedCrash):
                    run_workload(root, result_a, result_b)
            assert_recovered(root, result_a, result_b, reference_bytes)

    def test_torn_write_at_every_write_point_recovers(
        self, tmp_path, result_a, result_b, reference_bytes
    ):
        recorder = DiskChaos(record=True)
        with using_disk_chaos(recorder):
            run_workload(tmp_path / "record", result_a, result_b)
        write_points = [
            index
            for index, (_, kind, has_path) in enumerate(recorder.hits)
            if kind == "write" and has_path
        ]
        assert write_points
        for crash_at in write_points:
            root = tmp_path / f"tear-{crash_at}"
            with using_disk_chaos(DiskChaos(crash_at=crash_at, tear=True)):
                with pytest.raises(SimulatedCrash):
                    run_workload(root, result_a, result_b)
            assert_recovered(root, result_a, result_b, reference_bytes)


class TestScheduledFaults:
    def test_enospc_degrades_cache_loudly(
        self, tmp_path, result_a, result_b
    ):
        root = tmp_path / "full-disk"
        chaos = DiskChaos(schedule=DiskFaultSchedule(seed=3, enospc_rate=1.0))
        with using_disk_chaos(chaos), pytest.warns(CacheDegradedWarning):
            cache = run_workload(root, result_a, result_b)
        # The run completed; nothing was stored; nothing raised.
        assert cache.degraded
        assert cache.stats()["degraded"] is True
        assert list(root.glob("*.npz")) == []

    def test_fsync_failures_change_no_bits(
        self, tmp_path, result_a, result_b, reference_bytes
    ):
        root = tmp_path / "no-fsync"
        chaos = DiskChaos(
            schedule=DiskFaultSchedule(seed=4, fsync_error_rate=1.0)
        )
        with using_disk_chaos(chaos):
            run_workload(root, result_a, result_b)
        assert (root / f"{SPEC_KEY}.npz").read_bytes() == reference_bytes
        assert fsck(root).clean


class TestResumableRunFaults:
    """A resumable runner on a failing disk: the durable layer degrades
    or absorbs the fault, and no bit of the result moves."""

    SPEC = SimulationSpec(
        protocol=ProofOfWork(0.01),
        allocation=Allocation.two_miners(0.2),
        trials=40,
        horizon=50,
        seed=7,
    )

    def test_full_disk_checkpoints_nothing_and_changes_no_bits(
        self, tmp_path
    ):
        reference = ParallelRunner(workers=1).run(self.SPEC, shards=4)
        root = tmp_path / "full-disk"
        runner = ParallelRunner(workers=1, cache=root, resume=True)
        chaos = DiskChaos(schedule=DiskFaultSchedule(seed=9, enospc_rate=1.0))
        with using_disk_chaos(chaos), pytest.warns(CacheDegradedWarning):
            result = runner.run(self.SPEC, shards=4)
        assert result.reward_fractions.tobytes() == (
            reference.reward_fractions.tobytes()
        )
        assert runner.cache.degraded
        assert list(root.glob("*.npz")) == []
        # With room again, a resume finds nothing to fold and recomputes.
        resumed = ParallelRunner(workers=1, cache=root, resume=True)
        again = resumed.run(self.SPEC, shards=4)
        assert resumed.shards_resumed == 0
        assert again.reward_fractions.tobytes() == (
            reference.reward_fractions.tobytes()
        )

    def test_failed_fsyncs_store_what_a_clean_run_stores(self, tmp_path):
        clean_dir = tmp_path / "clean"
        ParallelRunner(workers=1, cache=clean_dir, resume=True).run(
            self.SPEC, shards=4
        )
        root = tmp_path / "no-fsync"
        chaos = DiskChaos(
            schedule=DiskFaultSchedule(seed=4, fsync_error_rate=1.0)
        )
        with using_disk_chaos(chaos):
            ParallelRunner(workers=1, cache=root, resume=True).run(
                self.SPEC, shards=4
            )
        stored = sorted((p.name, p.read_bytes()) for p in root.glob("*.npz"))
        clean = sorted(
            (p.name, p.read_bytes()) for p in clean_dir.glob("*.npz")
        )
        assert stored == clean
        assert fsck(root).clean


class TestRunnerCrashResume:
    def test_resume_after_midrun_crashes_is_bit_identical(self, tmp_path):
        spec = SimulationSpec(
            protocol=ProofOfWork(0.01),
            allocation=Allocation.two_miners(0.2),
            trials=40,
            horizon=50,
            seed=7,
        )
        clean_dir = tmp_path / "clean"
        ParallelRunner(workers=1, cache=clean_dir).run(spec, shards=4)
        clean = sorted(
            (p.name, p.read_bytes()) for p in clean_dir.glob("*.npz")
        )

        recorder = DiskChaos(record=True)
        record_dir = tmp_path / "record"
        with using_disk_chaos(recorder):
            runner = ParallelRunner(workers=1, cache=record_dir, resume=True)
            runner.run(spec, shards=4)
        total = recorder.total_hits
        assert total > 0

        for crash_at in sorted({0, total // 3, total // 2, total - 1}):
            root = tmp_path / f"crash-{crash_at}"
            runner = ParallelRunner(workers=1, cache=root, resume=True)
            with using_disk_chaos(DiskChaos(crash_at=crash_at, tear=True)):
                with pytest.raises(SimulatedCrash):
                    runner.run(spec, shards=4)

            resumed = ParallelRunner(workers=1, cache=root, resume=True)
            resumed.run(spec, shards=4)
            # A crash after the spec's put strands its checkpoints; the
            # resume, which serves the spec from the cache, discards
            # them, and fsck's repair evicts any it missed, so run it
            # before comparing directory contents.
            fsck(root, repair=True)
            assert fsck(root).clean
            after = sorted(
                (p.name, p.read_bytes()) for p in root.glob("*.npz")
            )
            assert after == clean, f"crash at point {crash_at} diverged"
