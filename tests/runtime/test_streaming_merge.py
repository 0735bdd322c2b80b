"""Differential tests: the streaming merge vs a batch-merged reference.

The runner folds shard results as they stream in.  Its output must be
*bit-identical* to the oracle built here — every shard of the plan run
in-process, then merged at once with ``merge_parts`` — for every
protocol, on every executor backend, through the cache, and across
failures; these tests pin that contract.  The perf-marked memory test
asserts the point of the exercise: peak working-set stays near one
merged ensemble.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.chainsim.harness import SystemExperiment
from repro.core.miners import Allocation
from repro.core.results import merge_parts
from repro.experiments._common import build_protocol
from repro.protocols import MultiLotteryPoS, ProofOfWork
from repro.runtime import (
    ParallelRunner,
    ResultCache,
    ShardExecutionError,
    SimulationSpec,
    SystemSpec,
    plan_shards,
    spec_fingerprint,
)
from repro.runtime.runner import _simulation_shard_body, _system_shard_body

ALL_PROTOCOLS = ("PoW", "ML-PoS", "SL-PoS", "C-PoS", "FSL-PoS")

BACKENDS = [
    pytest.param(1, id="serial"),
    pytest.param(3, id="processes"),
]


def make_spec(protocol=None, trials=24, horizon=60, seed=7, **overrides):
    defaults = dict(
        protocol=protocol if protocol is not None else MultiLotteryPoS(0.01),
        allocation=Allocation.two_miners(0.2),
        trials=trials,
        horizon=horizon,
        seed=seed,
    )
    defaults.update(overrides)
    return SimulationSpec(**defaults)


def batch_reference(spec, shards):
    """Run every shard of the plan in-process, then merge them at once."""
    if isinstance(spec, SystemSpec):
        body, total = _system_shard_body, spec.repeats
    else:
        body, total = _simulation_shard_body, spec.trials
    plan = plan_shards(total, spec.seed_sequence, min(total, shards))
    return merge_parts([body(spec, shard) for shard in plan])


def assert_byte_equal(streamed, batch):
    assert streamed.reward_fractions.tobytes() == batch.reward_fractions.tobytes()
    assert streamed.checkpoints.tobytes() == batch.checkpoints.tobytes()
    if batch.terminal_stakes is None:
        assert streamed.terminal_stakes is None
    else:
        assert (
            streamed.terminal_stakes.tobytes() == batch.terminal_stakes.tobytes()
        )
    assert streamed.protocol_name == batch.protocol_name
    assert streamed.allocation == batch.allocation
    assert streamed.round_unit == batch.round_unit


class TestGoldenSimulation:
    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_every_protocol_bit_identical(self, name):
        spec = make_spec(protocol=build_protocol(name, reward=0.01), seed=11)
        streamed = ParallelRunner(workers=1).run(spec, shards=4)
        assert_byte_equal(streamed, batch_reference(spec, shards=4))

    @pytest.mark.parametrize("workers", BACKENDS)
    def test_every_backend_bit_identical(self, workers):
        specs = [
            make_spec(seed=1),
            make_spec(protocol=ProofOfWork(0.01), seed=2),
            make_spec(trials=17, seed=3),  # uneven split across 4 shards
        ]
        streamed = ParallelRunner(workers=workers).run_many(specs, shards=4)
        for got, spec in zip(streamed, specs):
            assert_byte_equal(got, batch_reference(spec, shards=4))

    def test_no_terminal_stakes_streams_identically(self):
        spec = make_spec(seed=9, record_terminal_stakes=False)
        streamed = ParallelRunner(workers=1).run(spec, shards=3)
        assert streamed.terminal_stakes is None
        assert_byte_equal(streamed, batch_reference(spec, shards=3))


class TestGoldenSystem:
    def sweep(self, two_miners, seed=17):
        return [
            SystemSpec(
                experiment=SystemExperiment(protocol, two_miners),
                rounds=30,
                repeats=4,
                seed=seed + index,
            )
            for index, protocol in enumerate(("ml-pos", "sl-pos", "pow"))
        ]

    @pytest.mark.parametrize("workers", BACKENDS)
    def test_system_grid_bit_identical(self, two_miners, workers):
        specs = self.sweep(two_miners)
        runner = ParallelRunner(workers=workers)
        streamed = runner.run_system_many(specs, shards=2)
        for got, spec in zip(streamed, specs):
            assert_byte_equal(got, batch_reference(spec, shards=2))


class TestGoldenCache:
    def grid(self):
        return [
            make_spec(seed=1),
            make_spec(protocol=ProofOfWork(0.01), seed=2),
            make_spec(trials=30, seed=3),
        ]

    @pytest.mark.parametrize("workers", BACKENDS)
    def test_mixed_cached_uncached_grid(self, tmp_path, workers):
        # Warm one cell, then run the grid: the warm cell loads, the
        # cold cells stream-fold, and every result matches the batch
        # reference exactly.
        cache = tmp_path / f"cache-{workers}"
        warm = ParallelRunner(workers=1, cache=cache)
        warm.run(self.grid()[1], shards=4)

        runner = ParallelRunner(workers=workers, cache=cache)
        streamed = runner.run_many(self.grid(), shards=4)
        assert runner.cache.hits == 1
        for got, spec in zip(streamed, self.grid()):
            assert_byte_equal(got, batch_reference(spec, shards=4))
        # The streamed run populated the cache for the misses too.
        rerun = ParallelRunner(workers=1, cache=cache)
        rerun.run_many(self.grid(), shards=4)
        assert rerun.cache.hits == 3

    def test_stream_and_batch_share_cache_entries(self, tmp_path):
        # A batch-merged entry stored under the spec's fingerprint
        # answers a streaming run, and the runner's own entry for a
        # fresh run loads back byte-identical to it.
        spec = make_spec(seed=21)
        batch = batch_reference(spec, shards=4)
        ResultCache(tmp_path / "b").put(spec_fingerprint(spec, shards=4), batch)
        runner = ParallelRunner(workers=1, cache=tmp_path / "b")
        assert_byte_equal(runner.run(spec, shards=4), batch)
        assert runner.cache.hits == 1
        assert len(runner.cache) == 1

        ParallelRunner(workers=1, cache=tmp_path / "s").run(spec, shards=4)
        stored = ResultCache(tmp_path / "s").get(spec_fingerprint(spec, shards=4))
        assert_byte_equal(stored, batch)

    def test_duplicate_specs_compute_once_streaming(self, tmp_path):
        seen = []
        runner = ParallelRunner(
            workers=1,
            cache=tmp_path,
            progress=lambda done, total: seen.append(total),
        )
        a, b = runner.run_many(
            [make_spec(seed=11), make_spec(seed=11)], shards=4
        )
        assert seen[0] == 4  # one copy dispatched, not two
        assert runner.cache.hits == 1
        assert runner.cache.misses == 1
        np.testing.assert_array_equal(a.reward_fractions, b.reward_fractions)


class _ExplodingExperiment:
    """A SystemSpec experiment whose every shard fails."""

    def __init__(self):
        self.tag = "boom"

    def _run_serial(self, rounds, repeats, checkpoints=None, seed=None):
        raise RuntimeError("boom")


class TestFailureSalvageParity:
    def specs(self, two_miners):
        good = SystemSpec(
            SystemExperiment("ml-pos", two_miners), 30, 4, seed=3
        )
        bad = SystemSpec(_ExplodingExperiment(), 30, 4, seed=4)
        return good, bad

    def test_completed_specs_cached_despite_failure(self, tmp_path, two_miners):
        good, bad = self.specs(two_miners)
        runner = ParallelRunner(workers=1, cache=tmp_path)
        with pytest.raises(ShardExecutionError, match="boom"):
            runner.run_system_many([good, bad], shards=2)
        rerun = ParallelRunner(workers=1, cache=runner.cache.directory)
        rerun.run_system(good.experiment, 30, 4, seed=good.seed, shards=2)
        assert rerun.cache.hits == 1

    def test_stream_and_batch_salvage_identical_entries(
        self, tmp_path, two_miners
    ):
        # The salvage stores exactly the good spec's entry, holding the
        # batch-merged reference's bytes.
        good, bad = self.specs(two_miners)
        runner = ParallelRunner(workers=1, cache=tmp_path)
        with pytest.raises(ShardExecutionError):
            runner.run_system_many([good, bad], shards=2)
        key = spec_fingerprint(good, shards=2)
        assert [p.stem for p in tmp_path.glob("*.npz")] == [key]
        assert_byte_equal(
            runner.cache.get(key), batch_reference(good, shards=2)
        )

    def test_failure_indices_match_batch_path(self, two_miners):
        # Failures carry dispatch task indices: the good spec's two
        # shards are tasks 0-1, the failing spec's are tasks 2-3.
        good, bad = self.specs(two_miners)
        with pytest.raises(ShardExecutionError) as excinfo:
            ParallelRunner(workers=1).run_system_many([good, bad], shards=2)
        assert [index for index, _, _ in excinfo.value.failures] == [2, 3]


class TestProgressCountsMergedShards:
    def test_success_counts_every_shard_in_plan_order(self):
        seen = []
        runner = ParallelRunner(
            workers=1,
            progress=lambda done, total: seen.append((done, total)),
        )
        runner.run_many([make_spec(seed=1), make_spec(seed=2)], shards=3)
        assert seen == [(i + 1, 6) for i in range(6)]

    @pytest.mark.parametrize("workers", BACKENDS)
    def test_never_overshoots_total_when_a_shard_fails(
        self, two_miners, workers
    ):
        good = SystemSpec(
            SystemExperiment("ml-pos", two_miners), 30, 4, seed=3
        )
        bad = SystemSpec(_ExplodingExperiment(), 30, 4, seed=4)
        seen = []
        runner = ParallelRunner(
            workers=workers,
            progress=lambda done, total: seen.append((done, total)),
        )
        with pytest.raises(ShardExecutionError):
            runner.run_system_many([good, bad], shards=2)
        assert seen, "progress should have fired for the merged shards"
        totals = {total for _, total in seen}
        assert totals == {4}
        counts = [done for done, _ in seen]
        assert counts == sorted(counts)  # plan order, monotone
        assert max(counts) <= 4  # never overshoots the dispatch total

    def test_no_progress_for_fully_cached_grid(self, tmp_path):
        specs = [make_spec(seed=1), make_spec(seed=2)]
        ParallelRunner(workers=1, cache=tmp_path).run_many(specs, shards=2)
        seen = []
        warm = ParallelRunner(
            workers=1,
            cache=tmp_path,
            progress=lambda done, total: seen.append((done, total)),
        )
        warm.run_many(specs, shards=2)
        assert seen == []


class TestStreamContractGuard:
    def test_under_yielding_stream_raises_instead_of_returning_none(self):
        # A custom executor whose stream() drops tasks (instead of
        # yielding them as failures) must be a loud error, not a None
        # in the result list that crashes far downstream.
        from repro.runtime.executor import SerialExecutor

        class DroppingExecutor(SerialExecutor):
            def stream(self, fn, tasks, *, window=None):
                for item in super().stream(fn, tasks, window=window):
                    if item[0] == 1:
                        continue  # silently lose task 1
                    yield item

        runner = ParallelRunner(executor=DroppingExecutor())
        with pytest.raises(RuntimeError, match="yielded 2 of 3 tasks"):
            runner.run(make_spec(seed=4), shards=3)


def _peak_bytes(fn):
    """Peak traced allocation of ``fn()`` in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.perf
class TestStreamingPeakMemory:
    """The memory contract: streaming peaks near ONE merged ensemble.

    Collecting every shard result and then concatenating would cost
    ~2x the merged footprint before per-shard overheads.  Streaming
    preallocates the merged arrays once and folds shards as they land,
    so its peak must stay below a small multiple of the final artifact
    and roughly flat as the shard count grows.
    """

    TRIALS = 8000
    SHARDS = 16
    CHECKPOINTS = tuple(range(10, 110, 10))

    def spec(self):
        return make_spec(
            trials=self.TRIALS,
            horizon=100,
            checkpoints=self.CHECKPOINTS,
            seed=13,
        )

    def merged_nbytes(self):
        # fractions (trials, checkpoints, miners) + terminal (trials, miners)
        return (
            self.TRIALS * len(self.CHECKPOINTS) * 2 * 8 + self.TRIALS * 2 * 8
        )

    def test_streaming_peak_near_one_ensemble(self):
        spec = self.spec()
        stream_peak = _peak_bytes(
            lambda: ParallelRunner(workers=1).run(spec, shards=self.SHARDS)
        )
        # Within a small multiple of the inherent output size: the
        # accumulated arrays (adopted without a validating re-clip
        # copy) plus one in-flight shard and simulation scratch —
        # ~1.3x measured at 16 shards.  Collecting the full shard
        # result list plus the concatenate+clip copies costs ~3x.
        assert stream_peak < self.merged_nbytes() * 2.0, (
            stream_peak,
            self.merged_nbytes(),
        )

    def test_streaming_peak_roughly_flat_in_shard_count(self):
        spec = self.spec()
        peaks = {
            shards: _peak_bytes(
                lambda shards=shards: ParallelRunner(workers=1).run(
                    spec, shards=shards
                )
            )
            for shards in (4, 16, 64)
        }
        # More shards means smaller in-flight results; the peak must
        # not grow with the shard count.
        assert peaks[64] <= peaks[4] * 1.1, peaks
