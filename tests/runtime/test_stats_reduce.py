"""Differential tests: ``reduce="stats"`` vs full trajectories.

Mirrors ``test_streaming_merge.py`` for the stats reduction: every
protocol, every executor backend, mixed cached/uncached grids, and
checkpoint resume must produce StatsSummary artifacts whose exact
counters (unfair/win/monopolisation events) equal the reduction of
the full-mode run at the same shard plan, with moments matching to
float tolerance.  Also home to the merge-layer bug-sweep
regressions: zero-total terminal rows, accumulator finalization, and
zero-trial part rejection.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.miners import Allocation
from repro.core.results import EnsembleResult, MergeAccumulator, merge_parts
from repro.core.stats import StatsSummary
from repro.experiments._common import build_protocol
from repro.protocols import MultiLotteryPoS, ProofOfWork
from repro.runtime import (
    ParallelRunner,
    ShardExecutionError,
    SimulationSpec,
    checkpoint_key,
    plan_shards,
    spec_fingerprint,
)
from repro.runtime.executor import SerialExecutor
from repro.runtime.runner import _simulation_shard_body

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
        reduce="stats",
    )
    defaults.update(overrides)
    return SimulationSpec(**defaults)


def batch_reference(spec, shards):
    """Run every shard of the plan in-process, then merge them at once."""
    plan = plan_shards(spec.trials, spec.seed_sequence, min(spec.trials, shards))
    return merge_parts([_simulation_shard_body(spec, shard) for shard in plan])


def assert_stats_byte_equal(got, expected):
    """Byte-for-byte equality of two StatsSummary artifacts."""
    assert isinstance(got, StatsSummary)
    assert isinstance(expected, StatsSummary)
    assert got.state_meta() == expected.state_meta()
    got_arrays = got.state_arrays()
    expected_arrays = expected.state_arrays()
    assert set(got_arrays) == set(expected_arrays)
    for key, array in expected_arrays.items():
        assert got_arrays[key].tobytes() == array.tobytes(), key
    assert got.checkpoints.tobytes() == expected.checkpoints.tobytes()
    assert got.protocol_name == expected.protocol_name
    assert got.allocation == expected.allocation
    assert got.round_unit == expected.round_unit


def assert_matches_full_reduction(stats, full):
    """Counters exact vs the full-mode reduction; moments to tolerance.

    ``stats`` merged per-shard summaries; ``full`` concatenated the
    shard cubes — so integer counters must agree exactly and the
    Chan-merged moments up to reassociation.
    """
    reduced = StatsSummary.from_ensemble(full)
    np.testing.assert_array_equal(stats.unfair, reduced.unfair)
    assert stats.trials == reduced.trials
    assert stats.monopolised == reduced.monopolised
    assert stats.zero_stake_trials == reduced.zero_stake_trials
    if reduced.has_terminal:
        np.testing.assert_array_equal(stats.wins, reduced.wins)
    np.testing.assert_allclose(stats.mean, reduced.mean, rtol=1e-9)
    # Exact counters imply bit-identical figure series.
    assert (
        stats.unfair_probabilities().tobytes()
        == full.unfair_probabilities().tobytes()
    )


class TestGoldenSimulation:
    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_every_protocol_matches_full_reduction(self, name):
        stats_spec = make_spec(protocol=build_protocol(name, reward=0.01), seed=11)
        full_spec = make_spec(
            protocol=build_protocol(name, reward=0.01), seed=11, reduce="full"
        )
        runner = ParallelRunner(workers=1)
        stats = runner.run(stats_spec, shards=4)
        full = runner.run(full_spec, shards=4)
        assert_matches_full_reduction(stats, full)

    @pytest.mark.parametrize("workers", BACKENDS)
    def test_every_backend_bit_identical_to_serial(self, workers):
        specs = [
            make_spec(seed=1),
            make_spec(protocol=ProofOfWork(0.01), seed=2),
            make_spec(trials=17, seed=3),  # uneven split across 4 shards
        ]
        streamed = ParallelRunner(workers=workers).run_many(specs, shards=4)
        for got, spec in zip(streamed, specs):
            assert_stats_byte_equal(got, batch_reference(spec, shards=4))

    def test_streamed_fold_equals_batch_merge(self):
        spec = make_spec(seed=5)
        streamed = ParallelRunner(workers=1).run(spec, shards=3)
        assert_stats_byte_equal(streamed, batch_reference(spec, shards=3))

    def test_no_terminal_stakes(self):
        spec = make_spec(seed=9, record_terminal_stakes=False)
        stats = ParallelRunner(workers=1).run(spec, shards=3)
        assert isinstance(stats, StatsSummary)
        assert not stats.has_terminal

    def test_each_spec_decides_its_artifact_shape(self):
        # The runner has no reduce knob of its own: one grid may mix
        # both shapes, and each spec gets the kind it asked for.
        with pytest.raises(TypeError):
            ParallelRunner(workers=1, reduce="stats")
        stats, full = ParallelRunner(workers=1).run_many(
            [make_spec(seed=6), make_spec(seed=6, reduce="full")], shards=2
        )
        assert isinstance(stats, StatsSummary)
        assert isinstance(full, EnsembleResult)


class TestGoldenCache:
    def grid(self):
        return [
            make_spec(seed=1),
            make_spec(protocol=ProofOfWork(0.01), seed=2),
            make_spec(trials=30, seed=3),
        ]

    @pytest.mark.parametrize("workers", BACKENDS)
    def test_mixed_cached_uncached_grid(self, tmp_path, workers):
        cache = tmp_path / f"cache-{workers}"
        warm = ParallelRunner(workers=1, cache=cache)
        warm.run(self.grid()[1], shards=4)

        runner = ParallelRunner(workers=workers, cache=cache)
        streamed = runner.run_many(self.grid(), shards=4)
        assert runner.cache.hits == 1
        reference = ParallelRunner(workers=1).run_many(self.grid(), shards=4)
        for got, expected in zip(streamed, reference):
            assert_stats_byte_equal(got, expected)
        rerun = ParallelRunner(workers=1, cache=cache)
        rerun.run_many(self.grid(), shards=4)
        assert rerun.cache.hits == 3

    def test_cache_round_trip_is_bit_identical(self, tmp_path):
        spec = make_spec(seed=21)
        cold_runner = ParallelRunner(workers=1, cache=tmp_path / "c")
        cold = cold_runner.run(spec, shards=4)
        warm_runner = ParallelRunner(workers=1, cache=tmp_path / "c")
        warm = warm_runner.run(spec, shards=4)
        assert warm_runner.cache.hits == 1
        assert_stats_byte_equal(warm, cold)

    def test_stats_and_full_never_share_cache_entries(self, tmp_path):
        stats_spec = make_spec(seed=8)
        full_spec = make_spec(seed=8, reduce="full")
        assert spec_fingerprint(stats_spec, shards=2) != spec_fingerprint(
            full_spec, shards=2
        )
        runner = ParallelRunner(workers=1, cache=tmp_path)
        stats = runner.run(stats_spec, shards=2)
        full = runner.run(full_spec, shards=2)
        assert runner.cache.hits == 0
        assert len(runner.cache) == 2
        assert isinstance(stats, StatsSummary)
        assert isinstance(full, EnsembleResult)
        # Each mode loads its own kind back.
        rerun = ParallelRunner(workers=1, cache=tmp_path)
        assert isinstance(rerun.run(stats_spec, shards=2), StatsSummary)
        assert isinstance(rerun.run(full_spec, shards=2), EnsembleResult)
        assert rerun.cache.hits == 2

    def test_kernel_knob_still_shares_stats_entries(self, tmp_path):
        runner = ParallelRunner(workers=1, cache=tmp_path)
        runner.run(make_spec(seed=4, kernel="batched"), shards=2)
        runner.run(make_spec(seed=4, kernel="naive"), shards=2)
        assert runner.cache.hits == 1  # execution knob: same entry


class BombExecutor(SerialExecutor):
    """Serial executor that permanently fails the given task indices.

    It reports ``workers`` slots, so the runner strides each spec's
    shards over that many tasks: task ``i`` of a 4-shard spec is
    shard ``i``.
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


class TestResumeUnderStats:
    def test_resume_recomputes_only_uncheckpointed_shards(self, tmp_path):
        spec = make_spec(trials=40, horizon=50)
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"

        interrupted = ParallelRunner(
            executor=BombExecutor({2}), cache=cache_dir, resume=True
        )
        with pytest.raises(ShardExecutionError):
            interrupted.run(spec, shards=4)

        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        result = resumed.run(spec, shards=4)
        assert_stats_byte_equal(result, reference)
        assert resumed.shards_resumed == 3

    def test_corrupt_stats_checkpoint_recomputes(self, tmp_path):
        spec = make_spec(trials=40, horizon=50)
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"
        interrupted = ParallelRunner(
            executor=BombExecutor({2}), cache=cache_dir, resume=True
        )
        with pytest.raises(ShardExecutionError):
            interrupted.run(spec, shards=4)
        # Corrupt one stats checkpoint: it is quarantined on read and its
        # shard dispatches with the one that never landed.
        key = spec_fingerprint(spec, shards=4)
        path = cache_dir / f"{checkpoint_key(key, 1)}.npz"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))

        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        result = resumed.run(spec, shards=4)
        assert_stats_byte_equal(result, reference)
        assert resumed.shards_resumed == 2

    def test_fully_checkpointed_spec_merges_from_stats_checkpoints(
        self, tmp_path
    ):
        spec = make_spec(trials=40, horizon=50)
        reference = ParallelRunner(workers=1).run(spec, shards=3)
        cache_dir = tmp_path / "cache"
        first = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        first.run(spec, shards=3)
        # The merged artifact landed and its shard checkpoints were
        # finalized away, so the resumed run loads it — the point is
        # the checkpoint/cache cycle stays stats-clean.
        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        result = resumed.run(spec, shards=3)
        assert resumed.cache.hits >= 1
        assert_stats_byte_equal(result, reference)


class TestCLIWiring:
    def build(self, argv):
        from repro.experiments.runner import _build_runtime, build_parser

        return _build_runtime(build_parser().parse_args(argv))

    def test_no_flags_build_a_full_runner_on_usable_cpus(self):
        if hasattr(os, "sched_getaffinity"):
            usable = len(os.sched_getaffinity(0))
        else:
            usable = os.cpu_count() or 1
        runner = self.build(["fig3"])
        assert runner.workers == usable

    def test_rejects_unknown_mode(self):
        from repro.experiments.runner import build_parser

        # The experiment modules decide the artifact shape, so the CLI
        # accepts no reduce mode at all.
        for mode in ("moments", "stats", "full"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["fig3", "--reduce", mode])


# -- merge-layer bug sweep regressions ----------------------------------------


def tiny_result(trials=4, seed=0, terminal=True):
    rng = np.random.default_rng(seed)
    return EnsembleResult(
        protocol_name="synthetic",
        allocation=Allocation.two_miners(0.2),
        checkpoints=(5, 10),
        reward_fractions=rng.random((trials, 2, 2)),
        terminal_stakes=rng.random((trials, 2)) if terminal else None,
    )


class TestTerminalStakeSharesZeroRows:
    """Regression: zero-total rows used to divide 0/0 into NaN."""

    def test_zero_rows_are_masked_with_a_warning(self):
        stakes = np.array([[2.0, 2.0], [0.0, 0.0], [1.0, 3.0]])
        result = EnsembleResult(
            protocol_name="synthetic",
            allocation=Allocation.two_miners(0.5),
            checkpoints=(5,),
            reward_fractions=np.full((3, 1, 2), 0.5),
            terminal_stakes=stakes,
        )
        with pytest.warns(RuntimeWarning, match="zero total terminal stake"):
            shares = result.terminal_stake_shares()
        assert np.all(np.isfinite(shares))
        np.testing.assert_array_equal(shares[1], [0.0, 0.0])
        np.testing.assert_allclose(shares[0], [0.5, 0.5])
        np.testing.assert_allclose(shares[2], [0.25, 0.75])
        # No-holder rows count as non-monopolised, not NaN-poisoned.
        with pytest.warns(RuntimeWarning):
            assert result.monopolisation_probability(margin=0.99) == 0.0

    def test_positive_rows_do_not_warn(self):
        result = tiny_result(seed=1)
        with warnings_as_errors():
            shares = result.terminal_stake_shares()
        assert np.all(np.isfinite(shares))


class warnings_as_errors:
    def __enter__(self):
        import warnings

        self._ctx = warnings.catch_warnings()
        self._ctx.__enter__()
        warnings.simplefilter("error")
        return self

    def __exit__(self, *exc):
        return self._ctx.__exit__(*exc)


class TestAccumulatorFinalization:
    """Regression: result() used to leave the accumulator live."""

    def test_repeated_result_returns_the_same_object(self):
        parts = [tiny_result(seed=s) for s in (1, 2)]
        acc = MergeAccumulator(expected_trials=8)
        for part in parts:
            acc.add(part)
        first = acc.result()
        assert acc.finalized
        assert acc.result() is first

    def test_add_after_result_raises(self):
        acc = MergeAccumulator(expected_trials=4)
        acc.add(tiny_result(seed=1))
        merged = acc.result()
        baseline = merged.reward_fractions.copy()
        with pytest.raises(RuntimeError, match="finalized"):
            acc.add(tiny_result(seed=2))
        # The adopted buffers were not mutated by the refused add.
        np.testing.assert_array_equal(merged.reward_fractions, baseline)

    def test_stats_fold_finalizes_too(self):
        acc = MergeAccumulator(expected_trials=4)
        acc.add(StatsSummary.from_ensemble(tiny_result(seed=1)))
        first = acc.result()
        assert acc.result() is first
        with pytest.raises(RuntimeError, match="finalized"):
            acc.add(StatsSummary.from_ensemble(tiny_result(seed=2)))


class TestAccumulatorRejectsBadParts:
    """Regression: zero-trial parts and kind-mixing used to slip through."""

    def test_zero_trial_part_is_rejected(self):
        empty = tiny_result(trials=0)
        assert empty.trials == 0
        acc = MergeAccumulator(expected_trials=4)
        with pytest.raises(ValueError, match="zero-trial part"):
            acc.add(empty)
        assert acc.count == 0  # nothing was staged

    def test_kind_mixing_raises_both_directions(self):
        full_first = MergeAccumulator(expected_trials=8)
        full_first.add(tiny_result(seed=1))
        with pytest.raises(TypeError, match="cannot mix StatsSummary"):
            full_first.add(StatsSummary.from_ensemble(tiny_result(seed=2)))
        stats_first = MergeAccumulator(expected_trials=8)
        stats_first.add(StatsSummary.from_ensemble(tiny_result(seed=1)))
        with pytest.raises(TypeError, match="cannot mix EnsembleResult"):
            stats_first.add(tiny_result(seed=2))

    def test_stats_overflow_checked_against_expected_trials(self):
        acc = MergeAccumulator(expected_trials=6)
        acc.add(StatsSummary.from_ensemble(tiny_result(trials=4, seed=1)))
        with pytest.raises(ValueError, match="more than"):
            acc.add(StatsSummary.from_ensemble(tiny_result(trials=4, seed=2)))

    def test_stats_incomplete_fold_raises(self):
        acc = MergeAccumulator(expected_trials=8)
        acc.add(StatsSummary.from_ensemble(tiny_result(trials=4, seed=1)))
        with pytest.raises(ValueError, match="accumulated 4 of the expected"):
            acc.result()


class TestAccumulatorProperties:
    """Hypothesis sweep over split shapes and terminal-block mixes."""

    @settings(max_examples=20, deadline=None)
    @given(
        sizes=st.lists(
            st.integers(min_value=1, max_value=12), min_size=1, max_size=5
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_any_split_matches_batch_merge(self, sizes, seed):
        parts = [
            tiny_result(trials=size, seed=seed + index)
            for index, size in enumerate(sizes)
        ]
        expected = EnsembleResult.merge(parts)
        acc = MergeAccumulator(expected_trials=sum(sizes))
        for part in parts:
            acc.add(part)
        merged = acc.result()
        assert (
            merged.reward_fractions.tobytes()
            == expected.reward_fractions.tobytes()
        )
        assert (
            merged.terminal_stakes.tobytes()
            == expected.terminal_stakes.tobytes()
        )

    @settings(max_examples=20, deadline=None)
    @given(
        flags=st.lists(st.booleans(), min_size=2, max_size=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_terminal_disagreement_always_raises(self, flags, seed):
        # The _MergeTemplate path: the first part fixes the terminal
        # contract; any later part that disagrees must raise exactly
        # like the batch merge, never silently drop the stakes.
        parts = [
            tiny_result(trials=3, seed=seed + index, terminal=flag)
            for index, flag in enumerate(flags)
        ]
        acc = MergeAccumulator(expected_trials=3 * len(flags))
        if len(set(flags)) == 1:
            for part in parts:
                acc.add(part)
            assert acc.count == len(parts)
            return
        with pytest.raises(
            ValueError, match="disagree on terminal stake recording"
        ):
            for part in parts:
                acc.add(part)

    @settings(max_examples=15, deadline=None)
    @given(
        sizes=st.lists(
            st.integers(min_value=1, max_value=12), min_size=1, max_size=4
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_stats_fold_matches_batch_stats_merge(self, sizes, seed):
        parts = [
            StatsSummary.from_ensemble(
                tiny_result(trials=size, seed=seed + index)
            )
            for index, size in enumerate(sizes)
        ]
        expected = StatsSummary.merge(parts)
        acc = MergeAccumulator(expected_trials=sum(sizes))
        for part in parts:
            acc.add(part)
        assert_stats_byte_equal(acc.result(), expected)
