"""Tests for repro.core.results."""

import math

import numpy as np
import pytest

from repro.core.miners import Allocation
from repro.core.results import EnsembleResult, MergeAccumulator, SeriesSummary


def make_result(trials=50, checkpoints=(10, 20, 30), miners=2, value=0.2):
    """A synthetic result with constant fractions."""
    allocation = (
        Allocation.two_miners(0.2)
        if miners == 2
        else Allocation.focal_vs_equal(0.2, miners)
    )
    fractions = np.zeros((trials, len(checkpoints), miners))
    fractions[:, :, 0] = value
    fractions[:, :, 1] = 1.0 - value if miners == 2 else (1 - value) / (miners - 1)
    if miners > 2:
        fractions[:, :, 1:] = (1 - value) / (miners - 1)
    terminal = np.tile(allocation.shares, (trials, 1))
    return EnsembleResult(
        "test", allocation, checkpoints, fractions, terminal
    )


class TestConstruction:
    def test_basic_properties(self):
        result = make_result()
        assert result.trials == 50
        assert result.miners == 2
        assert result.horizon == 30
        assert "test" in repr(result)

    def test_rejects_bad_shape(self):
        alloc = Allocation.two_miners(0.2)
        with pytest.raises(ValueError, match="shape"):
            EnsembleResult("x", alloc, [10], np.zeros((5, 1)))

    def test_rejects_checkpoint_mismatch(self):
        alloc = Allocation.two_miners(0.2)
        with pytest.raises(ValueError, match="checkpoints"):
            EnsembleResult("x", alloc, [10, 20], np.zeros((5, 3, 2)))

    def test_rejects_miner_mismatch(self):
        alloc = Allocation.two_miners(0.2)
        with pytest.raises(ValueError, match="miners"):
            EnsembleResult("x", alloc, [10], np.zeros((5, 1, 3)))

    def test_rejects_decreasing_checkpoints(self):
        alloc = Allocation.two_miners(0.2)
        with pytest.raises(ValueError, match="increasing"):
            EnsembleResult("x", alloc, [20, 10], np.zeros((5, 2, 2)))

    def test_rejects_fraction_above_one(self):
        alloc = Allocation.two_miners(0.2)
        fractions = np.full((5, 1, 2), 1.2)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            EnsembleResult("x", alloc, [10], fractions)

    def test_rejects_bad_terminal_shape(self):
        alloc = Allocation.two_miners(0.2)
        with pytest.raises(ValueError, match="terminal_stakes"):
            EnsembleResult(
                "x", alloc, [10], np.zeros((5, 1, 2)), np.zeros((4, 2))
            )

    def test_rejects_bad_round_unit(self):
        alloc = Allocation.two_miners(0.2)
        with pytest.raises(ValueError, match="round_unit"):
            EnsembleResult(
                "x", alloc, [10], np.zeros((5, 1, 2)), round_unit="day"
            )


class TestAccessors:
    def test_fractions_of(self):
        result = make_result()
        paths = result.fractions_of(0)
        assert paths.shape == (50, 3)
        np.testing.assert_allclose(paths, 0.2)

    def test_fractions_of_out_of_range(self):
        with pytest.raises(IndexError):
            make_result().fractions_of(5)

    def test_final_fractions(self):
        final = make_result().final_fractions()
        assert final.shape == (50,)

    def test_terminal_stake_shares_normalised(self):
        shares = make_result().terminal_stake_shares()
        np.testing.assert_allclose(shares.sum(axis=1), 1.0)

    def test_terminal_missing_raises(self):
        alloc = Allocation.two_miners(0.2)
        result = EnsembleResult("x", alloc, [10], np.full((5, 1, 2), 0.2))
        with pytest.raises(ValueError, match="terminal"):
            result.terminal_stake_shares()


class TestAnalysis:
    def test_summary_series(self):
        summary = make_result().summary()
        assert isinstance(summary, SeriesSummary)
        np.testing.assert_allclose(summary.mean, 0.2)
        np.testing.assert_allclose(summary.lower, 0.2)
        np.testing.assert_allclose(summary.unfair_probability, 0.0)

    def test_summary_rejects_bad_percentiles(self):
        with pytest.raises(ValueError):
            make_result().summary(percentiles=(95.0, 5.0))

    def test_expectational_verdict_constant(self):
        verdict = make_result().expectational_verdict()
        assert verdict.is_fair

    def test_robust_verdict_constant(self):
        verdict = make_result().robust_verdict()
        assert verdict.is_fair
        assert verdict.unfair_probability == 0.0

    def test_convergence_time_immediate(self):
        assert make_result().convergence_time() == 10

    def test_convergence_never(self):
        result = make_result(value=0.5)  # far outside fair area of 0.2
        assert math.isinf(result.convergence_time())

    def test_to_dict_round_trip(self):
        payload = make_result().to_dict()
        assert payload["protocol"] == "test"
        assert payload["checkpoints"] == [10, 20, 30]
        assert len(payload["mean"]) == 3


class TestSeriesSummaryValidation:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            SeriesSummary(
                checkpoints=np.array([1, 2]),
                mean=np.array([0.2]),
                lower=np.array([0.1, 0.1]),
                upper=np.array([0.3, 0.3]),
                unfair_probability=np.array([0.0, 0.0]),
            )


def varied_result(seed, trials, terminal=True):
    """A result with non-constant fractions, for byte-level comparisons."""
    rng = np.random.default_rng(seed)
    allocation = Allocation.two_miners(0.2)
    fractions = rng.random((trials, 3, 2))
    stakes = rng.random((trials, 2)) + 0.05 if terminal else None
    return EnsembleResult(
        "test", allocation, (10, 20, 30), fractions, stakes
    )


class TestMergeAccumulator:
    def parts(self, terminal=True):
        return [varied_result(seed, trials, terminal) for seed, trials in
                ((1, 3), (2, 5), (3, 2))]

    @pytest.mark.parametrize("terminal", [True, False])
    def test_matches_batch_merge_byte_for_byte(self, terminal):
        parts = self.parts(terminal)
        accumulator = MergeAccumulator(
            expected_trials=sum(p.trials for p in parts)
        )
        for part in parts:
            accumulator.add(part)
        assert accumulator.count == 3
        assert accumulator.trials == 10
        assert accumulator.complete
        folded = accumulator.result()
        reference = EnsembleResult.merge(parts)
        assert folded.reward_fractions.tobytes() == (
            reference.reward_fractions.tobytes()
        )
        if terminal:
            assert folded.terminal_stakes.tobytes() == (
                reference.terminal_stakes.tobytes()
            )
        else:
            assert folded.terminal_stakes is None
        assert folded.checkpoints.tobytes() == reference.checkpoints.tobytes()
        assert folded.protocol_name == reference.protocol_name
        assert folded.allocation == reference.allocation

    def test_empty_result_raises_like_merge(self):
        with pytest.raises(ValueError, match="empty"):
            MergeAccumulator(expected_trials=4).result()

    def test_mismatched_parts_raise_like_merge(self):
        accumulator = MergeAccumulator(expected_trials=8)
        accumulator.add(varied_result(1, 3))
        other_allocation = Allocation.two_miners(0.3)
        mismatched = EnsembleResult(
            "test", other_allocation, (10, 20, 30),
            np.full((2, 3, 2), 0.5), np.full((2, 2), 0.5),
        )
        with pytest.raises(ValueError, match="allocations"):
            accumulator.add(mismatched)

    def test_terminal_stake_disagreement_raises(self):
        accumulator = MergeAccumulator(expected_trials=5)
        accumulator.add(varied_result(1, 3))
        without_terminal = EnsembleResult(
            "test", Allocation.two_miners(0.2), (10, 20, 30),
            np.full((2, 3, 2), 0.5),
        )
        with pytest.raises(ValueError, match="terminal stake"):
            accumulator.add(without_terminal)

    def test_overflowing_expected_trials_raises(self):
        accumulator = MergeAccumulator(expected_trials=4)
        accumulator.add(varied_result(1, 3))
        with pytest.raises(ValueError, match="more than"):
            accumulator.add(varied_result(2, 2))

    def test_incomplete_fold_raises(self):
        accumulator = MergeAccumulator(expected_trials=9)
        accumulator.add(varied_result(1, 3))
        assert not accumulator.complete
        with pytest.raises(ValueError, match="3 of the expected 9"):
            accumulator.result()

    def test_rejects_non_result(self):
        with pytest.raises(TypeError, match="EnsembleResult"):
            MergeAccumulator(expected_trials=4).add("shard")

    def test_rejects_non_positive_expected_trials(self):
        with pytest.raises(ValueError, match="expected_trials"):
            MergeAccumulator(expected_trials=0)

    def test_expected_trials_is_required(self):
        with pytest.raises(TypeError):
            MergeAccumulator()
        with pytest.raises(TypeError, match="expected_trials"):
            MergeAccumulator(expected_trials=None)

    def test_repr_shows_progress(self):
        accumulator = MergeAccumulator(expected_trials=8)
        accumulator.add(varied_result(1, 3))
        assert "3/8" in repr(accumulator)

    def test_preallocated_fold_releases_folded_parts(self):
        # The memory bound depends on parts being collectable once
        # copied in — including the first, whose metadata (not arrays)
        # seeds the template.
        import gc
        import weakref

        accumulator = MergeAccumulator(expected_trials=8)
        refs = []
        for seed, trials in ((1, 3), (2, 5)):
            part = varied_result(seed, trials)
            refs.append(weakref.ref(part))
            accumulator.add(part)
            del part
        gc.collect()
        assert all(ref() is None for ref in refs), (
            "accumulator retained folded shard results"
        )
        assert accumulator.result().trials == 8
