"""Tests for repro.core.stats — sufficient-statistics ensembles.

Pins the exact-or-raise contract of :class:`StatsSummary` against
full :class:`EnsembleResult` trajectories: exact counters reproduce the
unfair/monopolisation/verdict numbers bit-for-bit, moments match to
float tolerance, and every query full mode answers from per-trial
samples (percentile bands, other epsilons or margins) raises with a
pointer at ``reduce='full'``.  Hypothesis drives the merge laws:
counters are associative exactly, splits of one ensemble merge back to
the whole.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.miners import Allocation
from repro.core.results import EnsembleResult, merge_parts
from repro.core.stats import (
    MomentView,
    StatsCollector,
    StatsSummary,
    ensure_reduce_mode,
)
from repro.protocols import MultiLotteryPoS
from repro.sim.engine import simulate
from repro.sim.persistence import load_result, save_result


def full_result(trials=60, horizon=80, seed=11, **kwargs):
    return simulate(
        MultiLotteryPoS(0.01),
        Allocation.two_miners(0.2),
        horizon,
        trials=trials,
        seed=seed,
        **kwargs,
    )


def synthetic_result(rng, trials, checkpoints=(10, 20, 30), miners=2):
    """A random EnsembleResult with fractions in [0, 1]."""
    fractions = rng.random((trials, len(checkpoints), miners))
    stakes = rng.random((trials, miners)) * 5.0
    return EnsembleResult(
        protocol_name="synthetic",
        allocation=Allocation.uniform(miners),
        checkpoints=checkpoints,
        reward_fractions=fractions,
        terminal_stakes=stakes,
    )


class TestReduceMode:
    def test_accepts_both_modes(self):
        assert ensure_reduce_mode("full") == "full"
        assert ensure_reduce_mode("stats") == "stats"

    @pytest.mark.parametrize("bad", ["Full", "STATS", "moments", "", None])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(ValueError, match="reduce must be one of"):
            ensure_reduce_mode(bad)


class TestExactnessContract:
    """stats-vs-full on the consumers the paper figures use."""

    def test_unfair_series_bit_identical(self):
        full = full_result()
        stats = StatsSummary.from_ensemble(full)
        for miner in range(2):
            got = stats.unfair_probabilities(miner, epsilon=0.1)
            expected = full.unfair_probabilities(miner, epsilon=0.1)
            assert got.tobytes() == expected.tobytes()

    def test_mean_matches_to_float_tolerance(self):
        full = full_result()
        stats = StatsSummary.from_ensemble(full)
        np.testing.assert_allclose(
            stats.mean[:, 0], full.summary().mean, rtol=1e-12
        )
        assert stats.final_fractions().mean() == pytest.approx(
            float(np.mean(full.final_fractions())), rel=1e-12
        )

    def test_percentile_envelope_refuses(self):
        stats = StatsSummary.from_ensemble(full_result(trials=200))
        with pytest.raises(TypeError, match="reduce='full'"):
            stats.summary()
        with pytest.raises(TypeError, match="reduce='full'"):
            stats.summary(1, percentiles=(10.0, 90.0))

    def test_robust_verdict_bit_identical(self):
        full = full_result()
        stats = StatsSummary.from_ensemble(full)
        got = stats.robust_verdict()
        expected = full.robust_verdict()
        assert got.unfair_probability == expected.unfair_probability
        assert got.fair_probability == expected.fair_probability
        assert got.is_fair == expected.is_fair
        assert got.sample_size == expected.sample_size

    def test_expectational_verdict_matches(self):
        full = full_result()
        stats = StatsSummary.from_ensemble(full)
        got = stats.expectational_verdict()
        expected = full.expectational_verdict()
        assert got.sample_mean == pytest.approx(expected.sample_mean, rel=1e-12)
        assert got.standard_error == pytest.approx(
            expected.standard_error, rel=1e-9
        )
        assert got.is_fair == expected.is_fair

    def test_convergence_time_exact(self):
        full = full_result()
        stats = StatsSummary.from_ensemble(full)
        got = stats.convergence_time()
        expected = full.convergence_time()
        assert got == expected or (math.isnan(got) and math.isnan(expected))

    def test_monopolisation_exact_at_recorded_margin(self):
        full = full_result()
        stats = StatsSummary.from_ensemble(full)
        assert stats.monopolisation_probability(
            margin=0.99
        ) == full.monopolisation_probability(margin=0.99)

    def test_off_margin_query_refuses(self):
        rng = np.random.default_rng(5)
        stats = StatsSummary.from_ensemble(synthetic_result(rng, trials=400))
        for margin in (0.6, 0.75, 0.9):
            with pytest.raises(ValueError, match="reduce='full'"):
                stats.monopolisation_probability(margin=margin)

    def test_off_epsilon_query_refuses(self):
        rng = np.random.default_rng(6)
        stats = StatsSummary.from_ensemble(synthetic_result(rng, trials=400))
        with pytest.raises(ValueError, match="reduce='full'"):
            stats.unfair_probabilities(0, epsilon=0.25)

    def test_win_probabilities_match_strict_argmax(self):
        rng = np.random.default_rng(7)
        full = synthetic_result(rng, trials=150)
        stats = StatsSummary.from_ensemble(full)
        shares = full.terminal_stake_shares()
        strict = shares == shares.max(axis=1, keepdims=True)
        unique = strict.sum(axis=1) == 1
        expected = (strict & unique[:, None]).mean(axis=0)
        np.testing.assert_array_equal(stats.win_probabilities(), expected)

    def test_to_dict_same_keys_as_ensemble(self):
        full = full_result()
        stats = StatsSummary.from_ensemble(full)
        # Everything but the percentile bands, which stats mode refuses.
        assert set(stats.to_dict()) == set(full.to_dict()) - {"p5", "p95"}
        assert stats.to_dict()["unfair_probability"] == (
            full.to_dict()["unfair_probability"]
        )


class TestTrajectoryAccessorsRefuse:
    def test_per_trial_accessors_point_at_full_mode(self):
        stats = StatsSummary.from_ensemble(full_result())
        with pytest.raises(TypeError, match="reduce='full'"):
            stats.fractions_of(0)
        with pytest.raises(TypeError, match="reduce='full'"):
            stats.terminal_stake_shares()

    def test_moment_view_refuses_element_access(self):
        view = MomentView(count=10, mean=0.2, m2=0.5)
        assert len(view) == 10
        assert view.size == 10
        assert view.mean() == 0.2
        assert view.var() == pytest.approx(0.05)
        assert view.var(ddof=1) == pytest.approx(0.5 / 9)
        assert view.std() == pytest.approx(math.sqrt(0.05))
        with pytest.raises(TypeError, match="reduce='full'"):
            iter(view)
        with pytest.raises(TypeError, match="reduce='full'"):
            view[0]
        with pytest.raises(TypeError, match="reduce='full'"):
            np.asarray(view)

    def test_moment_view_degenerate_ddof(self):
        view = MomentView(count=1, mean=0.5, m2=0.0)
        assert view.var(ddof=1) == 0.0


class TestMergeLaws:
    def split(self, full, sizes):
        parts = []
        offset = 0
        for size in sizes:
            end = offset + size
            part = EnsembleResult(
                protocol_name=full.protocol_name,
                allocation=full.allocation,
                checkpoints=full.checkpoints,
                reward_fractions=full.reward_fractions[offset:end],
                terminal_stakes=(
                    None
                    if full.terminal_stakes is None
                    else full.terminal_stakes[offset:end]
                ),
                round_unit=full.round_unit,
            )
            parts.append(StatsSummary.from_ensemble(part))
            offset = end
        return parts

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        cuts=st.lists(
            st.integers(min_value=1, max_value=30), min_size=1, max_size=5
        ),
    )
    def test_split_and_merge_counters_equal_the_whole(self, seed, cuts):
        rng = np.random.default_rng(seed)
        full = synthetic_result(rng, trials=sum(cuts))
        whole = StatsSummary.from_ensemble(full)
        merged = StatsSummary.merge(self.split(full, cuts))
        assert merged.trials == whole.trials
        np.testing.assert_array_equal(merged.unfair, whole.unfair)
        np.testing.assert_array_equal(merged.wins, whole.wins)
        assert merged.monopolised == whole.monopolised
        assert merged.zero_stake_trials == whole.zero_stake_trials
        np.testing.assert_allclose(merged.mean, whole.mean, rtol=1e-9)
        np.testing.assert_allclose(
            merged.m2, whole.m2, rtol=1e-9, atol=1e-12
        )

    def test_merge_is_a_left_fold(self):
        rng = np.random.default_rng(3)
        full = synthetic_result(rng, trials=30)
        parts = self.split(full, [10, 10, 10])
        merged = StatsSummary.merge(parts)
        folded = parts[0]._merged_with(parts[1])._merged_with(parts[2])
        assert merged.mean.tobytes() == folded.mean.tobytes()
        assert merged.m2.tobytes() == folded.m2.tobytes()

    def test_merge_parts_dispatches_on_kind(self):
        rng = np.random.default_rng(4)
        full = synthetic_result(rng, trials=20)
        stats_parts = self.split(full, [10, 10])
        merged = merge_parts(stats_parts)
        assert isinstance(merged, StatsSummary)
        assert merged.trials == 20
        with pytest.raises(TypeError, match="mixed part kinds"):
            merge_parts([full, stats_parts[0]])
        with pytest.raises(ValueError, match="empty sequence"):
            merge_parts([])

    def test_rejects_mismatched_parts(self):
        rng = np.random.default_rng(8)
        a = StatsSummary.from_ensemble(synthetic_result(rng, trials=10))
        b = StatsSummary.from_ensemble(
            synthetic_result(rng, trials=10, checkpoints=(5, 15, 25))
        )
        with pytest.raises(ValueError, match="different checkpoints"):
            StatsSummary.merge([a, b])
        c = StatsSummary.from_ensemble(
            synthetic_result(rng, trials=10), epsilon=0.2
        )
        with pytest.raises(ValueError, match="different epsilon/margin"):
            StatsSummary.merge([a, c])

    def test_rejects_terminal_disagreement(self):
        full = full_result(trials=20)
        bare = full_result(trials=20, record_terminal_stakes=False)
        with pytest.raises(ValueError, match="terminal stake recording"):
            StatsSummary.merge(
                [
                    StatsSummary.from_ensemble(full),
                    StatsSummary.from_ensemble(bare),
                ]
            )

    def test_empty_merge_raises(self):
        with pytest.raises(ValueError, match="empty sequence"):
            StatsSummary.merge([])


class TestApproximateQueriesRefuse:
    """Exact or raise: no query is answered from anything but counters."""

    @settings(max_examples=25, deadline=None)
    @given(
        epsilon=st.floats(min_value=0.0, max_value=1.0).filter(
            lambda value: value != 0.1
        ),
        margin=st.floats(
            min_value=0.5, max_value=1.0, exclude_min=True
        ).filter(lambda value: value != 0.99),
    )
    def test_any_unrecorded_parameter_refuses(self, epsilon, margin):
        stats = StatsSummary.from_ensemble(full_result(trials=20))
        with pytest.raises(ValueError, match="reduce='full'"):
            stats.unfair_probabilities(0, epsilon=epsilon)
        with pytest.raises(ValueError, match="reduce='full'"):
            stats.monopolisation_probability(margin=margin)

    def test_off_epsilon_verdicts_refuse(self):
        stats = StatsSummary.from_ensemble(full_result(trials=20))
        with pytest.raises(ValueError, match="recorded epsilon=0.1"):
            stats.robust_verdict(epsilon=0.2)
        with pytest.raises(ValueError, match="reduce='full'"):
            stats.convergence_time(epsilon=0.05)

    def test_margin_one_refuses(self):
        # Full monopoly, the top edge of the share domain, is no
        # exception: only the recorded margin is counted.
        stats = StatsSummary.from_ensemble(full_result(trials=20))
        with pytest.raises(ValueError, match="recorded margin=0.99"):
            stats.monopolisation_probability(margin=1.0)


class TestZeroStakeAndWins:
    def zero_row_result(self):
        fractions = np.full((4, 2, 2), 0.5)
        stakes = np.array([[3.0, 1.0], [0.0, 0.0], [2.0, 2.0], [0.0, 5.0]])
        return EnsembleResult(
            protocol_name="synthetic",
            allocation=Allocation.two_miners(0.5),
            checkpoints=(5, 10),
            reward_fractions=fractions,
            terminal_stakes=stakes,
        )

    def test_zero_rows_warn_count_and_never_monopolise(self):
        with pytest.warns(RuntimeWarning, match="zero total terminal stake"):
            stats = StatsSummary.from_ensemble(self.zero_row_result())
        assert stats.zero_stake_trials == 1
        # Rows: winner A, no holder, tie, winner B ⇒ wins = (1, 1)/4.
        np.testing.assert_array_equal(
            stats.win_probabilities(), np.array([0.25, 0.25])
        )
        # The zero row and the tie row are non-monopolised; only the
        # (0, 5) row has max share 1.0 ≥ 0.99... and (3, 1) has 0.75.
        assert stats.monopolisation_probability(margin=0.99) == 0.25

    def test_terminal_queries_raise_without_terminal_block(self):
        stats = StatsSummary.from_ensemble(
            full_result(trials=10, record_terminal_stakes=False)
        )
        assert not stats.has_terminal
        with pytest.raises(ValueError, match="did not record terminal"):
            stats.monopolisation_probability()
        with pytest.raises(ValueError, match="did not record terminal"):
            stats.win_probabilities()


class TestCollectorValidation:
    def collector(self, checkpoints=(5, 10)):
        return StatsCollector(
            protocol_name="synthetic",
            allocation=Allocation.two_miners(0.2),
            checkpoints=checkpoints,
        )

    def test_build_without_observations_raises(self):
        with pytest.raises(ValueError, match="no observations"):
            self.collector().build()

    def test_inconsistent_trial_counts_raise(self):
        collector = self.collector()
        collector.observe(0, np.full((4, 2), 0.5))
        with pytest.raises(ValueError, match="covers 3 trials"):
            collector.observe(1, np.full((3, 2), 0.5))

    def test_build_checks_expected_trials(self):
        collector = self.collector()
        collector.observe(0, np.full((4, 2), 0.5))
        collector.observe(1, np.full((4, 2), 0.5))
        with pytest.raises(ValueError, match="saw 4 trials but 5"):
            collector.build(5)

    def test_rejects_out_of_range_fractions(self):
        with pytest.raises(ValueError, match="lie in"):
            self.collector().observe(0, np.full((4, 2), 1.5))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="shape"):
            self.collector().observe(0, np.full((4, 3), 0.5))
        collector = self.collector()
        collector.observe(0, np.full((4, 2), 0.5))
        with pytest.raises(ValueError, match="shape"):
            collector.observe_terminal(np.full((4, 3), 1.0))


class TestSummaryValidation:
    def test_rejects_bad_construction(self):
        stats = StatsSummary.from_ensemble(full_result(trials=10))
        kwargs = dict(
            protocol_name=stats.protocol_name,
            allocation=stats.allocation,
            checkpoints=stats.checkpoints,
            round_unit=stats.round_unit,
            epsilon=stats.epsilon,
            margin=stats.margin,
            mean=stats.mean,
            m2=stats.m2,
            unfair=stats.unfair,
        )
        with pytest.raises(ValueError, match="trials must be positive"):
            StatsSummary(trials=0, **kwargs)
        with pytest.raises(ValueError, match="margin"):
            StatsSummary(trials=10, **{**kwargs, "margin": 0.4})
        with pytest.raises(ValueError, match="supplied together"):
            StatsSummary(
                trials=10, terminal_mean=stats.terminal_mean, **kwargs
            )
        with pytest.raises(ValueError, match="unfair must have shape"):
            StatsSummary(
                trials=10, **{**kwargs, "unfair": stats.unfair[:-1]}
            )

    def test_miner_index_checked(self):
        stats = StatsSummary.from_ensemble(full_result(trials=10))
        with pytest.raises(IndexError, match="out of range"):
            stats.final_fractions(5)
        with pytest.raises(IndexError, match="out of range"):
            stats.unfair_probabilities(5)

    def test_repr_mentions_scale(self):
        stats = StatsSummary.from_ensemble(full_result(trials=10))
        assert "trials=10" in repr(stats)
        assert "miners=2" in repr(stats)


class TestPersistenceRoundTrip:
    def test_stats_round_trip_bit_identical(self, tmp_path):
        stats = StatsSummary.from_ensemble(full_result(trials=30))
        path = save_result(stats, tmp_path / "stats")
        loaded = load_result(path)
        assert isinstance(loaded, StatsSummary)
        assert loaded.trials == stats.trials
        assert loaded.epsilon == stats.epsilon
        assert loaded.margin == stats.margin
        assert loaded.monopolised == stats.monopolised
        assert loaded.zero_stake_trials == stats.zero_stake_trials
        for key, array in stats.state_arrays().items():
            assert (
                loaded.state_arrays()[key].tobytes() == array.tobytes()
            ), key
        assert loaded.checkpoints.tobytes() == stats.checkpoints.tobytes()
        assert loaded.allocation == stats.allocation

    def test_stats_without_terminal_round_trips(self, tmp_path):
        stats = StatsSummary.from_ensemble(
            full_result(trials=10, record_terminal_stakes=False)
        )
        loaded = load_result(save_result(stats, tmp_path / "bare"))
        assert isinstance(loaded, StatsSummary)
        assert not loaded.has_terminal

    def test_full_results_still_load_as_ensembles(self, tmp_path):
        full = full_result(trials=10)
        loaded = load_result(save_result(full, tmp_path / "full"))
        assert isinstance(loaded, EnsembleResult)
        assert (
            loaded.reward_fractions.tobytes()
            == full.reward_fractions.tobytes()
        )

    def test_loaded_summary_answers_queries_identically(self, tmp_path):
        stats = StatsSummary.from_ensemble(full_result(trials=30))
        loaded = load_result(save_result(stats, tmp_path / "q"))
        assert (
            loaded.unfair_probabilities().tobytes()
            == stats.unfair_probabilities().tobytes()
        )
        assert loaded.monopolisation_probability() == (
            stats.monopolisation_probability()
        )


class TestEngineStatsPath:
    def test_engine_emits_summary_matching_reduction(self):
        # The streaming collector inside the engine must agree with
        # reducing the full cube after the fact — same seed, same
        # trajectory, two accumulation orders.
        full = simulate(
            MultiLotteryPoS(0.01),
            Allocation.two_miners(0.2),
            60,
            trials=40,
            seed=19,
        )
        stats = simulate(
            MultiLotteryPoS(0.01),
            Allocation.two_miners(0.2),
            60,
            trials=40,
            seed=19,
            reduce="stats",
        )
        assert isinstance(stats, StatsSummary)
        reduced = StatsSummary.from_ensemble(full)
        np.testing.assert_array_equal(stats.unfair, reduced.unfair)
        assert stats.mean.tobytes() == reduced.mean.tobytes()
        assert stats.m2.tobytes() == reduced.m2.tobytes()
        assert stats.monopolised == reduced.monopolised

    def test_engine_respects_record_terminal_stakes(self):
        stats = simulate(
            MultiLotteryPoS(0.01),
            Allocation.two_miners(0.2),
            30,
            trials=10,
            seed=3,
            reduce="stats",
            record_terminal_stakes=False,
        )
        assert not stats.has_terminal

    def test_engine_rejects_bad_reduce(self):
        with pytest.raises(ValueError, match="reduce must be one of"):
            simulate(
                MultiLotteryPoS(0.01),
                Allocation.two_miners(0.2),
                30,
                trials=10,
                seed=3,
                reduce="bogus",
            )
