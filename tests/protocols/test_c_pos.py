"""Tests for repro.protocols.c_pos."""

import numpy as np
import pytest

from repro.core.miners import Allocation
from repro.protocols.c_pos import CompoundPoS
from repro.protocols.ml_pos import MultiLotteryPoS


class TestConstruction:
    def test_reward_per_round(self):
        protocol = CompoundPoS(0.01, 0.1, 32)
        assert protocol.reward_per_round == pytest.approx(0.11)
        assert protocol.round_unit == "epoch"

    def test_vote_participation_scales_inflation(self):
        protocol = CompoundPoS(0.01, 0.1, 32, vote_participation=0.5)
        assert protocol.inflation_reward == pytest.approx(0.05)
        assert protocol.reward_per_round == pytest.approx(0.06)

    def test_rejects_bad_participation(self):
        with pytest.raises(ValueError):
            CompoundPoS(0.01, 0.1, 32, vote_participation=0.0)

    def test_zero_inflation_allowed(self):
        protocol = CompoundPoS(0.01, 0.0, 1)
        assert protocol.reward_per_round == pytest.approx(0.01)

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            CompoundPoS(0.01, 0.1, 0)

    def test_rejects_more_than_a_thousand_shards(self):
        # At 1,100 shards q'**P underflows and every inversion draw
        # would be P; 1,000 keeps it a normal double.
        assert CompoundPoS(0.01, 0.1, 1000).shards == 1000
        with pytest.raises(ValueError, match="at most 1000"):
            CompoundPoS(0.01, 0.1, 1001)


class TestDynamics:
    def test_stake_conservation(self, two_miners, rng):
        protocol = CompoundPoS(0.01, 0.1, 32)
        state = protocol.make_state(two_miners, trials=40)
        protocol.advance_many(state, 50, rng)
        np.testing.assert_allclose(
            state.stakes.sum(axis=1), 1.0 + 50 * 0.11
        )

    def test_everyone_earns_inflation(self, two_miners, rng):
        protocol = CompoundPoS(0.01, 0.1, 32)
        state = protocol.make_state(two_miners, trials=20)
        protocol.step(state, rng)
        # Every miner earns at least her inflation share.
        assert np.all(state.rewards > 0)

    def test_expectational_fairness(self, rng):
        # Theorem 3.5.
        allocation = Allocation.two_miners(0.2)
        protocol = CompoundPoS(0.01, 0.1, 32)
        state = protocol.make_state(allocation, trials=3000)
        protocol.advance_many(state, 100, rng)
        fraction = state.rewards[:, 0].mean() / (100 * 0.11)
        assert fraction == pytest.approx(0.2, abs=0.005)

    def test_narrower_than_ml_pos(self, two_miners):
        # The Figure 2(d) vs 2(b) comparison: same total reward, far
        # lower dispersion.
        rng = np.random.default_rng(9)
        horizon, trials = 300, 2000
        c_pos = CompoundPoS(0.01, 0.1, 32)
        state_c = c_pos.make_state(two_miners, trials)
        c_pos.advance_many(state_c, horizon, rng)
        spread_c = (state_c.rewards[:, 0] / (horizon * 0.11)).std()
        ml = MultiLotteryPoS(0.11)
        state_m = ml.make_state(two_miners, trials)
        ml.advance_many(state_m, horizon, rng)
        spread_m = (state_m.rewards[:, 0] / (horizon * 0.11)).std()
        assert spread_c < spread_m / 3

    def test_expected_epoch_income(self, two_miners):
        protocol = CompoundPoS(0.01, 0.1, 32)
        income = protocol.expected_epoch_income(np.array([0.2, 0.8]))
        np.testing.assert_allclose(income, [0.2 * 0.11, 0.8 * 0.11])

    def test_shard_wins_are_multinomial(self, two_miners):
        # Per epoch, the focal miner's proposer count has mean P*a and
        # variance P*a*(1-a).
        rng = np.random.default_rng(31)
        protocol = CompoundPoS(1.0, 0.0, 32)
        state = protocol.make_state(two_miners, trials=20_000)
        protocol.step(state, rng)
        wins = state.rewards[:, 0] * 32  # reward w/P per shard, w=1
        assert wins.mean() == pytest.approx(32 * 0.2, rel=0.02)
        assert wins.var() == pytest.approx(32 * 0.2 * 0.8, rel=0.05)

    def test_degenerates_to_ml_pos_statistically(self, two_miners):
        # v=0, P=1: one proposer per epoch proportional to stakes —
        # exactly the ML-PoS law. Compare dispersion of outcomes.
        rng = np.random.default_rng(13)
        horizon, trials = 400, 3000
        degenerate = CompoundPoS(0.01, 0.0, 1)
        state_d = degenerate.make_state(two_miners, trials)
        degenerate.advance_many(state_d, horizon, rng)
        fractions_d = state_d.rewards[:, 0] / (horizon * 0.01)
        ml = MultiLotteryPoS(0.01)
        state_m = ml.make_state(two_miners, trials)
        ml.advance_many(state_m, horizon, rng)
        fractions_m = state_m.rewards[:, 0] / (horizon * 0.01)
        assert fractions_d.mean() == pytest.approx(fractions_m.mean(), abs=0.01)
        assert fractions_d.std() == pytest.approx(fractions_m.std(), rel=0.15)
