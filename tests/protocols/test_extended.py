"""Tests for repro.protocols.extended (the Section 6.4 zoo)."""

import numpy as np
import pytest

from repro.core.miners import Allocation
from repro.protocols.extended import (
    AlgorandPoS,
    EOSDelegatedPoS,
    FilecoinStorage,
    NeoPoS,
    VixifyPoS,
    WavePoS,
)


class TestNeo:
    def test_behaves_like_pow(self, two_miners, rng):
        protocol = NeoPoS(0.01)
        assert protocol.name == "NEO"
        state = protocol.make_state(two_miners, trials=30)
        initial = state.stakes.copy()
        protocol.advance_many(state, 100, rng)
        # Gas rewards never touch staking power.
        np.testing.assert_allclose(state.stakes, initial)
        assert state.rewards.sum() == pytest.approx(30 * 100 * 0.01)


class TestAlgorand:
    def test_deterministic_proportional_income(self, two_miners, rng):
        protocol = AlgorandPoS(0.05)
        state = protocol.make_state(two_miners, trials=10)
        protocol.step(state, rng)
        np.testing.assert_allclose(
            state.rewards[:, 0], 0.05 * 0.2
        )

    def test_zero_zero_fair(self, two_miners, rng):
        # Section 6.4: rewards are certain; lambda = a in every outcome.
        protocol = AlgorandPoS(0.05)
        state = protocol.make_state(two_miners, trials=50)
        protocol.advance_many(state, 200, rng)
        fractions = state.rewards[:, 0] / (200 * 0.05)
        np.testing.assert_allclose(fractions, 0.2, atol=1e-9)

    def test_advance_many_matches_steps(self, two_miners):
        rng = np.random.default_rng(1)
        protocol = AlgorandPoS(0.05)
        fast = protocol.make_state(two_miners, trials=5)
        protocol.advance_many(fast, 40, rng)
        slow = protocol.make_state(two_miners, trials=5)
        for _ in range(40):
            protocol.step(slow, rng)
        np.testing.assert_allclose(fast.stakes, slow.stakes)
        np.testing.assert_allclose(fast.rewards, slow.rewards)


class TestEOS:
    def test_flat_reward_breaks_fairness(self, rng):
        # A small delegate is over-paid by the flat proposer reward.
        allocation = Allocation([0.05, 0.35, 0.6])
        protocol = EOSDelegatedPoS(0.01, 0.1)
        state = protocol.make_state(allocation, trials=10)
        protocol.advance_many(state, 100, rng)
        fractions = state.rewards[:, 0] / (100 * 0.11)
        assert np.all(fractions > 0.05 * 1.2)

    def test_fair_only_when_equal(self, rng):
        allocation = Allocation.uniform(4)
        protocol = EOSDelegatedPoS(0.01, 0.1)
        state = protocol.make_state(allocation, trials=5)
        protocol.advance_many(state, 50, rng)
        fractions = state.rewards / (50 * 0.11)
        np.testing.assert_allclose(fractions, 0.25, atol=1e-9)

    def test_non_compounding_mode(self, two_miners, rng):
        protocol = EOSDelegatedPoS(0.01, 0.1, compound=False)
        state = protocol.make_state(two_miners, trials=5)
        initial = state.stakes.copy()
        protocol.advance_many(state, 20, rng)
        np.testing.assert_allclose(state.stakes, initial)


class TestWaveVixify:
    def test_names(self):
        assert WavePoS(0.01).name == "Wave"
        assert VixifyPoS(0.01).name == "Vixify"

    def test_proportional_first_block(self, rng):
        allocation = Allocation.two_miners(0.2)
        for protocol in (WavePoS(0.01), VixifyPoS(0.01)):
            state = protocol.make_state(allocation, trials=50_000)
            winners = protocol.sample_block_winners(state, rng)
            assert np.mean(winners == 0) == pytest.approx(0.2, abs=0.01)


class TestFilecoin:
    def test_power_mixes_storage_and_stake(self, two_miners):
        protocol = FilecoinStorage(0.01, storage_weight=0.5)
        state = protocol.make_state(two_miners, trials=3)
        np.testing.assert_allclose(
            protocol.mining_power(state)[:, 0], 0.2
        )

    def test_pure_storage_is_static(self, two_miners, rng):
        protocol = FilecoinStorage(0.05, storage_weight=1.0)
        state = protocol.make_state(two_miners, trials=500)
        protocol.advance_many(state, 200, rng)
        # Mining power never moves: identical to PoW proposer law.
        np.testing.assert_allclose(
            protocol.mining_power(state)[:, 0], 0.2, atol=1e-12
        )

    def test_pure_stake_compounds(self, two_miners, rng):
        protocol = FilecoinStorage(0.05, storage_weight=0.0)
        state = protocol.make_state(two_miners, trials=100)
        protocol.advance_many(state, 100, rng)
        power = protocol.mining_power(state)[:, 0]
        # Power drifts with realised rewards: not constant any more.
        assert power.std() > 0.01

    def test_storage_damps_dispersion(self, two_miners):
        # Section 6.4: the storage weight interpolates from ML-PoS
        # (theta = 0) to PoW (theta = 1); each step damps the spread.
        rng = np.random.default_rng(2)
        horizon, trials, reward = 500, 2000, 0.05
        spreads = []
        for theta in (0.0, 0.5, 0.8, 1.0):
            protocol = FilecoinStorage(reward, storage_weight=theta)
            state = protocol.make_state(two_miners, trials)
            protocol.advance_many(state, horizon, rng)
            spreads.append((state.rewards[:, 0] / (horizon * reward)).std())
        assert all(less > more for less, more in zip(spreads, spreads[1:]))

    def test_expectational_fairness(self, rng):
        allocation = Allocation.two_miners(0.2)
        protocol = FilecoinStorage(0.02, storage_weight=0.5)
        state = protocol.make_state(allocation, trials=4000)
        protocol.advance_many(state, 200, rng)
        fraction = state.rewards[:, 0].mean() / (200 * 0.02)
        assert fraction == pytest.approx(0.2, abs=0.01)
