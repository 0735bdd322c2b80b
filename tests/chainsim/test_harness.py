"""Tests for repro.chainsim.harness (the system-experiment runner)."""

import numpy as np
import pytest

from repro.chainsim.harness import SYSTEM_PROTOCOLS, SystemExperiment
from repro.core.miners import Allocation
from repro.core.results import EnsembleResult


class TestConstruction:
    def test_rejects_unknown_protocol(self, two_miners):
        with pytest.raises(ValueError, match="unknown protocol"):
            SystemExperiment("dpos", two_miners)

    def test_all_protocols_construct(self, two_miners):
        for protocol in SYSTEM_PROTOCOLS:
            SystemExperiment(protocol, two_miners)

    def test_repr(self, two_miners):
        assert "ml-pos" in repr(SystemExperiment("ml-pos", two_miners))


class TestRuns:
    def test_returns_ensemble_result(self, two_miners):
        experiment = SystemExperiment("sl-pos", two_miners)
        result = experiment.run(rounds=50, repeats=4, seed=1)
        assert isinstance(result, EnsembleResult)
        assert result.trials == 4
        assert result.horizon == 50
        assert result.protocol_name == "system:sl-pos"

    def test_fractions_sum_to_one(self, two_miners):
        experiment = SystemExperiment("fsl-pos", two_miners)
        result = experiment.run(rounds=40, repeats=3, seed=2)
        np.testing.assert_allclose(
            result.reward_fractions.sum(axis=2), 1.0
        )

    def test_reproducible(self, two_miners):
        e1 = SystemExperiment("ml-pos", two_miners).run(30, 3, seed=5)
        e2 = SystemExperiment("ml-pos", two_miners).run(30, 3, seed=5)
        np.testing.assert_array_equal(e1.reward_fractions, e2.reward_fractions)

    def test_different_seeds_differ(self, two_miners):
        e1 = SystemExperiment("ml-pos", two_miners).run(30, 3, seed=5)
        e2 = SystemExperiment("ml-pos", two_miners).run(30, 3, seed=6)
        assert not np.array_equal(e1.reward_fractions, e2.reward_fractions)

    def test_custom_checkpoints(self, two_miners):
        experiment = SystemExperiment("sl-pos", two_miners)
        result = experiment.run(rounds=60, repeats=2, checkpoints=[20, 60], seed=1)
        assert result.checkpoints.tolist() == [20, 60]

    def test_cpos_epoch_unit(self, two_miners):
        experiment = SystemExperiment("c-pos", two_miners, shards=4)
        result = experiment.run(rounds=10, repeats=2, seed=1)
        assert result.round_unit == "epoch"

    def test_pow_runs(self, two_miners):
        experiment = SystemExperiment("pow", two_miners, hash_rate_scale=10)
        result = experiment.run(rounds=30, repeats=2, seed=3)
        assert result.horizon == 30


class TestStatisticalFidelity:
    def test_fsl_proportional(self, two_miners):
        # Node-level FSL-PoS must track E[lambda_A] = 0.2.
        experiment = SystemExperiment("fsl-pos", two_miners)
        result = experiment.run(rounds=200, repeats=40, seed=11)
        assert result.final_fractions().mean() == pytest.approx(0.2, abs=0.04)

    def test_sl_biased_down(self, two_miners):
        # Biased below a from the first block, and decaying thereafter.
        experiment = SystemExperiment("sl-pos", two_miners)
        result = experiment.run(
            rounds=500, repeats=40, checkpoints=[200, 500], seed=11
        )
        at_200, at_500 = result.summary().mean
        assert at_200 < 0.16
        assert at_500 < 0.14

    def test_cpos_tight_around_share(self, two_miners):
        experiment = SystemExperiment("c-pos", two_miners, shards=32)
        result = experiment.run(rounds=50, repeats=20, seed=11)
        final = result.final_fractions()
        assert final.mean() == pytest.approx(0.2, abs=0.02)
        assert final.std() < 0.02
