"""Tests for repro.analysis.equitability."""

import numpy as np
import pytest

from repro.analysis.equitability import equitability, equitability_series
from repro.core.miners import Allocation
from repro.core.stats import MomentView, StatsCollector, StatsSummary


class TestEquitability:
    def test_deterministic_is_one(self):
        assert equitability([0.2] * 100, 0.2) == pytest.approx(1.0)

    def test_all_or_nothing_is_zero(self):
        # The paper's Section 1.2 example: win everything with
        # probability a, nothing otherwise.
        samples = [1.0] * 20 + [0.0] * 80
        assert equitability(samples, 0.2) == pytest.approx(0.0, abs=0.02)

    def test_intermediate(self):
        rng = np.random.default_rng(1)
        samples = rng.beta(20, 80, size=5000)  # concentrated around 0.2
        value = equitability(samples, 0.2)
        assert 0.9 < value < 1.0

    def test_more_disperse_less_equitable(self):
        rng = np.random.default_rng(2)
        tight = rng.beta(200, 800, size=5000)
        loose = rng.beta(2, 8, size=5000)
        assert equitability(loose, 0.2) < equitability(tight, 0.2)

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            equitability([0.2], 0.2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            equitability([0.2, 1.5], 0.2)

    def test_moment_view_matches_samples(self):
        # A stats-reduced result hands equitability the merged moments
        # of its shards instead of the samples; the variance is M2 / n.
        rng = np.random.default_rng(3)
        samples = rng.beta(2, 8, size=5000)
        allocation = Allocation.two_miners(0.2)
        parts = []
        for part in np.split(samples, [1800, 3100]):
            collector = StatsCollector("test", allocation, [1])
            collector.observe(0, np.column_stack([part, 1.0 - part]))
            parts.append(collector.build())
        view = StatsSummary.merge(parts).final_fractions()
        assert isinstance(view, MomentView)
        assert equitability(view, 0.2) == pytest.approx(
            equitability(samples, 0.2), rel=1e-12, abs=0
        )

    def test_moment_view_without_dispersion_is_one(self):
        view = MomentView(count=100, mean=0.2, m2=0.0)
        assert equitability(view, 0.2) == 1.0

    @pytest.mark.parametrize("count", [0, 1])
    def test_moment_view_needs_two_samples(self, count):
        with pytest.raises(ValueError, match="two samples"):
            equitability(MomentView(count=count, mean=0.2, m2=0.0), 0.2)

    def test_series(self):
        fractions = np.column_stack(
            [np.full(100, 0.2), np.linspace(0, 1, 100)]
        )
        series = equitability_series(fractions, 0.2)
        assert series.shape == (2,)
        assert series[0] == pytest.approx(1.0)
        assert series[1] < 0.7

    def test_series_rejects_1d(self):
        with pytest.raises(ValueError):
            equitability_series(np.zeros(5), 0.2)


class TestProtocolEquitability:
    def test_pow_more_equitable_than_ml_pos(self):
        from repro.core.miners import Allocation
        from repro.protocols import MultiLotteryPoS, ProofOfWork
        from repro.sim.engine import simulate

        allocation = Allocation.two_miners(0.2)
        pow_result = simulate(
            ProofOfWork(0.01), allocation, 2000, trials=1000, seed=1
        )
        ml_result = simulate(
            MultiLotteryPoS(0.01), allocation, 2000, trials=1000, seed=1
        )
        assert equitability(
            pow_result.final_fractions(), 0.2
        ) > equitability(ml_result.final_fractions(), 0.2)
