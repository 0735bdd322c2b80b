"""End-to-end test of the Table 1 experiment at CI scale."""

import math

import pytest

from repro.experiments import table1
from repro.experiments.config import CI
from repro.theory.polya import pow_fair_probability


@pytest.fixture(scope="module")
def result():
    config = table1.Table1Config(
        preset=CI, seed=7, miner_counts=(2, 5, 10), horizon=6000
    )
    return table1.run(config)


class TestTable1:
    def test_all_cells_present(self, result):
        assert len(result.cells) == 4 * 3

    def test_proportional_protocols_insensitive_to_miner_count(self, result):
        for protocol in ("PoW", "ML-PoS", "C-PoS"):
            for count in (2, 5, 10):
                cell = result.cells[(protocol, count)]
                assert cell.average_fraction == pytest.approx(0.2, abs=0.03)

    def test_sl_pos_depends_on_relative_position(self, result):
        # 2 miners: A (0.2) below B (0.8) -> loses.
        assert result.cells[("SL-PoS", 2)].average_fraction < 0.1
        # 5 miners: all equal -> symmetric 0.2.
        assert result.cells[("SL-PoS", 5)].average_fraction == pytest.approx(
            0.2, abs=0.05
        )
        # 10 miners: A is the biggest -> gains (full monopolisation
        # needs the paper-scale horizon; CI checks the direction).
        assert result.cells[("SL-PoS", 10)].average_fraction > 0.25

    def test_c_pos_converges_fastest(self, result):
        for count in (2, 5, 10):
            c_pos = result.cells[("C-PoS", count)].convergence_time
            pow_time = result.cells[("PoW", count)].convergence_time
            assert c_pos < pow_time or math.isinf(pow_time)

    def test_ml_pos_never_converges(self, result):
        for count in (2, 5, 10):
            assert math.isinf(result.cells[("ML-PoS", count)].convergence_time)

    def test_sl_pos_never_converges(self, result):
        for count in (2, 5, 10):
            assert math.isinf(result.cells[("SL-PoS", count)].convergence_time)

    def test_sl_pos_unfair_probability_high(self, result):
        assert result.cells[("SL-PoS", 2)].unfair_probability > 0.9

    def test_pow_unfair_probability_matches_binomial(self, result):
        # PoW's block count is exactly Binomial(horizon, a) at any
        # miner count.
        horizon = result.config.preset.horizon(result.config.horizon)
        expected = 1.0 - pow_fair_probability(0.2, horizon, 0.1)
        for count in (2, 5, 10):
            assert result.cells[("PoW", count)].unfair_probability == pytest.approx(
                expected, abs=0.05
            )

    def test_c_pos_less_unfair_than_ml_pos(self, result):
        for count in (2, 5, 10):
            assert (
                result.cells[("C-PoS", count)].unfair_probability
                < result.cells[("ML-PoS", count)].unfair_probability
            )

    def test_render_and_dict(self, result):
        text = result.render()
        assert "Avg. of lambda_A" in text
        assert "Convergence time" in text
        payload = result.to_dict()
        assert "SL-PoS|2" in payload
