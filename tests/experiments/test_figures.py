"""End-to-end tests of the figure experiments at CI scale.

Each test checks the *shape* the paper reports, not absolute values:
these are the cheapest full reproductions that still discriminate the
protocols.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.core.stats import StatsSummary
from repro.experiments import (
    _common,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    section64,
    table1,
)
from repro.experiments.config import CI
from repro.experiments.registry import EXPERIMENTS
from repro.runtime import ParallelRunner, using_runtime


@pytest.fixture(scope="module")
def fig2():
    return figure2.run(figure2.Figure2Config(preset=CI, seed=7))


@pytest.fixture(scope="module")
def fig3():
    return figure3.run(figure3.Figure3Config(preset=CI, seed=7))


@pytest.fixture(scope="module")
def fig5():
    return figure5.run(figure5.Figure5Config(preset=CI, seed=7))


class TestFigure1:
    def test_drift_signs(self):
        result = figure1.run(figure1.Figure1Config(points=101))
        below = result.shares < 0.5
        above = result.shares > 0.5
        interior = (result.shares > 0) & (result.shares < 1)
        assert np.all(result.drift[below & interior] < 0)
        assert np.all(result.drift[above & interior] > 0)

    def test_zero_report(self):
        result = figure1.run()
        zeros = [round(z, 4) for z, _ in result.zeros]
        assert zeros == [0.0, 0.5, 1.0]
        stabilities = [s.value for _, s in result.zeros]
        assert stabilities == ["stable", "unstable", "stable"]

    def test_render_and_dict(self):
        result = figure1.run(figure1.Figure1Config(points=11))
        text = result.render()
        assert "Figure 1" in text
        assert "unstable" in text
        payload = result.to_dict()
        assert len(payload["shares"]) == 11

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            figure1.Figure1Config(points=2)


class TestFigure2:
    def test_all_four_protocols_present(self, fig2):
        assert set(fig2.simulation) == {"PoW", "ML-PoS", "SL-PoS", "C-PoS"}

    def test_pow_mean_pinned(self, fig2):
        assert fig2.simulation["PoW"].mean[-1] == pytest.approx(0.2, abs=0.02)

    def test_ml_pos_mean_pinned_envelope_wide(self, fig2):
        summary = fig2.simulation["ML-PoS"]
        assert summary.mean[-1] == pytest.approx(0.2, abs=0.02)
        assert summary.upper[-1] - summary.lower[-1] > 0.08

    def test_sl_pos_mean_decays(self, fig2):
        summary = fig2.simulation["SL-PoS"]
        assert summary.mean[-1] < 0.12 < summary.mean[0]

    def test_c_pos_mean_pinned(self, fig2):
        assert fig2.simulation["C-PoS"].mean[-1] == pytest.approx(0.2, abs=0.01)

    def test_c_pos_envelope_narrowest(self, fig2):
        width = {
            name: s.upper[-1] - s.lower[-1] for name, s in fig2.simulation.items()
        }
        assert width["C-PoS"] < width["ML-PoS"] / 3
        assert width["C-PoS"] < width["PoW"]

    def test_render(self, fig2):
        text = fig2.render()
        assert "Figure 2 (PoW)" in text
        assert "Figure 2 (C-PoS)" in text

    def test_to_dict(self, fig2):
        payload = fig2.to_dict()
        assert "simulation" in payload
        assert "PoW" in payload["simulation"]


class TestFigure3:
    def test_pow_unfair_prob_decreases(self, fig3):
        for share in (0.1, 0.2):
            series = fig3.series[("PoW", share)]
            assert series[-1] < series[0]

    def test_pow_richer_fairer(self, fig3):
        assert fig3.series[("PoW", 0.4)][-1] <= fig3.series[("PoW", 0.1)][-1]

    def test_ml_pos_plateaus_above_delta(self, fig3):
        assert fig3.series[("ML-PoS", 0.2)][-1] > 0.1

    def test_sl_pos_deteriorates_to_one(self, fig3):
        for share in (0.1, 0.2, 0.3, 0.4):
            assert fig3.series[("SL-PoS", share)][-1] > 0.9

    def test_c_pos_below_ml_pos(self, fig3):
        for share in (0.2, 0.3, 0.4):
            assert (
                fig3.series[("C-PoS", share)][-1]
                < fig3.series[("ML-PoS", share)][-1]
            )

    def test_convergence_recorded(self, fig3):
        assert ("PoW", 0.2) in fig3.convergence

    def test_render(self, fig3):
        text = fig3.render()
        assert "Figure 3 (SL-PoS)" in text


class TestFigure4:
    def test_decay_ordering(self):
        result = figure4.run(figure4.Figure4Config(preset=CI, seed=7))
        # Panel (a): every a < 0.5 decays below its start, and a = 0.1
        # ends below a = 0.4; a = 0.5 holds.
        for share in (0.1, 0.2, 0.3, 0.4):
            assert result.by_share[share][-1] < share * 0.8
        assert result.by_share[0.1][-1] < result.by_share[0.4][-1]
        assert result.by_share[0.5][-1] == pytest.approx(0.5, abs=0.05)
        # Panel (b): each larger w decays faster.
        finals = [result.by_reward[w][-1] for w in sorted(result.by_reward)]
        assert all(small_w > large_w for small_w, large_w in zip(finals, finals[1:]))
        text = result.render()
        assert "Figure 4(a)" in text
        assert "Figure 4(b)" in text


class TestFigure5:
    def test_ml_pos_unfairness_grows_with_reward(self, fig5):
        assert fig5.ml_pos_by_reward[1e-1][-1] > 0.6
        assert (
            fig5.ml_pos_by_reward[1e-1][-1] > fig5.ml_pos_by_reward[1e-4][-1]
        )

    def test_sl_pos_high_for_all_rewards(self, fig5):
        for reward, series in fig5.sl_pos_by_reward.items():
            assert series[-1] > 0.8

    def test_c_pos_below_ml_pos(self, fig5):
        for reward in (1e-2, 1e-1):
            assert (
                fig5.c_pos_by_reward[reward][-1]
                < fig5.ml_pos_by_reward[reward][-1]
            )

    def test_inflation_helps(self, fig5):
        assert (
            fig5.c_pos_by_inflation[0.1][-1] <= fig5.c_pos_by_inflation[0.0][-1]
        )

    def test_render(self, fig5):
        text = fig5.render()
        for panel in ("5(a)", "5(b)", "5(c)", "5(d)"):
            assert panel in text


class TestFigure6:
    def test_fsl_fair_in_expectation_withholding_tighter(self):
        result = figure6.run(figure6.Figure6Config(preset=CI, seed=7))
        assert result.fsl.mean[-1] == pytest.approx(0.2, abs=0.02)
        assert result.fsl_withholding.mean[-1] == pytest.approx(0.2, abs=0.02)
        plain_width = result.fsl.upper[-1] - result.fsl.lower[-1]
        # At w = 0.01 the FSL-PoS envelope stays wide.
        assert plain_width > 0.05
        withheld_width = (
            result.fsl_withholding.upper[-1] - result.fsl_withholding.lower[-1]
        )
        assert withheld_width < plain_width
        text = result.render()
        assert "Figure 6(a)" in text
        assert "withholding" in text


class RecordingRunner(ParallelRunner):
    """A serial runner that remembers every spec and result it handled."""

    def __init__(self):
        super().__init__()
        self.specs = []
        self.results = []

    def run_many(self, specs, **kwargs):
        specs = list(specs)
        self.specs.extend(specs)
        results = super().run_many(specs, **kwargs)
        self.results.extend(results)
        return results

    def run_system_many(self, specs, **kwargs):
        specs = list(specs)
        self.specs.extend(specs)
        results = super().run_system_many(specs, **kwargs)
        self.results.extend(results)
        return results


@pytest.fixture(scope="module")
def recorded():
    """Every experiment run once at CI scale under its own RecordingRunner."""
    runners = {}
    for key, experiment in EXPERIMENTS.items():
        runners[key] = RecordingRunner()
        with using_runtime(runners[key]):
            experiment.run_with_preset(CI)
    return runners


def declared_and_forced_full(monkeypatch, module, config):
    """``module.run(config).to_dict()`` as declared and forced to full
    mode, with the ``reduce`` modes the declared run passed."""
    modes = []

    def recording(cells, source, *, reduce="full"):
        modes.append(reduce)
        return _common.run_simulation_grid(cells, source, reduce=reduce)

    def forced_full(cells, source, **kwargs):
        return _common.run_simulation_grid(cells, source, reduce="full")

    monkeypatch.setattr(module, "run_simulation_grid", recording)
    declared = module.run(config).to_dict()
    monkeypatch.setattr(module, "run_simulation_grid", forced_full)
    return declared, module.run(config).to_dict(), modes


class TestReduceDeclarations:
    """Each experiment decides its artifact shape; folding never moves a number."""

    @pytest.mark.parametrize("epsilon, declared", [(0.1, "stats"), (0.05, "full")])
    @pytest.mark.parametrize(
        "module, config_type",
        [
            pytest.param(figure3, figure3.Figure3Config, id="fig3"),
            pytest.param(figure5, figure5.Figure5Config, id="fig5"),
        ],
    )
    def test_declared_mode_matches_forced_full(
        self, monkeypatch, module, config_type, epsilon, declared
    ):
        config = config_type(preset=CI, seed=7, epsilon=epsilon)
        folded, full, modes = declared_and_forced_full(
            monkeypatch, module, config
        )
        assert full == folded
        assert modes == [declared]

    @pytest.mark.parametrize("epsilon, declared", [(0.1, "stats"), (0.05, "full")])
    @pytest.mark.parametrize(
        "module, config, moments",
        [
            pytest.param(
                table1,
                table1.Table1Config(preset=CI, seed=7, miner_counts=(2, 3, 10)),
                {"avg"},
                id="tab1",
            ),
            pytest.param(
                section64,
                section64.Section64Config(preset=CI, seed=7),
                {"mean", "equitability"},
                id="sec64",
            ),
        ],
    )
    def test_declared_table_matches_forced_full(
        self, monkeypatch, module, config, moments, epsilon, declared
    ):
        # The tables also print moments, which a stats fold merges with
        # Chan's update: those match full mode to float tolerance, while
        # every counter and verdict flag stays bit-identical.
        folded, full, modes = declared_and_forced_full(
            monkeypatch, module, dataclasses.replace(config, epsilon=epsilon)
        )
        assert modes == [declared]
        assert folded.keys() == full.keys()
        for cell, row in full.items():
            assert folded[cell].keys() == row.keys()
            for field, value in row.items():
                if field in moments:
                    assert folded[cell][field] == pytest.approx(
                        value, rel=1e-12, abs=0
                    ), (cell, field)
                else:
                    assert folded[cell][field] == value, (cell, field)

    def test_each_experiment_declares_its_reduce(self, recorded):
        expected = {
            "fig1": set(),  # no ensemble
            "fig2": {"full"},
            "fig3": {"stats"},
            "fig4": {"full"},
            "fig5": {"stats"},
            "fig6": {"full"},
            "tab1": {"stats"},
            "sec64": {"stats"},
        }
        assert set(EXPERIMENTS) == set(expected)
        declared = {
            key: {spec.reduce for spec in runner.specs}
            for key, runner in recorded.items()
        }
        assert declared == expected

    @pytest.mark.parametrize("key", ["tab1", "sec64"])
    def test_tables_never_hold_a_trajectory_cube(self, recorded, key):
        results = recorded[key].results
        assert results
        assert all(isinstance(result, StatsSummary) for result in results)
