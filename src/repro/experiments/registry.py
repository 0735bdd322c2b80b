"""Registry mapping experiment ids to their runners.

Each entry couples the paper artefact (figure/table number), a short
description of the expected shape, and the ``run`` callable.  The CLI
and perfbench's traced pass resolve experiments through this table, so
it is the one per-experiment index; each experiment module's docstring
states the shape the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

from . import figure1, figure2, figure3, figure4, figure5, figure6, section64, table1
from .config import DEFAULT, Preset

__all__ = ["Experiment", "EXPERIMENTS", "get_experiment", "run_experiment"]


@dataclass(frozen=True)
class Experiment:
    """A registered paper artefact reproduction."""

    key: str
    artefact: str
    description: str
    run: Callable
    config_type: Optional[type]

    def run_with_preset(self, preset: Preset, seed: Optional[int] = None):
        """Run with a preset (and optional seed) applied to the config."""
        if self.config_type is None:
            return self.run()
        kwargs = {"preset": preset}
        if seed is not None:
            kwargs["seed"] = seed
        return self.run(self.config_type(**kwargs))


EXPERIMENTS: Dict[str, Experiment] = {
    "fig1": Experiment(
        key="fig1",
        artefact="Figure 1",
        description="SL-PoS win probability and SA drift with rest points",
        run=figure1.run,
        config_type=None,
    ),
    "fig2": Experiment(
        key="fig2",
        artefact="Figure 2",
        description="lambda_A evolution for PoW / ML-PoS / SL-PoS / C-PoS",
        run=figure2.run,
        config_type=figure2.Figure2Config,
    ),
    "fig3": Experiment(
        key="fig3",
        artefact="Figure 3",
        description="unfair probability vs n for varying initial shares",
        run=figure3.run,
        config_type=figure3.Figure3Config,
    ),
    "fig4": Experiment(
        key="fig4",
        artefact="Figure 4",
        description="SL-PoS mean lambda_A under varying a and w",
        run=figure4.run,
        config_type=figure4.Figure4Config,
    ),
    "fig5": Experiment(
        key="fig5",
        artefact="Figure 5",
        description="unfair probability under varying w and v",
        run=figure5.run,
        config_type=figure5.Figure5Config,
    ),
    "fig6": Experiment(
        key="fig6",
        artefact="Figure 6",
        description="FSL-PoS treatment and reward withholding",
        run=figure6.run,
        config_type=figure6.Figure6Config,
    ),
    "tab1": Experiment(
        key="tab1",
        artefact="Table 1",
        description="multi-miner game: avg lambda_A, unfair prob, convergence",
        run=table1.run,
        config_type=table1.Table1Config,
    ),
    "sec64": Experiment(
        key="sec64",
        artefact="Section 6.4",
        description="executable survey of NEO/Algorand/EOS/Wave/Vixify/Filecoin",
        run=section64.run,
        config_type=section64.Section64Config,
    ),
}


def get_experiment(key: str) -> Experiment:
    """Look up an experiment by id ('fig1'..'fig6', 'tab1')."""
    try:
        return EXPERIMENTS[key]
    except KeyError:
        raise ValueError(
            f"unknown experiment {key!r}; expected one of {sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(
    key: str,
    preset: Preset = DEFAULT,
    seed: Optional[int] = None,
    *,
    runtime=None,
):
    """Resolve and run an experiment with the given preset.

    ``runtime`` (a :class:`~repro.runtime.ParallelRunner`) scopes
    sharded parallel execution and result caching over the run; None
    keeps whatever ambient runtime is already configured.
    """
    experiment = get_experiment(key)
    if runtime is None:
        return experiment.run_with_preset(preset, seed)
    from ..runtime import using_runtime

    with using_runtime(runtime):
        return experiment.run_with_preset(preset, seed)
