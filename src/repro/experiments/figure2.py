"""Figure 2: evolution of ``lambda_A`` for the four protocols.

Reproduces the paper's headline figure: miner A holds ``a = 0.2`` of
the resource, blocks pay ``w = 0.01``, C-PoS adds ``v = 0.1`` over
``P = 32`` shards.  For each protocol the experiment records the
sample mean of ``lambda_A`` (orange line), the 5th/95th percentile
envelope (blue band), and optionally the node-level system bars from
:mod:`repro.chainsim`.

Expected shapes (paper Section 5.2):

* PoW — mean pinned at 0.2, envelope narrowing into the fair area
  after ~1,000 blocks;
* ML-PoS — mean at 0.2 but a persistently wide envelope (Beta limit);
* SL-PoS — mean *decaying towards zero* (monopolisation);
* C-PoS — mean at 0.2 with a much narrower envelope than ML-PoS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.miners import Allocation
from ..core.results import SeriesSummary
from ..chainsim.harness import SystemExperiment
from ..sim.rng import RandomSource
from ._common import (
    PAPER_PROTOCOL_ORDER,
    GridCell,
    SystemGridCell,
    build_protocol,
    run_simulation_grid,
    run_system_grid,
)
from .config import DEFAULT, Preset
from .report import render_table, subsample_rows

__all__ = ["Figure2Config", "Figure2Result", "run"]


@dataclass(frozen=True)
class Figure2Config:
    """Parameters of Figure 2 (paper defaults)."""

    share: float = 0.2
    reward: float = 0.01
    inflation: float = 0.1
    shards: int = 32
    horizon: int = 5000
    epsilon: float = 0.1
    preset: Preset = DEFAULT
    seed: int = 2021


@dataclass
class Figure2Result:
    """Per-protocol evolution series (simulation and optional system)."""

    config: Figure2Config
    simulation: Dict[str, SeriesSummary]
    system: Dict[str, SeriesSummary] = field(default_factory=dict)

    def render(self, *, max_rows: int = 12) -> str:
        sections = []
        area_low = (1 - self.config.epsilon) * self.config.share
        area_high = (1 + self.config.epsilon) * self.config.share
        for name, summary in self.simulation.items():
            rows = [
                [int(n), m, lo, hi]
                for n, m, lo, hi in zip(
                    summary.checkpoints, summary.mean, summary.lower, summary.upper
                )
            ]
            sections.append(
                render_table(
                    ["n", "mean", "p5", "p95"],
                    subsample_rows(rows, max_rows),
                    title=(
                        f"Figure 2 ({name}): lambda_A evolution, a={self.config.share}, "
                        f"fair area [{area_low:.3f}, {area_high:.3f}]"
                    ),
                )
            )
            system = self.system.get(name)
            if system is not None:
                sys_rows = [
                    [int(n), m, lo, hi]
                    for n, m, lo, hi in zip(
                        system.checkpoints, system.mean, system.lower, system.upper
                    )
                ]
                sections.append(
                    render_table(
                        ["n", "mean", "p5", "p95"],
                        subsample_rows(sys_rows, max_rows),
                        title=f"Figure 2 ({name}): node-level system runs",
                    )
                )
        return "\n\n".join(sections)

    def to_dict(self) -> dict:
        def pack(summary: SeriesSummary) -> dict:
            return {
                "checkpoints": summary.checkpoints.tolist(),
                "mean": summary.mean.tolist(),
                "p5": summary.lower.tolist(),
                "p95": summary.upper.tolist(),
            }

        return {
            "simulation": {k: pack(v) for k, v in self.simulation.items()},
            "system": {k: pack(v) for k, v in self.system.items()},
        }


#: Node-level run lengths per protocol (tick networks are the slow ones).
_SYSTEM_ROUNDS = {"PoW": 300, "ML-PoS": 500, "SL-PoS": 1500, "C-PoS": 300}
_SYSTEM_KEYS = {"PoW": "pow", "ML-PoS": "ml-pos", "SL-PoS": "sl-pos", "C-PoS": "c-pos"}


def run(config: Figure2Config = Figure2Config()) -> Figure2Result:
    """Run the Figure 2 experiment."""
    preset = config.preset
    allocation = Allocation.two_miners(config.share)
    source = RandomSource(config.seed)
    horizon = preset.horizon(config.horizon)

    cells = [
        GridCell(
            build_protocol(
                name,
                reward=config.reward,
                inflation=config.inflation,
                shards=config.shards,
            ),
            allocation,
            horizon,
            preset.trials,
        )
        for name in PAPER_PROTOCOL_ORDER
    ]
    results = run_simulation_grid(cells, source)
    simulation: Dict[str, SeriesSummary] = {
        name: result.summary(epsilon=config.epsilon)
        for name, result in zip(PAPER_PROTOCOL_ORDER, results)
    }

    system: Dict[str, SeriesSummary] = {}
    if preset.include_system:
        # One grid over all four protocols: the whole system sweep
        # shares a single pool dispatch instead of one per protocol.
        system_cells = [
            SystemGridCell(
                SystemExperiment(
                    _SYSTEM_KEYS[name],
                    allocation,
                    reward=config.reward,
                    inflation_reward=config.inflation,
                    shards=config.shards,
                ),
                rounds=preset.horizon(_SYSTEM_ROUNDS[name]),
                repeats=(
                    preset.system_repeats_pow
                    if name == "PoW"
                    else preset.system_repeats_pos
                ),
            )
            for name in PAPER_PROTOCOL_ORDER
        ]
        system = {
            name: result.summary(epsilon=config.epsilon)
            for name, result in zip(
                PAPER_PROTOCOL_ORDER, run_system_grid(system_cells, source)
            )
        }

    return Figure2Result(config=config, simulation=simulation, system=system)
