"""Figure 6: the FSL-PoS treatment and reward withholding.

Evaluates the paper's two SL-PoS remedies at ``a = 0.2``,
``w = 0.01``:

* panel (a): FSL-PoS — the corrected exponential-deadline lottery
  restores ``E[lambda_A] = 0.2`` (expectational fairness) but the
  envelope stays wide (no robust fairness at this ``w``);
* panel (b): FSL-PoS with rewards vesting at the next multiple of
  1,000 blocks — the envelope collapses into the fair area.

The node-level system bars rerun both panels on the chainsim
substrate: the paper patched NXT, we patch :class:`SLPoSNode` into
:class:`FSLPoSNode` for panel (a) and run the vesting ledger
(:class:`~repro.chainsim.VestingBlockchain`) for panel (b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.miners import Allocation
from ..core.results import SeriesSummary
from ..chainsim.harness import SystemExperiment
from ..protocols.fsl_pos import FairSingleLotteryPoS
from ..protocols.withholding import RewardWithholding
from ..sim.rng import RandomSource
from ._common import SystemGridCell, run_simulation, run_system_grid
from .config import DEFAULT, Preset
from .report import render_table, subsample_rows

__all__ = ["Figure6Config", "Figure6Result", "run"]


@dataclass(frozen=True)
class Figure6Config:
    """Parameters of Figure 6 (paper defaults)."""

    share: float = 0.2
    reward: float = 0.01
    vesting_period: int = 1000
    horizon: int = 5000
    epsilon: float = 0.1
    preset: Preset = DEFAULT
    seed: int = 2021


@dataclass
class Figure6Result:
    """Evolution series of the two remedies."""

    config: Figure6Config
    fsl: SeriesSummary
    fsl_withholding: SeriesSummary
    system_fsl: Optional[SeriesSummary] = None
    system_withholding: Optional[SeriesSummary] = None

    def render(self, *, max_rows: int = 12) -> str:
        def table(summary: SeriesSummary, title: str) -> str:
            rows = [
                [int(n), m, lo, hi]
                for n, m, lo, hi in zip(
                    summary.checkpoints, summary.mean, summary.lower, summary.upper
                )
            ]
            return render_table(
                ["n", "mean", "p5", "p95"], subsample_rows(rows, max_rows), title=title
            )

        sections = [
            table(self.fsl, "Figure 6(a): FSL-PoS lambda_A evolution"),
            table(
                self.fsl_withholding,
                f"Figure 6(b): FSL-PoS with reward withholding "
                f"(vesting period {self.config.vesting_period})",
            ),
        ]
        if self.system_fsl is not None:
            sections.append(
                table(self.system_fsl, "Figure 6(a): node-level system runs")
            )
        if self.system_withholding is not None:
            sections.append(
                table(
                    self.system_withholding,
                    "Figure 6(b): node-level system runs (vesting ledger)",
                )
            )
        return "\n\n".join(sections)

    def to_dict(self) -> dict:
        def pack(summary: Optional[SeriesSummary]) -> Optional[dict]:
            if summary is None:
                return None
            return {
                "checkpoints": summary.checkpoints.tolist(),
                "mean": summary.mean.tolist(),
                "p5": summary.lower.tolist(),
                "p95": summary.upper.tolist(),
            }

        return {
            "fsl": pack(self.fsl),
            "fsl_withholding": pack(self.fsl_withholding),
            "system_fsl": pack(self.system_fsl),
            "system_withholding": pack(self.system_withholding),
        }


def run(config: Figure6Config = Figure6Config()) -> Figure6Result:
    """Run the Figure 6 experiment."""
    preset = config.preset
    source = RandomSource(config.seed)
    horizon = preset.horizon(config.horizon)
    allocation = Allocation.two_miners(config.share)

    fsl_result = run_simulation(
        FairSingleLotteryPoS(config.reward), allocation, horizon,
        preset.trials, source,
    )
    vesting = max(2, preset.horizon(config.vesting_period))
    withhold_result = run_simulation(
        RewardWithholding(FairSingleLotteryPoS(config.reward), vesting),
        allocation, horizon, preset.trials, source,
    )

    system_fsl = None
    system_withholding = None
    if preset.include_system:
        # Both panels' node-level runs form one grid: a single pool
        # dispatch covers them.
        rounds = preset.horizon(1500)
        system_cells = [
            SystemGridCell(
                SystemExperiment("fsl-pos", allocation, reward=config.reward),
                rounds=rounds,
                repeats=preset.system_repeats_pos,
            ),
            SystemGridCell(
                SystemExperiment(
                    "fsl-pos-withhold",
                    allocation,
                    reward=config.reward,
                    vesting_period=max(2, min(vesting, rounds)),
                ),
                rounds=rounds,
                repeats=preset.system_repeats_pos,
            ),
        ]
        system, withhold_system = run_system_grid(system_cells, source)
        system_fsl = system.summary(epsilon=config.epsilon)
        system_withholding = withhold_system.summary(epsilon=config.epsilon)

    return Figure6Result(
        config=config,
        fsl=fsl_result.summary(epsilon=config.epsilon),
        fsl_withholding=withhold_result.summary(epsilon=config.epsilon),
        system_fsl=system_fsl,
        system_withholding=system_withholding,
    )
