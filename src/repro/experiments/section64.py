"""Section 6.4 — fairness of the six additional incentive protocols.

The paper surveys NEO, Algorand, EOS, Wave, Vixify and Filecoin
*qualitatively*; this experiment turns the survey into numbers by
running every model through the same fairness pipeline as the four
main protocols.  Expected verdicts (Section 6.4):

* NEO — both fairness types (PoW-like: rewards never compound);
* Algorand — absolutely fair ((0, 0): deterministic proportional);
* EOS — neither (flat proposer reward distorts expectations);
* Wave / Vixify — expectational yes, robust no at sizeable ``w``
  (ML-PoS/FSL-PoS profile);
* Filecoin — expectational yes; robustness between PoW and ML-PoS
  depending on the storage weight.

The grid folds to sufficient statistics (``counter_reduce``): each
protocol keeps moments and exact unfair counts at ``epsilon``, never
its trajectory cube.  The unfair probability and both verdict flags
are bit-identical to a full-mode run; the mean fraction and the
equitability (one variance, M2 / n) come from merged moments and
equal full mode's to float tolerance.  Any other ``epsilon`` runs
full mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis.equitability import equitability
from ..core.fairness import DEFAULT_DELTA, DEFAULT_EPSILON
from ..core.miners import Allocation
from ..protocols.extended import (
    AlgorandPoS,
    EOSDelegatedPoS,
    FilecoinStorage,
    NeoPoS,
    VixifyPoS,
    WavePoS,
)
from ..sim.rng import RandomSource
from ._common import GridCell, counter_reduce, run_simulation_grid
from .config import DEFAULT, Preset
from .report import render_table

__all__ = ["Section64Config", "Section64Row", "Section64Result", "run"]


@dataclass(frozen=True)
class Section64Config:
    """Parameters of the Section 6.4 survey.

    The allocation is deliberately *asymmetric* (A below the equal
    split) so that flat-reward distortions (EOS) are visible.
    """

    share: float = 0.1
    miners: int = 4
    reward: float = 0.01
    inflation: float = 0.1
    storage_weight: float = 0.5
    horizon: int = 3000
    epsilon: float = DEFAULT_EPSILON
    delta: float = DEFAULT_DELTA
    preset: Preset = DEFAULT
    seed: int = 2021


@dataclass(frozen=True)
class Section64Row:
    """Measured fairness of one extended protocol."""

    protocol: str
    paper_expectational: bool
    paper_robust_profile: str
    mean_fraction: float
    unfair_probability: float
    equitability: float
    expectational_ok: bool

    def matches_paper(self) -> bool:
        """Whether the measured expectational verdict matches Section 6.4."""
        return self.expectational_ok == self.paper_expectational


@dataclass
class Section64Result:
    """The executable Section 6.4 survey table."""

    config: Section64Config
    rows: List[Section64Row]

    def render(self) -> str:
        table_rows = [
            [
                row.protocol,
                "yes" if row.paper_expectational else "no",
                row.paper_robust_profile,
                row.mean_fraction,
                row.unfair_probability,
                row.equitability,
                "yes" if row.matches_paper() else "NO",
            ]
            for row in self.rows
        ]
        return render_table(
            [
                "protocol", "paper E-fair", "paper robust profile",
                "E[lambda_A]", "unfair prob", "equit.", "match",
            ],
            table_rows,
            precision=3,
            title=(
                f"Section 6.4 survey: a={self.config.share}, "
                f"{self.config.miners} miners, horizon={self.config.horizon}"
            ),
        )

    def to_dict(self) -> dict:
        return {
            row.protocol: {
                "mean": row.mean_fraction,
                "unfair": row.unfair_probability,
                "equitability": row.equitability,
                "expectational_ok": row.expectational_ok,
                "matches_paper": row.matches_paper(),
            }
            for row in self.rows
        }


def _protocol_zoo(config: Section64Config) -> List[tuple]:
    """(protocol, paper expectational verdict, paper robust profile)."""
    return [
        (NeoPoS(config.reward), True, "yes (PoW-like)"),
        (AlgorandPoS(config.inflation), True, "yes ((0,0)-fair)"),
        (EOSDelegatedPoS(config.reward, config.inflation), False, "no"),
        (WavePoS(config.reward), True, "no at large w"),
        (VixifyPoS(config.reward), True, "no at large w"),
        (
            FilecoinStorage(config.reward, config.storage_weight),
            True,
            "between PoW and ML-PoS",
        ),
    ]


def run(config: Section64Config = Section64Config()) -> Section64Result:
    """Run the Section 6.4 survey."""
    preset = config.preset
    source = RandomSource(config.seed)
    horizon = preset.horizon(config.horizon)
    allocation = Allocation.focal_vs_equal(config.share, config.miners)
    share = allocation.focal_share

    zoo = _protocol_zoo(config)
    cells = [
        GridCell(protocol, allocation, horizon, preset.trials)
        for protocol, _, _ in zoo
    ]
    results = run_simulation_grid(
        cells, source, reduce=counter_reduce(config.epsilon)
    )

    rows: List[Section64Row] = []
    for (protocol, paper_expectational, robust_profile), result in zip(
        zoo, results
    ):
        final = result.final_fractions()
        expectational = result.expectational_verdict(
            tolerance=0.1 * share
        )
        robust = result.robust_verdict(
            epsilon=config.epsilon, delta=config.delta
        )
        rows.append(
            Section64Row(
                protocol=protocol.name,
                paper_expectational=paper_expectational,
                paper_robust_profile=robust_profile,
                mean_fraction=float(final.mean()),
                unfair_probability=robust.unfair_probability,
                equitability=equitability(final, share),
                expectational_ok=expectational.is_fair,
            )
        )
    return Section64Result(config=config, rows=rows)
