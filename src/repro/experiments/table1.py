"""Table 1: the multi-miner game (Section 6.1).

Miner A controls 20% of the initial resource; the remaining miners
split the other 80% equally.  For 2, 3, 4, 5 and 10 total miners and
each of the four protocols, the experiment reports:

* the average final reward fraction of A,
* the final unfair probability,
* the convergence time (first sustained (eps, delta)-fair checkpoint).

Expected shape (paper Table 1): PoW/ML-PoS/C-PoS are insensitive to
the miner count (avg 0.20; unfair prob ~0 / ~0.62 / ~0.08; convergence
~1,000 blocks / never / ~100-140 epochs).  The ML-PoS value is the
Beta(a/w, b/w) limit at w = 0.01:
``1 - theory.polya.ml_pos_fair_probability(0.2, 0.01, 0.1)`` = 0.618.
SL-PoS flips with the *relative* position of A: with 2-4 miners A is
below the biggest competitor and loses everything (avg ~0); with 5
equal miners symmetry holds (~0.2); with 10 miners A is the biggest
and monopolises (~0.98 — rich get richer).

Two of those values are not what the ``default`` preset measures, and
nothing here settles which is right: C-PoS reads an unfair probability
of 0.00 and converges at the first checkpoint (10 epochs), and SL-PoS
at 10 miners averages 0.48.

The grid folds to sufficient statistics (``counter_reduce``): each
cell keeps per-checkpoint moments and exact unfair counts at
``epsilon``, never the ``(trials, checkpoints, miners)`` trajectory
cube.  The unfair probability and convergence time are bit-identical
to a full-mode run; the average fraction is a merged mean, equal to
full mode's to float tolerance.  Any other ``epsilon`` runs full mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..core.miners import Allocation
from ..sim.checkpoints import geometric_checkpoints
from ..sim.rng import RandomSource
from ._common import (
    PAPER_PROTOCOL_ORDER,
    GridCell,
    build_protocol,
    counter_reduce,
    run_simulation_grid,
)
from .config import DEFAULT, Preset
from .report import render_table

__all__ = ["Table1Config", "Table1Result", "Table1Cell", "run"]


@dataclass(frozen=True)
class Table1Config:
    """Parameters of Table 1 (paper defaults)."""

    focal_share: float = 0.2
    miner_counts: Tuple[int, ...] = (2, 3, 4, 5, 10)
    reward: float = 0.01
    inflation: float = 0.1
    shards: int = 32
    horizon: int = 10_000
    epsilon: float = 0.1
    delta: float = 0.1
    preset: Preset = DEFAULT
    seed: int = 2021


@dataclass(frozen=True)
class Table1Cell:
    """One (protocol, miner-count) entry of Table 1."""

    average_fraction: float
    unfair_probability: float
    convergence_time: float


@dataclass
class Table1Result:
    """The full multi-miner comparison."""

    config: Table1Config
    cells: Dict[Tuple[str, int], Table1Cell]

    def render(self) -> str:
        def block(metric: str, extractor) -> str:
            rows = []
            for count in self.config.miner_counts:
                row = [f"{count} miners"] + [
                    extractor(self.cells[(protocol, count)])
                    for protocol in PAPER_PROTOCOL_ORDER
                ]
                rows.append(row)
            return render_table(
                ["", *PAPER_PROTOCOL_ORDER], rows, title=metric, precision=2
            )

        return "\n\n".join(
            [
                block("Table 1 - Avg. of lambda_A",
                      lambda cell: cell.average_fraction),
                block("Table 1 - Unfair probability",
                      lambda cell: cell.unfair_probability),
                block("Table 1 - Convergence time",
                      lambda cell: cell.convergence_time),
            ]
        )

    def to_dict(self) -> dict:
        return {
            f"{protocol}|{count}": {
                "avg": cell.average_fraction,
                "unfair": cell.unfair_probability,
                "convergence": cell.convergence_time,
            }
            for (protocol, count), cell in self.cells.items()
        }


def run(config: Table1Config = Table1Config()) -> Table1Result:
    """Run the Table 1 experiment."""
    preset = config.preset
    source = RandomSource(config.seed)
    horizon = preset.horizon(config.horizon)
    checkpoints = geometric_checkpoints(horizon, count=40, first=10)

    grid = [
        (protocol_name, count)
        for protocol_name in PAPER_PROTOCOL_ORDER
        for count in config.miner_counts
    ]
    grid_cells = [
        GridCell(
            build_protocol(
                protocol_name,
                reward=config.reward,
                inflation=config.inflation,
                shards=config.shards,
            ),
            Allocation.focal_vs_equal(config.focal_share, count),
            horizon,
            preset.trials,
            checkpoints,
        )
        for protocol_name, count in grid
    ]
    results = run_simulation_grid(
        grid_cells, source, reduce=counter_reduce(config.epsilon)
    )

    cells: Dict[Tuple[str, int], Table1Cell] = {}
    for (protocol_name, count), result in zip(grid, results):
        unfair = result.unfair_probabilities(epsilon=config.epsilon)
        cells[(protocol_name, count)] = Table1Cell(
            average_fraction=float(result.final_fractions().mean()),
            unfair_probability=float(unfair[-1]),
            convergence_time=result.convergence_time(
                epsilon=config.epsilon, delta=config.delta
            ),
        )
    return Table1Result(config=config, cells=cells)
