"""Figure 3: unfair probability vs block count under varying ``a``.

For each protocol and each initial share ``a`` in {0.1, ..., 0.5}, the
experiment tracks ``Pr[lambda_A outside the fair area]`` as blocks
accumulate (``w = 0.01``, ``v = 0.1``, ``epsilon = 0.1``).

Expected shapes (paper Section 5.4.1):

* PoW — unfair probability decays to ~0; faster for larger ``a``
  (fairness after <800 blocks at ``a = 0.3`` vs >2,000 at ``a = 0.1``);
* ML-PoS — decays then *plateaus* above ``delta = 0.1``; richer miners
  plateau lower;
* SL-PoS — *increases* to 1 for every ``a < 0.5``;
* C-PoS — like ML-PoS but far lower; drops below ``delta`` for
  moderate ``a``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from ..core.metrics import convergence_time
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
from .report import render_table, subsample_rows

__all__ = ["Figure3Config", "Figure3Result", "run"]


@dataclass(frozen=True)
class Figure3Config:
    """Parameters of Figure 3 (paper defaults)."""

    shares: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)
    reward: float = 0.01
    inflation: float = 0.1
    shards: int = 32
    horizon: int = 3000
    epsilon: float = 0.1
    delta: float = 0.1
    preset: Preset = DEFAULT
    seed: int = 2021


@dataclass
class Figure3Result:
    """Unfair-probability series keyed by (protocol, share)."""

    config: Figure3Config
    checkpoints: np.ndarray
    series: Dict[Tuple[str, float], np.ndarray]
    convergence: Dict[Tuple[str, float], float] = field(default_factory=dict)

    def render(self, *, max_rows: int = 10) -> str:
        sections = []
        for protocol in PAPER_PROTOCOL_ORDER:
            shares = [s for (p, s) in self.series if p == protocol]
            headers = ["n"] + [f"a={share:g}" for share in sorted(shares)]
            rows = []
            for i, n in enumerate(self.checkpoints):
                row = [int(n)] + [
                    float(self.series[(protocol, share)][i])
                    for share in sorted(shares)
                ]
                rows.append(row)
            sections.append(
                render_table(
                    headers,
                    subsample_rows(rows, max_rows),
                    title=f"Figure 3 ({protocol}): unfair probability vs n "
                    f"(delta={self.config.delta})",
                )
            )
            conv_rows = [
                [f"a={share:g}", self.convergence.get((protocol, share), float("inf"))]
                for share in sorted(shares)
            ]
            sections.append(
                render_table(
                    ["share", "convergence n"],
                    conv_rows,
                    title=f"{protocol}: first sustained (eps,delta)-fair checkpoint",
                )
            )
        return "\n\n".join(sections)

    def to_dict(self) -> dict:
        return {
            "checkpoints": self.checkpoints.tolist(),
            "series": {
                f"{p}|{s:g}": values.tolist()
                for (p, s), values in self.series.items()
            },
            "convergence": {
                f"{p}|{s:g}": value for (p, s), value in self.convergence.items()
            },
        }


def run(config: Figure3Config = Figure3Config()) -> Figure3Result:
    """Run the Figure 3 experiment."""
    preset = config.preset
    source = RandomSource(config.seed)
    horizon = preset.horizon(config.horizon)
    checkpoints = geometric_checkpoints(horizon, count=40, first=10)

    grid = [
        (protocol_name, share)
        for protocol_name in PAPER_PROTOCOL_ORDER
        for share in config.shares
    ]
    cells = [
        GridCell(
            build_protocol(
                protocol_name,
                reward=config.reward,
                inflation=config.inflation,
                shards=config.shards,
            ),
            Allocation.two_miners(share),
            horizon,
            preset.trials,
            checkpoints,
        )
        for protocol_name, share in grid
    ]
    results = run_simulation_grid(
        cells, source, reduce=counter_reduce(config.epsilon)
    )

    series: Dict[Tuple[str, float], np.ndarray] = {}
    convergence: Dict[Tuple[str, float], float] = {}
    for (protocol_name, share), result in zip(grid, results):
        unfair = result.unfair_probabilities(epsilon=config.epsilon)
        series[(protocol_name, share)] = unfair
        convergence[(protocol_name, share)] = convergence_time(
            result.checkpoints, unfair, config.delta
        )
    return Figure3Result(
        config=config,
        checkpoints=np.asarray(checkpoints),
        series=series,
        convergence=convergence,
    )
