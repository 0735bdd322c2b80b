"""Figure 5: unfair probability under varying rewards ``w`` and ``v``.

Four panels, all with ``a = 0.2``, ``epsilon = delta = 0.1``:

* (a) ML-PoS, ``w`` in {1e-4, ..., 1e-1};
* (b) SL-PoS, same rewards;
* (c) C-PoS, same rewards with ``v = 0.1``;
* (d) C-PoS, ``w = 0.01`` with ``v`` in {0, 0.01, 0.1}.

Expected shapes (paper Section 5.4.2): ML-PoS unfairness grows sharply
with ``w`` (>=85% at ``w = 0.1``, tiny at ``w = 1e-4``); SL-PoS sits
near 1 for every ``w``; C-PoS mirrors ML-PoS far lower; raising ``v``
from 0 to 0.1 collapses the unfair probability from ~70% to ~10%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..core.miners import Allocation
from ..protocols.c_pos import CompoundPoS
from ..protocols.ml_pos import MultiLotteryPoS
from ..protocols.sl_pos import SingleLotteryPoS
from ..sim.checkpoints import geometric_checkpoints
from ..sim.rng import RandomSource
from ._common import GridCell, counter_reduce, run_simulation_grid
from .config import DEFAULT, Preset
from .report import render_table, subsample_rows

__all__ = ["Figure5Config", "Figure5Result", "run"]


@dataclass(frozen=True)
class Figure5Config:
    """Parameters of Figure 5 (paper defaults)."""

    share: float = 0.2
    rewards: Tuple[float, ...] = (1e-4, 1e-3, 1e-2, 1e-1)
    inflations: Tuple[float, ...] = (0.0, 0.01, 0.1)
    fixed_reward: float = 0.01
    fixed_inflation: float = 0.1
    shards: int = 32
    horizon: int = 2000
    epsilon: float = 0.1
    delta: float = 0.1
    preset: Preset = DEFAULT
    seed: int = 2021


@dataclass
class Figure5Result:
    """Unfair-probability series for the four panels."""

    config: Figure5Config
    checkpoints: np.ndarray
    ml_pos_by_reward: Dict[float, np.ndarray]
    sl_pos_by_reward: Dict[float, np.ndarray]
    c_pos_by_reward: Dict[float, np.ndarray]
    c_pos_by_inflation: Dict[float, np.ndarray]

    def _panel(self, title: str, series: Dict[float, np.ndarray], label: str,
               max_rows: int) -> str:
        headers = ["n"] + [f"{label}={key:g}" for key in sorted(series)]
        rows = []
        for i, n in enumerate(self.checkpoints):
            rows.append([int(n)] + [float(series[key][i]) for key in sorted(series)])
        return render_table(headers, subsample_rows(rows, max_rows), title=title)

    def render(self, *, max_rows: int = 10) -> str:
        return "\n\n".join(
            [
                self._panel(
                    "Figure 5(a): ML-PoS unfair probability by block reward",
                    self.ml_pos_by_reward, "w", max_rows,
                ),
                self._panel(
                    "Figure 5(b): SL-PoS unfair probability by block reward",
                    self.sl_pos_by_reward, "w", max_rows,
                ),
                self._panel(
                    f"Figure 5(c): C-PoS unfair probability by proposer reward "
                    f"(v={self.config.fixed_inflation:g})",
                    self.c_pos_by_reward, "w", max_rows,
                ),
                self._panel(
                    f"Figure 5(d): C-PoS unfair probability by inflation reward "
                    f"(w={self.config.fixed_reward:g})",
                    self.c_pos_by_inflation, "v", max_rows,
                ),
            ]
        )

    def to_dict(self) -> dict:
        def pack(series: Dict[float, np.ndarray]) -> dict:
            return {f"{k:g}": v.tolist() for k, v in series.items()}

        return {
            "checkpoints": self.checkpoints.tolist(),
            "ml_pos_by_reward": pack(self.ml_pos_by_reward),
            "sl_pos_by_reward": pack(self.sl_pos_by_reward),
            "c_pos_by_reward": pack(self.c_pos_by_reward),
            "c_pos_by_inflation": pack(self.c_pos_by_inflation),
        }


def run(config: Figure5Config = Figure5Config()) -> Figure5Result:
    """Run the Figure 5 experiment."""
    preset = config.preset
    source = RandomSource(config.seed)
    horizon = preset.horizon(config.horizon)
    checkpoints = geometric_checkpoints(horizon, count=30, first=10)
    allocation = Allocation.two_miners(config.share)

    # All four panels as one grid, in the panel order the per-cell
    # loops used to consume child streams: (a) ML-PoS by w, (b) SL-PoS
    # by w, (c) C-PoS by w, (d) C-PoS by v.  For panel (d), Theorem
    # 4.10 degenerates to ML-PoS sharded over P blocks at v=0;
    # CompoundPoS supports v=0 directly.
    protocols = (
        [MultiLotteryPoS(w) for w in config.rewards]
        + [SingleLotteryPoS(w) for w in config.rewards]
        + [
            CompoundPoS(w, config.fixed_inflation, config.shards)
            for w in config.rewards
        ]
        + [
            CompoundPoS(config.fixed_reward, v, config.shards)
            for v in config.inflations
        ]
    )
    cells = [
        GridCell(protocol, allocation, horizon, preset.trials, checkpoints)
        for protocol in protocols
    ]
    unfair = [
        result.unfair_probabilities(epsilon=config.epsilon)
        for result in run_simulation_grid(
            cells, source, reduce=counter_reduce(config.epsilon)
        )
    ]

    panels = iter(unfair)
    ml_pos = {w: next(panels) for w in config.rewards}
    sl_pos = {w: next(panels) for w in config.rewards}
    c_pos_w = {w: next(panels) for w in config.rewards}
    c_pos_v = {v: next(panels) for v in config.inflations}

    return Figure5Result(
        config=config,
        checkpoints=np.asarray(checkpoints),
        ml_pos_by_reward=ml_pos,
        sl_pos_by_reward=sl_pos,
        c_pos_by_reward=c_pos_w,
        c_pos_by_inflation=c_pos_v,
    )
