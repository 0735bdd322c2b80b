"""Shared plumbing for the experiment modules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.miners import Allocation
from ..core.results import EnsembleResult, SeriesSummary
from ..protocols.base import IncentiveProtocol
from ..protocols.c_pos import CompoundPoS
from ..protocols.fsl_pos import FairSingleLotteryPoS
from ..protocols.ml_pos import MultiLotteryPoS
from ..protocols.pow import ProofOfWork
from ..protocols.sl_pos import SingleLotteryPoS
from ..sim.engine import MonteCarloEngine
from ..sim.rng import RandomSource

__all__ = [
    "PAPER_PROTOCOL_ORDER",
    "GridCell",
    "SystemGridCell",
    "build_protocol",
    "run_simulation",
    "run_simulation_grid",
    "run_system",
    "run_system_grid",
]

#: The order in which the paper presents the four protocols.
PAPER_PROTOCOL_ORDER = ("PoW", "ML-PoS", "SL-PoS", "C-PoS")


def build_protocol(
    key: str,
    *,
    reward: float,
    inflation: float = 0.1,
    shards: int = 32,
) -> IncentiveProtocol:
    """Construct one of the paper's four protocols by display name."""
    if key == "PoW":
        return ProofOfWork(reward=reward)
    if key == "ML-PoS":
        return MultiLotteryPoS(reward=reward)
    if key == "SL-PoS":
        return SingleLotteryPoS(reward=reward)
    if key == "C-PoS":
        return CompoundPoS(
            proposer_reward=reward, inflation_reward=inflation, shards=shards
        )
    if key == "FSL-PoS":
        return FairSingleLotteryPoS(reward=reward)
    raise ValueError(f"unknown protocol key {key!r}")


@dataclass(frozen=True)
class GridCell:
    """One Monte Carlo configuration in an experiment grid."""

    protocol: IncentiveProtocol
    allocation: Allocation
    horizon: int
    trials: int
    checkpoints: Optional[Sequence[int]] = None


def run_simulation_grid(
    cells: Sequence[GridCell], source: RandomSource
) -> List[EnsembleResult]:
    """Run a grid of Monte Carlo configurations on child random streams.

    One child stream of ``source`` is consumed per cell, in cell order
    — exactly like a loop of :func:`run_simulation` calls, so results
    are bit-identical to the per-cell path.  When an ambient
    :class:`~repro.runtime.ParallelRunner` is configured
    (``--workers``/``--cache``), every uncached shard of the whole grid
    goes to the pool in a single dispatch via
    :meth:`~repro.runtime.ParallelRunner.run_many`: each cell's
    shards fold as they complete and the cell's artifact is cached the
    moment its last shard lands, so grid-wide peak memory holds
    ``O(workers)`` shard results rather than every shard of every
    cell.  Otherwise cells run serially in-process.
    """
    from ..runtime.context import get_default_runtime
    from ..runtime.spec import SimulationSpec

    cells = list(cells)
    seeds = [source.spawn_one() for _ in cells]
    runtime = get_default_runtime()
    if runtime is not None:
        # The runtime's ambient ``reduce`` lands on every spec it
        # builds — a physics knob, so it enters each spec's fingerprint
        # and stats grids never collide with full ones in the cache.
        specs = [
            SimulationSpec(
                protocol=cell.protocol,
                allocation=cell.allocation,
                trials=cell.trials,
                horizon=cell.horizon,
                checkpoints=(
                    None
                    if cell.checkpoints is None
                    else tuple(cell.checkpoints)
                ),
                seed=seed,
                reduce=getattr(runtime, "reduce", "full"),
            )
            for cell, seed in zip(cells, seeds)
        ]
        return runtime.run_many(specs)
    return [
        MonteCarloEngine(
            cell.protocol, cell.allocation, trials=cell.trials, seed=seed
        ).run(cell.horizon, cell.checkpoints)
        for cell, seed in zip(cells, seeds)
    ]


def run_simulation(
    protocol: IncentiveProtocol,
    allocation: Allocation,
    horizon: int,
    trials: int,
    source: RandomSource,
    checkpoints: Optional[Sequence[int]] = None,
) -> EnsembleResult:
    """Run one Monte Carlo configuration on a child random stream.

    The single-cell case of :func:`run_simulation_grid`: exactly one
    child stream of ``source`` is consumed, and the ensemble is
    sharded/cached through the ambient runtime when one is configured.
    """
    cell = GridCell(protocol, allocation, horizon, trials, checkpoints)
    return run_simulation_grid([cell], source)[0]


@dataclass(frozen=True)
class SystemGridCell:
    """One node-level system configuration in an experiment grid.

    ``experiment`` is a
    :class:`~repro.chainsim.harness.SystemExperiment`; ``rounds`` and
    ``repeats`` mirror its ``run`` arguments.
    """

    experiment: "object"
    rounds: int
    repeats: int
    checkpoints: Optional[Sequence[int]] = None


def run_system_grid(
    cells: Sequence[SystemGridCell], source: RandomSource
) -> List[EnsembleResult]:
    """Run a grid of node-level system configurations on child streams.

    The :class:`SystemGridCell` counterpart of
    :func:`run_simulation_grid`: one child stream of ``source`` is
    consumed per cell, in cell order — exactly like a loop of
    ``cell.experiment.run(...)`` calls, so results are bit-identical to
    the per-cell path.  When an ambient
    :class:`~repro.runtime.ParallelRunner` is configured
    (``--workers``/``--cache``), every uncached shard of every cell —
    e.g. all four protocols of Figure 2's system sweep — goes to the
    pool in a *single* :meth:`~repro.runtime.ParallelRunner.run_system_many`
    dispatch under the grid-wide shard progress line (streaming merge
    by default, exactly like :func:`run_simulation_grid`); otherwise
    cells run serially in-process.
    """
    from ..runtime.context import get_default_runtime
    from ..runtime.spec import SystemSpec

    cells = list(cells)
    seeds = [source.spawn_one() for _ in cells]
    runtime = get_default_runtime()
    if runtime is not None:
        specs = [
            SystemSpec(
                experiment=cell.experiment,
                rounds=cell.rounds,
                repeats=cell.repeats,
                checkpoints=(
                    None
                    if cell.checkpoints is None
                    else tuple(cell.checkpoints)
                ),
                seed=seed,
                reduce=getattr(runtime, "reduce", "full"),
            )
            for cell, seed in zip(cells, seeds)
        ]
        return runtime.run_system_many(specs)
    return [
        cell.experiment.run(
            cell.rounds,
            cell.repeats,
            checkpoints=cell.checkpoints,
            seed=seed,
        )
        for cell, seed in zip(cells, seeds)
    ]


def run_system(
    experiment: "object",
    rounds: int,
    repeats: int,
    source: RandomSource,
    checkpoints: Optional[Sequence[int]] = None,
) -> EnsembleResult:
    """Run one system configuration on a child random stream.

    The single-cell case of :func:`run_system_grid`.
    """
    cell = SystemGridCell(experiment, rounds, repeats, checkpoints)
    return run_system_grid([cell], source)[0]
