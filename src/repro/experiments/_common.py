"""Shared plumbing for the experiment modules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.fairness import DEFAULT_EPSILON
from ..core.miners import Allocation
from ..core.results import EnsembleResult
from ..protocols.base import IncentiveProtocol
from ..protocols.c_pos import CompoundPoS
from ..protocols.fsl_pos import FairSingleLotteryPoS
from ..protocols.ml_pos import MultiLotteryPoS
from ..protocols.pow import ProofOfWork
from ..protocols.sl_pos import SingleLotteryPoS
from ..sim.rng import RandomSource

__all__ = [
    "PAPER_PROTOCOL_ORDER",
    "GridCell",
    "SystemGridCell",
    "build_protocol",
    "counter_reduce",
    "run_simulation",
    "run_simulation_grid",
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


def counter_reduce(epsilon: float) -> str:
    """The ``reduce`` mode of a grid that reads only counters and moments.

    Figures 3 and 5 plot unfair counts; Table 1 and the Section 6.4
    survey also print a mean final fraction, and Section 6.4 an
    equitability, which is one variance.  A ``"stats"`` artifact counts
    unfair trials exactly at the recorded epsilon (``DEFAULT_EPSILON``)
    and refuses every other epsilon (:mod:`repro.core.stats`), so such
    a grid folds to ``"stats"`` only at that epsilon and keeps the
    ``"full"`` cube otherwise.  Either way its counters, convergence
    times and verdict flags are exact, never approximate; its moments
    come from Chan-merged shard moments, so they match full mode to
    float tolerance.
    """
    return "stats" if epsilon == DEFAULT_EPSILON else "full"


@dataclass(frozen=True)
class GridCell:
    """One Monte Carlo configuration in an experiment grid."""

    protocol: IncentiveProtocol
    allocation: Allocation
    horizon: int
    trials: int
    checkpoints: Optional[Sequence[int]] = None


def run_simulation_grid(
    cells: Sequence[GridCell], source: RandomSource, *, reduce: str = "full"
) -> List[EnsembleResult]:
    """Run a grid of Monte Carlo configurations on child random streams.

    One child stream of ``source`` is consumed per cell, in cell order
    — exactly like a loop of :func:`run_simulation` calls, so results
    are bit-identical to the per-cell path.  Every cell becomes a
    :class:`~repro.runtime.SimulationSpec` and the whole grid runs on
    the ambient :class:`~repro.runtime.ParallelRunner` (a serial,
    uncached one unless the CLI or :func:`~repro.runtime.using_runtime`
    installed another) in a single
    :meth:`~repro.runtime.ParallelRunner.run_many` dispatch: each
    cell's shards fold as they complete and the cell's artifact is
    cached the moment its last shard lands, so grid-wide peak memory
    holds ``O(workers)`` shard results rather than every shard of
    every cell.  The numbers depend on the seed and the shard plan
    only, never on the worker count or the cache.

    ``reduce`` is the artifact shape the calling figure needs:
    ``"full"`` trajectory cubes, or ``"stats"`` moments and exact
    counters (see :func:`counter_reduce`).  It lands on every spec and
    enters its fingerprint, so stats grids never collide with full ones
    in the cache.
    """
    from ..runtime.context import get_default_runtime
    from ..runtime.spec import SimulationSpec

    cells = list(cells)
    seeds = [source.spawn_one() for _ in cells]
    runtime = get_default_runtime()
    specs = [
        SimulationSpec(
            protocol=cell.protocol,
            allocation=cell.allocation,
            trials=cell.trials,
            horizon=cell.horizon,
            checkpoints=(
                None if cell.checkpoints is None else tuple(cell.checkpoints)
            ),
            seed=seed,
            reduce=reduce,
        )
        for cell, seed in zip(cells, seeds)
    ]
    return runtime.run_many(specs)


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
    child stream of ``source`` is consumed, and the ensemble runs on
    the ambient runtime.
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
    the per-cell path.  Every uncached shard of every cell — e.g. all
    four protocols of Figure 2's system sweep — goes to the ambient
    runner in a *single*
    :meth:`~repro.runtime.ParallelRunner.run_system_many` dispatch
    under the grid-wide shard progress line, exactly like
    :func:`run_simulation_grid`.
    """
    from ..runtime.context import get_default_runtime
    from ..runtime.spec import SystemSpec

    cells = list(cells)
    seeds = [source.spawn_one() for _ in cells]
    runtime = get_default_runtime()
    specs = [
        SystemSpec(
            experiment=cell.experiment,
            rounds=cell.rounds,
            repeats=cell.repeats,
            checkpoints=(
                None if cell.checkpoints is None else tuple(cell.checkpoints)
            ),
            seed=seed,
        )
        for cell, seed in zip(cells, seeds)
    ]
    return runtime.run_system_many(specs)
