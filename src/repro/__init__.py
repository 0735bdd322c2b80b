"""repro — fairness analysis for blockchain incentives.

A production-quality reproduction of

    Huang, Tang, Cong, Lim, Xu.
    "Do the Rich Get Richer? Fairness Analysis for Blockchain
    Incentives." SIGMOD 2021.

The package provides:

* executable incentive models — PoW, ML-PoS (Qtum/Blackcoin), SL-PoS
  (NXT), C-PoS (Ethereum 2.0), the FSL-PoS and reward-withholding
  remedies, and the Section 6.4 extensions (:mod:`repro.protocols`);
* the paper's fairness notions and metrics (:mod:`repro.core`);
* the analytical toolkit — win laws, Hoeffding/Azuma bounds, Polya
  urns, stochastic approximation (:mod:`repro.theory`);
* a vectorised Monte Carlo engine (:mod:`repro.sim`);
* a node-level blockchain substrate standing in for the paper's
  Geth/Qtum/NXT testbeds (:mod:`repro.chainsim`);
* sharded parallel execution and a content-addressed result cache
  (:mod:`repro.runtime`);
* runnable reproductions of every figure and table
  (:mod:`repro.experiments`).

Quickstart
----------
>>> import repro
>>> game = repro.MiningGame(
...     repro.protocols.ProofOfWork(reward=0.01),
...     repro.Allocation.two_miners(0.2))
>>> report = game.play(horizon=2000, trials=500, seed=42)
>>> report.robust.is_fair
True
"""

from . import analysis, core, protocols, runtime, sim, theory
from .core import (
    Allocation,
    EnsembleResult,
    ExpectationalFairness,
    FairArea,
    FairnessReport,
    MiningGame,
    RobustFairness,
    predict,
)
from .runtime import ParallelRunner, ResultCache, SimulationSpec
from .sim import MonteCarloEngine, RandomSource, simulate

__version__ = "1.7.0"

__all__ = [
    "analysis",
    "core",
    "protocols",
    "runtime",
    "sim",
    "theory",
    "ParallelRunner",
    "ResultCache",
    "SimulationSpec",
    "Allocation",
    "EnsembleResult",
    "ExpectationalFairness",
    "FairArea",
    "FairnessReport",
    "MiningGame",
    "RobustFairness",
    "predict",
    "MonteCarloEngine",
    "RandomSource",
    "simulate",
    "__version__",
]
