"""High-level mining-game facade tying protocols, simulation and fairness.

:class:`MiningGame` is the main entry point of the library: it couples
an incentive protocol with an initial allocation, runs the Monte Carlo
engine, and produces a :class:`FairnessReport` combining the empirical
verdicts of Definitions 3.1/4.1 with the paper's theoretical
predictions for that protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .._validation import ensure_epsilon_delta, ensure_positive_int
from ..protocols.base import IncentiveProtocol
from ..protocols.c_pos import CompoundPoS
from ..protocols.extended import AlgorandPoS, EOSDelegatedPoS, NeoPoS
from ..protocols.fsl_pos import FairSingleLotteryPoS
from ..protocols.ml_pos import MultiLotteryPoS
from ..protocols.pow import ProofOfWork
from ..protocols.sl_pos import SingleLotteryPoS
from ..protocols.withholding import RewardWithholding
from .fairness import (
    DEFAULT_DELTA,
    DEFAULT_EPSILON,
    ExpectationalVerdict,
    RobustVerdict,
)
from .miners import Allocation
from .results import EnsembleResult, SeriesSummary

__all__ = ["TheoreticalPrediction", "FairnessReport", "MiningGame", "predict"]


@dataclass(frozen=True)
class TheoreticalPrediction:
    """What the paper's theorems predict for a protocol.

    Attributes
    ----------
    expectational:
        Whether expectational fairness is guaranteed (None = depends on
        parameters in a way the paper does not settle).
    robust:
        Whether robust fairness is achievable at the requested
        ``(epsilon, delta)`` within the given horizon — True when the
        sufficient condition holds, False when the paper proves failure
        (SL-PoS), None when the sufficient condition fails but no
        impossibility is known (the ML-PoS grey zone).
    source:
        The theorem(s) backing the prediction.
    """

    expectational: Optional[bool]
    robust: Optional[bool]
    source: str


def predict(
    protocol: IncentiveProtocol,
    share: float,
    horizon: int,
    *,
    epsilon: float = DEFAULT_EPSILON,
    delta: float = DEFAULT_DELTA,
) -> TheoreticalPrediction:
    """Theoretical fairness prediction for ``protocol`` (Sections 3-4, 6.4).

    Unwraps :class:`RewardWithholding` (the wrapper preserves the inner
    protocol's expectational fairness and can only improve robustness,
    Section 6.3).
    """
    ensure_epsilon_delta(epsilon, delta)
    ensure_positive_int("horizon", horizon)
    from ..theory.bounds import (
        CPoSFairnessBound,
        MLPoSFairnessBound,
        PoWFairnessBound,
    )

    if isinstance(protocol, RewardWithholding):
        inner = predict(
            protocol.inner, share, horizon, epsilon=epsilon, delta=delta
        )
        return TheoreticalPrediction(
            expectational=inner.expectational,
            robust=True if inner.robust else None,
            source=f"{inner.source} + Section 6.3 (withholding improves robustness)",
        )
    if isinstance(protocol, (ProofOfWork, NeoPoS)):
        sufficient = PoWFairnessBound(epsilon, delta, share).is_sufficient(horizon)
        return TheoreticalPrediction(
            expectational=True,
            robust=True if sufficient else None,
            source="Theorems 3.2, 4.2",
        )
    if isinstance(protocol, SingleLotteryPoS):
        return TheoreticalPrediction(
            expectational=False, robust=False, source="Theorems 3.4, 4.9"
        )
    if isinstance(protocol, CompoundPoS):
        sufficient = CPoSFairnessBound(epsilon, delta, share).is_sufficient(
            horizon,
            protocol.shards,
            protocol.proposer_reward,
            protocol.inflation_reward,
        )
        return TheoreticalPrediction(
            expectational=True,
            robust=True if sufficient else None,
            source="Theorems 3.5, 4.10",
        )
    if isinstance(protocol, (MultiLotteryPoS, FairSingleLotteryPoS)):
        sufficient = MLPoSFairnessBound(epsilon, delta, share).is_sufficient(
            horizon, protocol.reward
        )
        return TheoreticalPrediction(
            expectational=True,
            robust=True if sufficient else None,
            source="Theorems 3.3, 4.3 (FSL-PoS: Section 6.2)",
        )
    if isinstance(protocol, AlgorandPoS):
        return TheoreticalPrediction(
            expectational=True, robust=True, source="Section 6.4 (Algorand)"
        )
    if isinstance(protocol, EOSDelegatedPoS):
        return TheoreticalPrediction(
            expectational=False, robust=False, source="Section 6.4 (EOS)"
        )
    return TheoreticalPrediction(
        expectational=None, robust=None, source="no closed-form result"
    )


@dataclass(frozen=True)
class FairnessReport:
    """Joint empirical + theoretical fairness assessment of one game."""

    protocol_name: str
    share: float
    horizon: int
    trials: int
    epsilon: float
    delta: float
    expectational: ExpectationalVerdict
    robust: RobustVerdict
    convergence_time: float
    prediction: TheoreticalPrediction
    summary: SeriesSummary

    def consistent_with_theory(self) -> bool:
        """Whether the empirical verdicts match the definite predictions.

        ``None`` predictions (parameter-dependent cases) are treated as
        compatible with any outcome.
        """
        checks = []
        if self.prediction.expectational is not None:
            checks.append(
                self.expectational.is_fair == self.prediction.expectational
            )
        if self.prediction.robust is not None:
            checks.append(self.robust.is_fair == self.prediction.robust)
        return all(checks)

    def render(self) -> str:
        """Human-readable multi-line report."""
        exp = self.expectational
        rob = self.robust
        lines = [
            f"protocol            : {self.protocol_name}",
            f"initial share a     : {self.share:.4f}",
            f"horizon             : {self.horizon}",
            f"trials              : {self.trials}",
            f"E[lambda_A]         : {exp.sample_mean:.4f}"
            f" (target {exp.share:.4f}, stderr {exp.standard_error:.2g})",
            f"expectational fair  : {exp.is_fair}"
            f" (theory: {self.prediction.expectational})",
            f"fair area           : [{rob.fair_area.lower:.4f}, {rob.fair_area.upper:.4f}]",
            f"unfair probability  : {rob.unfair_probability:.4f} (delta {self.delta})",
            f"robustly fair       : {rob.is_fair} (theory: {self.prediction.robust})",
            f"convergence time    : "
            + ("never" if self.convergence_time == float("inf")
               else f"{self.convergence_time:.0f}"),
            f"theory source       : {self.prediction.source}",
        ]
        return "\n".join(lines)


class MiningGame:
    """A mining game: protocol + allocation, analysable in one call.

    Parameters
    ----------
    protocol:
        Any :class:`~repro.protocols.IncentiveProtocol`.
    allocation:
        Initial resource allocation; the focal miner is index 0.

    Examples
    --------
    >>> from repro.protocols import ProofOfWork
    >>> game = MiningGame(ProofOfWork(reward=0.01), Allocation.two_miners(0.2))
    >>> report = game.play(horizon=2000, trials=500, seed=7)
    >>> report.expectational.is_fair and report.robust.is_fair
    True
    """

    def __init__(self, protocol: IncentiveProtocol, allocation: Allocation) -> None:
        self.protocol = protocol
        self.allocation = allocation

    def simulate(
        self,
        horizon: int,
        trials: int = 10_000,
        *,
        checkpoints: Optional[Sequence[int]] = None,
        events: Sequence = (),
        seed=None,
        record_terminal_stakes: bool = True,
        workers: int = 1,
        cache=None,
        kernel: str = "batched",
    ) -> EnsembleResult:
        """Run the Monte Carlo engine and return the raw ensemble result.

        ``workers`` > 1 shards the ensemble across a process pool via
        :class:`repro.runtime.ParallelRunner`; ``cache`` (a directory or
        :class:`repro.runtime.ResultCache`) memoises the merged result
        under the spec's content address.  ``events`` and
        ``record_terminal_stakes`` are forwarded on *both* the serial
        and the sharded path; an unsupported knob combination raises
        instead of being silently ignored.  ``kernel`` selects the
        fused batched advance (default) or the naive per-round loop —
        bit-identical outputs either way.

        .. note::
           Setting ``workers`` or ``cache`` switches to the *sharded*
           random-stream layout: results are bit-identical across any
           ``workers`` count (and across cache hits) but not
           bit-identical to the plain single-stream run without these
           knobs — the ensembles are statistically identical, the
           per-trial draws differ.
        """
        if workers > 1 or cache is not None:
            from ..runtime.runner import ParallelRunner
            from ..runtime.spec import SimulationSpec

            spec = SimulationSpec(
                protocol=self.protocol,
                allocation=self.allocation,
                trials=trials,
                horizon=horizon,
                checkpoints=None if checkpoints is None else tuple(checkpoints),
                events=tuple(events),
                seed=seed,
                record_terminal_stakes=record_terminal_stakes,
                kernel=kernel,
            )
            return ParallelRunner(workers=workers, cache=cache).run(spec)
        from ..sim.engine import MonteCarloEngine

        engine = MonteCarloEngine(
            self.protocol, self.allocation, trials=trials, seed=seed,
            kernel=kernel,
        )
        return engine.run(
            horizon,
            checkpoints,
            events=events,
            record_terminal_stakes=record_terminal_stakes,
        )

    def play(
        self,
        horizon: int,
        trials: int = 10_000,
        *,
        epsilon: float = DEFAULT_EPSILON,
        delta: float = DEFAULT_DELTA,
        checkpoints: Optional[Sequence[int]] = None,
        events: Sequence = (),
        seed=None,
        record_terminal_stakes: bool = True,
        workers: int = 1,
        cache=None,
        kernel: str = "batched",
    ) -> FairnessReport:
        """Simulate and return a full fairness report for the focal miner.

        Accepts every :meth:`simulate` knob and forwards them all —
        including ``events`` and ``record_terminal_stakes`` on the
        sharded path.
        """
        result = self.simulate(
            horizon,
            trials,
            checkpoints=checkpoints,
            events=events,
            seed=seed,
            record_terminal_stakes=record_terminal_stakes,
            workers=workers,
            cache=cache,
            kernel=kernel,
        )
        share = self.allocation.focal_share
        return FairnessReport(
            protocol_name=self.protocol.name,
            share=share,
            horizon=horizon,
            trials=trials,
            epsilon=epsilon,
            delta=delta,
            expectational=result.expectational_verdict(),
            robust=result.robust_verdict(epsilon=epsilon, delta=delta),
            convergence_time=result.convergence_time(epsilon=epsilon, delta=delta),
            prediction=predict(
                self.protocol, share, horizon, epsilon=epsilon, delta=delta
            ),
            summary=result.summary(epsilon=epsilon),
        )

    def __repr__(self) -> str:
        return f"MiningGame({self.protocol.name!r}, {self.allocation!r})"
