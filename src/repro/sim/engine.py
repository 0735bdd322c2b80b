"""The vectorised Monte Carlo engine.

Runs many independent mining games simultaneously as ``(trials,
miners)`` array operations, recording reward fractions at checkpoints.
This is the "numerical simulations" half of the paper's evaluation
(10,000 repeats); :mod:`repro.chainsim` provides the slower
node-level counterpart of the real-system half.

Each segment between checkpoint/event boundaries advances through the
fused batched kernels (:mod:`repro.sim.kernels`) by default; the
``kernel="naive"`` escape hatch runs the original per-round loop
instead.  The two paths are bit-identical — the knob exists for
differential testing and as a safety valve, not because results
differ.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .._validation import ensure_positive_int
from ..core.miners import Allocation
from ..core.results import EnsembleResult
from ..core.stats import StatsCollector, ensure_reduce_mode
from ..obs.trace import get_tracer
from ..protocols.base import EnsembleState, IncentiveProtocol
from .checkpoints import linear_checkpoints, validate_checkpoints
from .events import GameEvent, plan_segments
from .kernels import batched_advance, ensure_kernel_mode
from .rng import RandomSource, SeedLike, TrialSplitGenerator

__all__ = ["MonteCarloEngine", "simulate"]

#: One ensemble of an engine: ``(allocation, trials, seed source)``.
_Member = Tuple[Allocation, int, RandomSource]


class MonteCarloEngine:
    """Simulate an ensemble of independent mining games.

    Parameters
    ----------
    protocol:
        The incentive model to run.
    allocation:
        Initial resource allocation (shared by every trial).
    trials:
        Number of independent games (the paper uses 10,000 for
        simulations, 500 for PoS system experiments).
    seed:
        Seed, :class:`~repro.sim.rng.RandomSource`, or generator for
        reproducibility.
    kernel:
        ``"batched"`` (default) advances segments through the fused
        kernels of :mod:`repro.sim.kernels`; ``"naive"`` loops the
        protocol's per-round ``step``.  Bit-identical outputs either
        way — the naive path is kept for differential testing.

    Examples
    --------
    >>> from repro.protocols import MultiLotteryPoS
    >>> from repro.core.miners import Allocation
    >>> engine = MonteCarloEngine(
    ...     MultiLotteryPoS(reward=0.01), Allocation.two_miners(0.2),
    ...     trials=200, seed=1)
    >>> result = engine.run(horizon=500)
    >>> abs(result.expectational_verdict().sample_mean - 0.2) < 0.1
    True
    """

    def __init__(
        self,
        protocol: IncentiveProtocol,
        allocation: Allocation,
        trials: int = 10_000,
        seed: SeedLike = None,
        kernel: str = "batched",
    ) -> None:
        if not isinstance(protocol, IncentiveProtocol):
            raise TypeError(
                f"protocol must be an IncentiveProtocol, got {type(protocol).__name__}"
            )
        if not isinstance(allocation, Allocation):
            raise TypeError(
                f"allocation must be an Allocation, got {type(allocation).__name__}"
            )
        self.protocol = protocol
        self.allocation = allocation
        self.trials = ensure_positive_int("trials", trials)
        self.kernel = ensure_kernel_mode(kernel)
        source = seed if isinstance(seed, RandomSource) else RandomSource(seed)
        self._members: Tuple[_Member, ...] = ((allocation, self.trials, source),)
        self._fused = False

    @classmethod
    def fused(
        cls,
        protocol: IncentiveProtocol,
        members: Sequence[Tuple[Allocation, int, SeedLike]],
        kernel: str = "batched",
    ) -> "MonteCarloEngine":
        """One engine over several independent ensembles of ``protocol``.

        ``members`` lists ``(allocation, trials, seed)`` triples whose
        allocations share a miner count.  :meth:`run` advances them as
        one :class:`~repro.protocols.base.EnsembleState` whose trial
        axis concatenates the members, so every segment is one kernel
        call at the summed width, while each member draws its own
        trials' variates from its own seed's stream through a
        :class:`~repro.sim.rng.TrialSplitGenerator`.  It returns a list
        of per-member results, each bit-identical to
        ``MonteCarloEngine(protocol, allocation, trials, seed).run(...)``.
        """
        fused: List[_Member] = []
        for allocation, trials, seed in members:
            if not isinstance(allocation, Allocation):
                raise TypeError(
                    f"allocation must be an Allocation, got "
                    f"{type(allocation).__name__}"
                )
            if fused and allocation.size != fused[0][0].size:
                raise ValueError(
                    f"fused members must share a miner count, got "
                    f"{allocation.size} and {fused[0][0].size}"
                )
            # Wrap each seed once: wrapping a Generator draws from it.
            source = seed if isinstance(seed, RandomSource) else RandomSource(seed)
            fused.append(
                (allocation, ensure_positive_int("trials", trials), source)
            )
        if not fused:
            raise ValueError("a fused engine needs at least one member")
        engine = cls(protocol, *fused[0], kernel)
        engine._members = tuple(fused)
        engine.trials = sum(trials for _, trials, _ in fused)
        engine._fused = True
        return engine

    def run(
        self,
        horizon: int,
        checkpoints: Optional[Sequence[int]] = None,
        *,
        events: Sequence[GameEvent] = (),
        record_terminal_stakes: bool = True,
        reduce: str = "full",
    ):
        """Run every trial for ``horizon`` rounds.

        Parameters
        ----------
        horizon:
            Total number of blocks/epochs per game.
        checkpoints:
            Rounds at which to record reward fractions; defaults to 50
            evenly spaced checkpoints.  The horizon itself is always
            recorded.
        events:
            Optional scheduled perturbations (see
            :mod:`repro.sim.events`).
        record_terminal_stakes:
            Whether to keep the final stake matrix in the result.
        reduce:
            ``"full"`` (default) materialises the ``(trials,
            checkpoints, miners)`` trajectory cube into an
            :class:`EnsembleResult`; ``"stats"`` folds each checkpoint
            straight into mergeable sufficient statistics and returns
            a :class:`~repro.core.stats.StatsSummary` — the cube is
            never allocated, so memory stays O(trials x miners).

        Returns
        -------
        EnsembleResult or StatsSummary
            One per member, in a list, for an engine built by
            :meth:`fused`.
        """
        horizon = ensure_positive_int("horizon", horizon)
        ensure_reduce_mode(reduce)
        if checkpoints is None:
            checkpoint_list = linear_checkpoints(horizon)
        else:
            checkpoint_list = validate_checkpoints(checkpoints, horizon)
        event_list = sorted(events, key=lambda e: e.round_index)
        for event in event_list:
            if event.round_index > horizon:
                raise ValueError(
                    f"event at round {event.round_index} exceeds horizon {horizon}"
                )

        rows = []
        start = 0
        for _, trials, _ in self._members:
            rows.append(slice(start, start + trials))
            start += trials
        generators = [
            source.spawn_one().generator() for _, _, source in self._members
        ]
        states = [
            self.protocol.make_state(allocation, trials)
            for allocation, trials, _ in self._members
        ]
        if len(states) == 1:
            rng = generators[0]
            state = states[0]
        else:
            rng = TrialSplitGenerator(
                generators, [trials for _, trials, _ in self._members]
            )
            state = EnsembleState.concatenate(states)
        del states  # a fused state copied the members' arrays

        collectors: Optional[List[StatsCollector]] = None
        fractions: Optional[np.ndarray] = None
        if reduce == "stats":
            collectors = [
                StatsCollector(
                    protocol_name=self.protocol.name,
                    allocation=allocation,
                    checkpoints=checkpoint_list,
                    round_unit=self.protocol.round_unit,
                )
                for allocation, _, _ in self._members
            ]
        else:
            fractions = np.empty(
                (self.trials, len(checkpoint_list), self.allocation.size)
            )
        boundaries = plan_segments(checkpoint_list, event_list)
        checkpoint_positions = {c: i for i, c in enumerate(checkpoint_list)}
        pending_events = list(event_list)

        # Fire any events scheduled before the first round.
        while pending_events and pending_events[0].round_index == 0:
            pending_events.pop(0).apply(state)

        previous = 0
        for boundary in boundaries:
            gap = boundary - previous
            if gap > 0:
                self._advance(state, gap, rng)
            previous = boundary
            while pending_events and pending_events[0].round_index == boundary:
                pending_events.pop(0).apply(state)
            position = checkpoint_positions.get(boundary)
            if position is not None:
                issued = self.protocol.total_issued(boundary)
                if collectors is not None:
                    for collector, member in zip(collectors, rows):
                        collector.observe(position, state.rewards[member] / issued)
                else:
                    fractions[:, position, :] = state.rewards / issued

        if collectors is not None:
            results = []
            for collector, member in zip(collectors, rows):
                if record_terminal_stakes:
                    collector.observe_terminal(state.stakes[member])
                results.append(collector.build(member.stop - member.start))
        else:
            results = [
                EnsembleResult(
                    protocol_name=self.protocol.name,
                    allocation=allocation,
                    checkpoints=checkpoint_list,
                    reward_fractions=fractions[member],
                    terminal_stakes=(
                        state.stakes[member].copy()
                        if record_terminal_stakes
                        else None
                    ),
                    round_unit=self.protocol.round_unit,
                )
                for (allocation, _, _), member in zip(self._members, rows)
            ]
        return results if self._fused else results[0]

    def _advance(
        self, state: EnsembleState, rounds: int, rng: np.random.Generator
    ) -> None:
        """Advance one segment through the configured kernel path."""
        if self.kernel == "batched":
            batched_advance(self.protocol, state, rounds, rng)
            return
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "kernel.advance",
                mode="naive",
                protocol=self.protocol.name,
                miners=state.miners,
                rounds=rounds,
                trials=self.trials,
            ):
                self.protocol.advance_many(state, rounds, rng)
        else:
            self.protocol.advance_many(state, rounds, rng)

    def __repr__(self) -> str:
        return (
            f"MonteCarloEngine({self.protocol.name!r}, "
            f"miners={self.allocation.size}, trials={self.trials}, "
            f"kernel={self.kernel!r})"
        )


def simulate(
    protocol: IncentiveProtocol,
    allocation: Allocation,
    horizon: int,
    *,
    trials: int = 10_000,
    checkpoints: Optional[Sequence[int]] = None,
    events: Sequence[GameEvent] = (),
    seed: SeedLike = None,
    record_terminal_stakes: bool = True,
    kernel: str = "batched",
    reduce: str = "full",
):
    """One-call convenience wrapper around :class:`MonteCarloEngine`."""
    engine = MonteCarloEngine(
        protocol, allocation, trials=trials, seed=seed, kernel=kernel
    )
    return engine.run(
        horizon,
        checkpoints,
        events=events,
        record_terminal_stakes=record_terminal_stakes,
        reduce=reduce,
    )
