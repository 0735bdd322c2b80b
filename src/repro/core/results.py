"""Structured results of ensemble mining simulations.

An :class:`EnsembleResult` captures everything the paper's figures
need: the reward fraction ``lambda`` of every miner in every trial at a
set of checkpoints, plus terminal stake shares.  It offers the derived
series that Figures 2-6 plot (sample mean, percentile envelope, unfair
probability) and the summary statistics of Table 1.

The full trajectory cube costs ``trials x checkpoints x miners``
doubles (~1.8 GB at 10M trials).  Runs past ~1M trials should use
``reduce="stats"`` instead, which keeps only mergeable sufficient
statistics (:class:`repro.core.stats.StatsSummary`) with the same
figure-facing API at O(1) memory per shard.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .._validation import ensure_epsilon_delta, ensure_positive_int
from .fairness import (
    DEFAULT_DELTA,
    DEFAULT_EPSILON,
    ExpectationalFairness,
    ExpectationalVerdict,
    RobustFairness,
    RobustVerdict,
)
from .metrics import (
    convergence_time,
    monopolisation_probability,
    unfair_probability_series,
)
from .miners import Allocation

__all__ = ["EnsembleResult", "MergeAccumulator", "SeriesSummary", "merge_parts"]


@dataclass(frozen=True)
class SeriesSummary:
    """The per-checkpoint series a paper figure plots for one miner.

    Attributes
    ----------
    checkpoints:
        Block (or epoch) counts at which the series is evaluated.
    mean:
        Sample mean of ``lambda`` (the orange line in Figure 2).
    lower / upper:
        Percentile envelope (the blue band in Figure 2; 5th and 95th
        percentiles by default).
    unfair_probability:
        Mass outside the fair area at each checkpoint (Figures 3/5).
    """

    checkpoints: np.ndarray
    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    unfair_probability: np.ndarray

    def __post_init__(self) -> None:
        lengths = {
            len(self.checkpoints),
            len(self.mean),
            len(self.lower),
            len(self.upper),
            len(self.unfair_probability),
        }
        if len(lengths) != 1:
            raise ValueError("all series must have the same length")


class EnsembleResult:
    """Monte Carlo outcome of a mining game over many independent trials.

    Parameters
    ----------
    protocol_name:
        Name of the simulated incentive protocol.
    allocation:
        The initial resource allocation.
    checkpoints:
        Strictly increasing block/epoch counts at which fractions were
        recorded.
    reward_fractions:
        Array of shape ``(trials, checkpoints, miners)`` holding each
        miner's cumulative reward fraction ``lambda`` at each
        checkpoint.
    terminal_stakes:
        Array of shape ``(trials, miners)`` with final stake shares
        (equal to hash-power shares for PoW).
    round_unit:
        "block" or "epoch"; cosmetic, used by reports.
    """

    def __init__(
        self,
        protocol_name: str,
        allocation: Allocation,
        checkpoints: Sequence[int],
        reward_fractions: np.ndarray,
        terminal_stakes: Optional[np.ndarray] = None,
        *,
        round_unit: str = "block",
    ) -> None:
        self.protocol_name = str(protocol_name)
        self.allocation = allocation
        self.checkpoints = np.asarray(list(checkpoints), dtype=int)
        if self.checkpoints.ndim != 1 or self.checkpoints.size == 0:
            raise ValueError("checkpoints must be a non-empty 1-D sequence")
        if np.any(np.diff(self.checkpoints) <= 0):
            raise ValueError("checkpoints must be strictly increasing")
        fractions = np.asarray(reward_fractions, dtype=float)
        if fractions.ndim != 3:
            raise ValueError(
                "reward_fractions must have shape (trials, checkpoints, miners), "
                f"got {fractions.shape}"
            )
        trials, n_checkpoints, miners = fractions.shape
        if n_checkpoints != self.checkpoints.size:
            raise ValueError(
                f"reward_fractions has {n_checkpoints} checkpoints but "
                f"{self.checkpoints.size} were supplied"
            )
        if miners != allocation.size:
            raise ValueError(
                f"reward_fractions covers {miners} miners but the allocation "
                f"has {allocation.size}"
            )
        if np.any(fractions < -1e-9) or np.any(fractions > 1.0 + 1e-9):
            raise ValueError("reward fractions must lie in [0, 1]")
        self.reward_fractions = np.clip(fractions, 0.0, 1.0)
        if terminal_stakes is not None:
            terminal = np.asarray(terminal_stakes, dtype=float)
            if terminal.shape != (trials, miners):
                raise ValueError(
                    f"terminal_stakes must have shape ({trials}, {miners}), "
                    f"got {terminal.shape}"
                )
            self.terminal_stakes = terminal
        else:
            self.terminal_stakes = None
        if round_unit not in ("block", "epoch"):
            raise ValueError("round_unit must be 'block' or 'epoch'")
        self.round_unit = round_unit

    # -- construction -----------------------------------------------------

    @classmethod
    def _from_validated(
        cls,
        protocol_name: str,
        allocation: Allocation,
        checkpoints: Sequence[int],
        reward_fractions: np.ndarray,
        terminal_stakes: Optional[np.ndarray],
        round_unit: str,
    ) -> "EnsembleResult":
        """Adopt already-validated arrays without the constructor's copies.

        The public constructor re-clips ``reward_fractions`` into a
        fresh array — pure waste (and a transient 2x memory peak) when
        every value was copied out of EnsembleResults that were
        validated and clipped at their own construction.  Callers must
        guarantee exactly that invariant; :class:`MergeAccumulator`
        does, which is what keeps the streaming merge's peak at one
        merged ensemble.
        """
        result = cls.__new__(cls)
        result.protocol_name = str(protocol_name)
        result.allocation = allocation
        result.checkpoints = np.asarray(list(checkpoints), dtype=int)
        result.reward_fractions = reward_fractions
        result.terminal_stakes = terminal_stakes
        result.round_unit = round_unit
        return result

    @staticmethod
    def _ensure_mergeable(first: "EnsembleResult", part: "EnsembleResult") -> None:
        """Raise unless ``part`` describes the same game as ``first``."""
        if part.protocol_name != first.protocol_name:
            raise ValueError(
                f"cannot merge results of different protocols: "
                f"{first.protocol_name!r} vs {part.protocol_name!r}"
            )
        if part.allocation != first.allocation:
            raise ValueError("cannot merge results of different allocations")
        if not np.array_equal(part.checkpoints, first.checkpoints):
            raise ValueError("cannot merge results of different checkpoints")
        if part.round_unit != first.round_unit:
            raise ValueError("cannot merge results of different round units")
        if (part.terminal_stakes is None) != (first.terminal_stakes is None):
            raise ValueError(
                "cannot merge results that disagree on terminal stake recording"
            )

    @classmethod
    def merge(cls, results: Sequence["EnsembleResult"]) -> "EnsembleResult":
        """Concatenate shard results into one ensemble, in the given order.

        All parts must describe the same game: identical protocol
        name, allocation, checkpoints, and round unit; terminal stakes
        must be recorded by all parts or by none.  Trials concatenate
        along axis 0, so merging is exact — the merged ensemble is
        bit-identical no matter how the parts were distributed across
        workers, as long as their order is fixed.

        Holds every part alive plus the concatenated output (~2x the
        merged footprint); :class:`MergeAccumulator` produces the same
        bytes while holding only the output and one part at a time.
        """
        parts = list(results)
        if not parts:
            raise ValueError("cannot merge an empty sequence of results")
        first = parts[0]
        for part in parts[1:]:
            cls._ensure_mergeable(first, part)
        recorded = all(part.terminal_stakes is not None for part in parts)
        terminal = (
            np.concatenate([part.terminal_stakes for part in parts], axis=0)
            if recorded
            else None
        )
        return cls(
            protocol_name=first.protocol_name,
            allocation=first.allocation,
            checkpoints=first.checkpoints,
            reward_fractions=np.concatenate(
                [part.reward_fractions for part in parts], axis=0
            ),
            terminal_stakes=terminal,
            round_unit=first.round_unit,
        )

    # -- basic accessors --------------------------------------------------

    @property
    def trials(self) -> int:
        """Number of independent Monte Carlo trials."""
        return self.reward_fractions.shape[0]

    @property
    def miners(self) -> int:
        """Number of miners in the game."""
        return self.reward_fractions.shape[2]

    @property
    def horizon(self) -> int:
        """The final recorded block/epoch count."""
        return int(self.checkpoints[-1])

    def fractions_of(self, miner: int = 0) -> np.ndarray:
        """Reward-fraction paths of one miner, shape ``(trials, checkpoints)``."""
        if not 0 <= miner < self.miners:
            raise IndexError(f"miner index {miner} out of range")
        return self.reward_fractions[:, :, miner]

    def final_fractions(self, miner: int = 0) -> np.ndarray:
        """Reward fractions at the final checkpoint, shape ``(trials,)``."""
        return self.fractions_of(miner)[:, -1]

    def terminal_stake_shares(self) -> np.ndarray:
        """Final stake shares, shape ``(trials, miners)``.

        Trials whose total terminal stake is zero (possible under full
        withholding / zero-issuance configurations) have no holder:
        their share rows are reported as all zeros — with a
        :class:`RuntimeWarning` — instead of the NaN/inf a bare
        division would produce.  Such rows count as non-monopolised in
        :meth:`monopolisation_probability`.
        """
        if self.terminal_stakes is None:
            raise ValueError("this result did not record terminal stakes")
        totals = self.terminal_stakes.sum(axis=1, keepdims=True)
        zero_rows = totals <= 0.0
        if np.any(zero_rows):
            warnings.warn(
                f"{int(np.count_nonzero(zero_rows))} trial(s) have zero total "
                "terminal stake; their shares are reported as 0 (no holder)",
                RuntimeWarning,
                stacklevel=2,
            )
            safe_totals = np.where(zero_rows, 1.0, totals)
            return np.where(zero_rows, 0.0, self.terminal_stakes / safe_totals)
        return self.terminal_stakes / totals

    # -- figure series ------------------------------------------------------

    def summary(
        self,
        miner: int = 0,
        *,
        epsilon: float = DEFAULT_EPSILON,
        percentiles: Tuple[float, float] = (5.0, 95.0),
    ) -> SeriesSummary:
        """The Figure 2 style series for one miner."""
        low_pct, high_pct = percentiles
        if not 0.0 <= low_pct < high_pct <= 100.0:
            raise ValueError("percentiles must satisfy 0 <= low < high <= 100")
        paths = self.fractions_of(miner)
        share = float(self.allocation.shares[miner])
        return SeriesSummary(
            checkpoints=self.checkpoints.copy(),
            mean=paths.mean(axis=0),
            lower=np.percentile(paths, low_pct, axis=0),
            upper=np.percentile(paths, high_pct, axis=0),
            unfair_probability=unfair_probability_series(paths, share, epsilon),
        )

    def unfair_probabilities(
        self, miner: int = 0, *, epsilon: float = DEFAULT_EPSILON
    ) -> np.ndarray:
        """Unfair probability at every checkpoint (Figures 3 and 5)."""
        share = float(self.allocation.shares[miner])
        return unfair_probability_series(self.fractions_of(miner), share, epsilon)

    # -- fairness verdicts ----------------------------------------------------

    def expectational_verdict(
        self, miner: int = 0, *, tolerance: Optional[float] = None
    ) -> ExpectationalVerdict:
        """Definition 3.1 check at the final checkpoint."""
        share = float(self.allocation.shares[miner])
        checker = ExpectationalFairness(share, tolerance=tolerance)
        return checker.evaluate(self.final_fractions(miner))

    def robust_verdict(
        self,
        miner: int = 0,
        *,
        epsilon: float = DEFAULT_EPSILON,
        delta: float = DEFAULT_DELTA,
    ) -> RobustVerdict:
        """Definition 4.1 check at the final checkpoint."""
        share = float(self.allocation.shares[miner])
        checker = RobustFairness(share, epsilon, delta)
        return checker.evaluate(self.final_fractions(miner))

    def convergence_time(
        self,
        miner: int = 0,
        *,
        epsilon: float = DEFAULT_EPSILON,
        delta: float = DEFAULT_DELTA,
    ) -> float:
        """Table 1 "Cvg. Time": first sustained (epsilon, delta)-fair checkpoint."""
        ensure_epsilon_delta(epsilon, delta)
        return convergence_time(
            self.checkpoints,
            self.unfair_probabilities(miner, epsilon=epsilon),
            delta,
        )

    def monopolisation_probability(self, *, margin: float = 0.99) -> float:
        """Fraction of trials ending in near-monopoly (Theorem 4.9 check)."""
        return monopolisation_probability(
            self.terminal_stake_shares(), margin=margin
        )

    # -- persistence / interchange ---------------------------------------------

    def to_dict(self) -> dict:
        """Plain-Python summary (checkpoint series only) for serialisation."""
        summary = self.summary()
        return {
            "protocol": self.protocol_name,
            "round_unit": self.round_unit,
            "trials": self.trials,
            "shares": self.allocation.shares.tolist(),
            "checkpoints": self.checkpoints.tolist(),
            "mean": summary.mean.tolist(),
            "p5": summary.lower.tolist(),
            "p95": summary.upper.tolist(),
            "unfair_probability": summary.unfair_probability.tolist(),
        }

    def __repr__(self) -> str:
        return (
            f"EnsembleResult({self.protocol_name!r}, trials={self.trials}, "
            f"miners={self.miners}, horizon={self.horizon} {self.round_unit}s)"
        )


@dataclass(frozen=True)
class _MergeTemplate:
    """The first part's game metadata, without its trial arrays.

    Duck-types as the ``first`` argument of
    :meth:`EnsembleResult._ensure_mergeable` (which only inspects
    metadata and whether ``terminal_stakes`` is None), so an
    accumulator can validate later parts without keeping the first
    part's — potentially large — arrays alive.
    """

    protocol_name: str
    allocation: Allocation
    checkpoints: np.ndarray
    round_unit: str
    terminal_stakes: Optional[bool]  # truthy marker, never the array
    miners: int


class MergeAccumulator:
    """Incremental, bounded-memory equivalent of the batch merge.

    Feed shard results in plan order through :meth:`add`;
    :meth:`result` returns the merged ensemble.  The folded output is
    **byte-identical** to ``merge_parts(parts)`` for the same part
    order.  For :class:`EnsembleResult` parts the merged arrays are
    preallocated once, at the first part, and each part's trials are
    copied into their final position as it arrives, after which the
    caller can release the part: peak memory is one merged ensemble
    plus the parts in flight, which is what keeps the runner's fold
    ``O(workers)`` instead of ``O(shards)`` in working-set.  On one
    worker that is a single part; on a pool the parent folds one task's
    parts at a time, and a fused full-mode task carries up to
    :data:`~repro.runtime.runner.STATS_TASK_TRIALS` trials.  For
    :class:`~repro.core.stats.StatsSummary` parts it keeps one running
    summary, so the whole fold is O(1) in the trial count.

    Parts must carry at least one trial — a zero-trial part cannot come
    out of ``plan_shards`` (which clamps every shard to >= 1 trial), so
    accepting one would mean a corrupted shard payload; :meth:`add`
    rejects it.

    After :meth:`result` the accumulator is *finalized*: repeated
    :meth:`result` calls return the **same** object, and further
    :meth:`add` calls raise — the preallocated buffers were adopted by
    the returned ensemble, so reuse would silently mutate it.

    Parameters
    ----------
    expected_trials:
        Total trial count of the finished ensemble (the shard plan's
        ``total``).  Parts that overflow it, and a :meth:`result` that
        falls short of it, raise.

    Examples
    --------
    >>> # doctest-style sketch; see tests/runtime/test_streaming_merge.py
    >>> # acc = MergeAccumulator(expected_trials=plan.total)
    >>> # for shard_result in shard_results:  # plan order
    >>> #     acc.add(shard_result)
    >>> # merged = acc.result()
    """

    def __init__(self, expected_trials: int) -> None:
        self.expected_trials = ensure_positive_int(
            "expected_trials", expected_trials
        )
        # Metadata of the first part only — retaining the part itself
        # would keep its trial arrays alive for the whole fold and
        # break the one-in-flight-part memory bound.
        self._template: Optional["_MergeTemplate"] = None
        self._fractions: Optional[np.ndarray] = None
        self._terminal: Optional[np.ndarray] = None
        self._stats = None  # running StatsSummary fold
        self._offset = 0
        self._count = 0
        self._final = None  # the adopted result once finalized

    @property
    def count(self) -> int:
        """Number of parts folded so far."""
        return self._count

    @property
    def trials(self) -> int:
        """Number of trials folded so far."""
        return self._offset

    @property
    def complete(self) -> bool:
        """Whether the accumulated trials match ``expected_trials``."""
        return self._offset == self.expected_trials

    @property
    def finalized(self) -> bool:
        """Whether :meth:`result` has been called."""
        return self._final is not None

    def add(self, part) -> "MergeAccumulator":
        """Fold the next part, in plan order; returns self for chaining."""
        from .stats import StatsSummary

        if self._final is not None:
            raise RuntimeError(
                "MergeAccumulator is finalized: result() already adopted the "
                "merged buffers, create a new accumulator instead"
            )
        if not isinstance(part, (EnsembleResult, StatsSummary)):
            raise TypeError(
                f"can only accumulate EnsembleResults or StatsSummaries, "
                f"got {type(part).__name__}"
            )
        if part.trials == 0:
            raise ValueError(
                "cannot accumulate a zero-trial part: plan_shards clamps "
                "every shard to >= 1 trial, so an empty part means a "
                "corrupted payload"
            )
        if isinstance(part, StatsSummary):
            return self._add_stats(part)
        if self._stats is not None:
            raise TypeError(
                "cannot mix EnsembleResult parts into a StatsSummary fold"
            )
        if self._template is None:
            self._template = _MergeTemplate(
                protocol_name=part.protocol_name,
                allocation=part.allocation,
                checkpoints=part.checkpoints,
                round_unit=part.round_unit,
                terminal_stakes=True if part.terminal_stakes is not None else None,
                miners=part.miners,
            )
        else:
            EnsembleResult._ensure_mergeable(self._template, part)
        if self._offset + part.trials > self.expected_trials:
            raise ValueError(
                f"accumulated {self._offset + part.trials} trials, more than "
                f"the expected {self.expected_trials}"
            )
        if self._fractions is None:
            self._fractions = np.empty(
                (
                    self.expected_trials,
                    self._template.checkpoints.size,
                    self._template.miners,
                ),
                dtype=float,
            )
            if self._template.terminal_stakes is not None:
                self._terminal = np.empty(
                    (self.expected_trials, self._template.miners), dtype=float
                )
        end = self._offset + part.trials
        self._fractions[self._offset:end] = part.reward_fractions
        if self._terminal is not None:
            self._terminal[self._offset:end] = part.terminal_stakes
        self._offset = end
        self._count += 1
        return self

    def _add_stats(self, part) -> "MergeAccumulator":
        """Fold a StatsSummary part: one running summary, O(1) memory."""
        if self._template is not None:
            raise TypeError(
                "cannot mix StatsSummary parts into an EnsembleResult fold"
            )
        if self._offset + part.trials > self.expected_trials:
            raise ValueError(
                f"accumulated {self._offset + part.trials} trials, more than "
                f"the expected {self.expected_trials}"
            )
        if self._stats is None:
            self._stats = part
        else:
            # Pairwise left fold: the exact operation sequence of
            # StatsSummary.merge(parts) in the same order, so the
            # streamed fold is bit-identical to the batch merge.
            self._stats = self._stats._merged_with(part)
        self._offset += part.trials
        self._count += 1
        return self

    def result(self):
        """The merged ensemble; byte-identical to the batch merge.

        Raises if nothing was folded, or if the folded trials fall
        short of ``expected_trials``.  The first call finalizes the
        accumulator: later calls return the same object and :meth:`add`
        refuses further parts.
        """
        if self._final is not None:
            return self._final
        if self._count == 0:
            raise ValueError("cannot merge an empty sequence of results")
        if self._offset != self.expected_trials:
            raise ValueError(
                f"accumulated {self._offset} of the expected "
                f"{self.expected_trials} trials"
            )
        if self._stats is not None:
            self._final = self._stats
        else:
            # Every block was copied out of a validated (clipped)
            # EnsembleResult, so adopt the buffers instead of paying the
            # public constructor's re-clip copy — that copy alone would
            # put the peak back at two merged ensembles.  Adoption is
            # why finalization matters: a live accumulator would keep
            # writing into the returned ensemble's arrays.
            self._final = EnsembleResult._from_validated(
                protocol_name=self._template.protocol_name,
                allocation=self._template.allocation,
                checkpoints=self._template.checkpoints,
                reward_fractions=self._fractions,
                terminal_stakes=self._terminal,
                round_unit=self._template.round_unit,
            )
        return self._final

    def __repr__(self) -> str:
        return (
            f"MergeAccumulator(parts={self._count}, "
            f"trials={self._offset}/{self.expected_trials})"
        )


def merge_parts(parts: Sequence) -> object:
    """Merge homogeneous shard parts, dispatching on their kind.

    ``EnsembleResult`` parts concatenate; ``StatsSummary`` parts fold
    their sufficient statistics.  Mixing kinds raises — a grid must
    run entirely under one ``reduce`` mode (the spec fingerprint
    guarantees the cache never hands back the other kind).
    """
    staged = list(parts)
    if not staged:
        raise ValueError("cannot merge an empty sequence of results")
    cls = type(staged[0])
    for part in staged[1:]:
        if type(part) is not cls:
            raise TypeError(
                f"cannot merge mixed part kinds: {cls.__name__} vs "
                f"{type(part).__name__}"
            )
    return cls.merge(staged)
