"""Sufficient-statistics ensembles: population-scale trials in O(1) memory.

A :class:`StatsSummary` is the ``reduce="stats"`` counterpart of
:class:`~repro.core.results.EnsembleResult`.  Instead of the full
``(trials, checkpoints, miners)`` trajectory cube (~17.6 MB per 100k
trials, ~1.8 GB at the 10M-trial scale) it keeps only exact state:

* per-(checkpoint, miner) ``count``/``mean``/``M2`` moments, merged
  across shards with Chan's parallel-variance update — sample means,
  standard errors and Definition 3.1 verdicts;
* integer counters of unfair events at the recorded ``epsilon``
  (Figures 3/5, Definition 4.1 verdicts, convergence times), and of
  terminal win/monopolisation events at the recorded ``margin``.

Contract: exact or raise (the golden differential suite pins this).

* ``unfair_probabilities`` / ``robust_verdict`` / ``convergence_time``
  at the recorded ``epsilon`` and ``monopolisation_probability`` at
  the recorded ``margin`` are **bit-identical** to full mode — they
  are computed from exact counters with the same final arithmetic.
* ``final_fractions().mean()`` and the expectational verdict match
  full mode to float tolerance (shard-local means are exact;
  cross-shard Chan merges reassociate the sum).
* Every query full mode answers from per-trial samples — trajectories,
  the ``summary()`` percentile bands, and any other ``epsilon`` or
  ``margin`` — raises with a pointer at ``reduce="full"``.  Nothing is
  answered approximately.

Merging is associative exactly for the integer counters and up to
float rounding for the moments; the runtime always folds shards
left-to-right in plan order, so merged summaries are bit-reproducible
for a fixed shard plan regardless of worker count or backend.

The recorded ``epsilon`` and ``margin`` are part of the artifact's
content, so they are folded into the spec fingerprint payload by :func:`repro.runtime.spec.spec_fingerprint` — changing the
defaults below invalidates stats-mode cache entries, never corrupts
them.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional, Sequence

import numpy as np

from .._validation import ensure_epsilon_delta
from .fairness import (
    DEFAULT_DELTA,
    DEFAULT_EPSILON,
    ExpectationalFairness,
    ExpectationalVerdict,
    FairArea,
    RobustFairness,
    RobustVerdict,
)
from .metrics import convergence_time
from .miners import Allocation

__all__ = [
    "DEFAULT_MARGIN",
    "REDUCE_MODES",
    "MomentView",
    "StatsCollector",
    "StatsSummary",
    "ensure_reduce_mode",
]

#: Valid settings of the ``reduce`` knob.  Unlike ``kernel``/``fast``
#: this is a *physics* knob: the two modes produce different artifact
#: bytes, so ``reduce`` always enters the spec fingerprint.
REDUCE_MODES = ("full", "stats")


def ensure_reduce_mode(value: str) -> str:
    """Validate a ``reduce`` knob setting and return it."""
    if value not in REDUCE_MODES:
        raise ValueError(
            f"reduce must be one of {REDUCE_MODES}, got {value!r}"
        )
    return value

#: Dominance threshold whose monopolisation counter is recorded
#: exactly (the Theorem 4.9 default).  Other margins need ``reduce="full"``.
DEFAULT_MARGIN = 0.99

_TRAJECTORY_HINT = (
    "stats-reduced results keep sufficient statistics only, not "
    "per-trial trajectories; rerun with reduce='full' for raw samples"
)


class MomentView:
    """Moment-only stand-in for a per-trial sample vector.

    ``StatsSummary.final_fractions()`` returns one of these where
    ``EnsembleResult.final_fractions()`` returns the raw ``(trials,)``
    array.  It answers the aggregate queries the experiments make
    (``.mean()``, ``.std()``, ``.var()``, ``len()``) and refuses
    element access loudly, so full-trajectory consumers fail with a
    pointer at ``reduce="full"`` instead of a shape error.
    """

    def __init__(self, count: int, mean: float, m2: float) -> None:
        self.count = int(count)
        self._mean = float(mean)
        self._m2 = max(float(m2), 0.0)

    @property
    def size(self) -> int:
        return self.count

    def __len__(self) -> int:
        return self.count

    def mean(self) -> float:
        """Sample mean (exact up to cross-shard reassociation)."""
        return self._mean

    def var(self, ddof: int = 0) -> float:
        """Sample variance from the merged second moment."""
        if self.count - ddof <= 0:
            return 0.0
        return self._m2 / (self.count - ddof)

    def std(self, ddof: int = 0) -> float:
        """Sample standard deviation from the merged second moment."""
        return math.sqrt(self.var(ddof=ddof))

    def __array__(self, dtype=None):  # pragma: no cover - signature only
        raise TypeError(_TRAJECTORY_HINT)

    def __iter__(self):
        raise TypeError(_TRAJECTORY_HINT)

    def __getitem__(self, index):
        raise TypeError(_TRAJECTORY_HINT)

    def __repr__(self) -> str:
        return (
            f"MomentView(count={self.count}, mean={self._mean:.6g}, "
            f"std={self.std():.6g})"
        )


class StatsSummary:
    """Mergeable sufficient statistics of a Monte Carlo ensemble.

    API-compatible with :class:`~repro.core.results.EnsembleResult`
    for every exact aggregate consumer (``unfair_probabilities``,
    fairness verdicts, ``convergence_time``,
    ``monopolisation_probability``, ``to_dict``); queries that need
    per-trial samples raise with a pointer at ``reduce="full"``.

    Build instances with :class:`StatsCollector` (streaming, used by
    the engine) or :meth:`from_ensemble` (reduction of an existing
    full result, used by the system path and the differential tests).
    """

    def __init__(
        self,
        protocol_name: str,
        allocation: Allocation,
        checkpoints: Sequence[int],
        *,
        round_unit: str,
        trials: int,
        epsilon: float,
        margin: float,
        mean: np.ndarray,
        m2: np.ndarray,
        unfair: np.ndarray,
        terminal_mean: Optional[np.ndarray] = None,
        terminal_m2: Optional[np.ndarray] = None,
        monopolised: int = 0,
        wins: Optional[np.ndarray] = None,
        zero_stake_trials: int = 0,
    ) -> None:
        self.protocol_name = str(protocol_name)
        self.allocation = allocation
        self.checkpoints = np.asarray(list(checkpoints), dtype=int)
        if self.checkpoints.ndim != 1 or self.checkpoints.size == 0:
            raise ValueError("checkpoints must be a non-empty 1-D sequence")
        if np.any(np.diff(self.checkpoints) <= 0):
            raise ValueError("checkpoints must be strictly increasing")
        if round_unit not in ("block", "epoch"):
            raise ValueError("round_unit must be 'block' or 'epoch'")
        self.round_unit = round_unit
        self.trials = int(trials)
        if self.trials <= 0:
            raise ValueError(f"trials must be positive, got {trials!r}")
        eps, _ = ensure_epsilon_delta(epsilon, 0.5)
        self.epsilon = eps
        if not 0.5 < margin <= 1.0:
            raise ValueError("margin must be in (0.5, 1]")
        self.margin = float(margin)
        shape = (self.checkpoints.size, allocation.size)
        self.mean = np.asarray(mean, dtype=float)
        self.m2 = np.asarray(m2, dtype=float)
        self.unfair = np.asarray(unfair, dtype=np.int64)
        if self.mean.shape != shape or self.m2.shape != shape:
            raise ValueError(
                f"mean/m2 must have shape {shape}, got "
                f"{self.mean.shape}/{self.m2.shape}"
            )
        if self.unfair.shape != shape:
            raise ValueError(f"unfair must have shape {shape}, got {self.unfair.shape}")
        terminal_fields = (terminal_mean, terminal_m2, wins)
        if any(f is not None for f in terminal_fields):
            if any(f is None for f in terminal_fields):
                raise ValueError(
                    "terminal statistics must be supplied together or not at all"
                )
            self.terminal_mean = np.asarray(terminal_mean, dtype=float)
            self.terminal_m2 = np.asarray(terminal_m2, dtype=float)
            self.wins = np.asarray(wins, dtype=np.int64)
        else:
            self.terminal_mean = None
            self.terminal_m2 = None
            self.wins = None
        self.monopolised = int(monopolised)
        self.zero_stake_trials = int(zero_stake_trials)

    # -- basic accessors --------------------------------------------------

    @property
    def miners(self) -> int:
        """Number of miners in the game."""
        return self.mean.shape[1]

    @property
    def horizon(self) -> int:
        """The final recorded block/epoch count."""
        return int(self.checkpoints[-1])

    @property
    def has_terminal(self) -> bool:
        """Whether terminal-stake statistics were recorded."""
        return self.terminal_mean is not None

    def fractions_of(self, miner: int = 0) -> np.ndarray:
        raise TypeError(_TRAJECTORY_HINT)

    def terminal_stake_shares(self) -> np.ndarray:
        raise TypeError(_TRAJECTORY_HINT)

    def final_fractions(self, miner: int = 0) -> MomentView:
        """Moments of the final-checkpoint reward fraction of one miner.

        Returns a :class:`MomentView` — supports ``.mean()`` /
        ``.std()`` / ``len()`` but refuses per-trial access.
        """
        self._check_miner(miner)
        return MomentView(
            count=self.trials,
            mean=float(self.mean[-1, miner]),
            m2=float(self.m2[-1, miner]),
        )

    def _check_miner(self, miner: int) -> None:
        if not 0 <= miner < self.miners:
            raise IndexError(f"miner index {miner} out of range")

    @staticmethod
    def _check_recorded(name: str, value: float, recorded: float) -> None:
        """Raise unless ``value`` is the parameter the counters were kept at."""
        if value != recorded:
            raise ValueError(
                f"stats-reduced results count events at the recorded "
                f"{name}={recorded!r} only, not {value!r}; rerun with "
                "reduce='full' for other values"
            )

    # -- figure series ------------------------------------------------------

    def summary(self, *args, **kwargs):
        """Refused: the Figure 2 percentile bands need per-trial samples."""
        raise TypeError(f"percentile bands: {_TRAJECTORY_HINT}")

    def unfair_probabilities(
        self, miner: int = 0, *, epsilon: float = DEFAULT_EPSILON
    ) -> np.ndarray:
        """Unfair probability at every checkpoint (Figures 3 and 5).

        Exact, and only answered, at the recorded epsilon.
        """
        self._check_miner(miner)
        eps, _ = ensure_epsilon_delta(epsilon, 0.5)
        self._check_recorded("epsilon", eps, self.epsilon)
        # Final arithmetic identical to the full mode path (1 - mean
        # of the fair indicator).
        fair = (self.trials - self.unfair[:, miner]).astype(float)
        return 1.0 - fair / self.trials

    # -- fairness verdicts ----------------------------------------------------

    def expectational_verdict(
        self, miner: int = 0, *, tolerance: Optional[float] = None
    ) -> ExpectationalVerdict:
        """Definition 3.1 check at the final checkpoint (from moments)."""
        self._check_miner(miner)
        share = float(self.allocation.shares[miner])
        checker = ExpectationalFairness(share, tolerance=tolerance)
        mean = float(self.mean[-1, miner])
        if self.trials > 1:
            std = math.sqrt(max(float(self.m2[-1, miner]), 0.0) / (self.trials - 1))
            stderr = std / math.sqrt(self.trials)
        else:
            stderr = 0.0
        # Decision logic mirrors ExpectationalFairness.evaluate.
        if checker.tolerance is not None:
            is_fair = abs(mean - share) <= checker.tolerance
            z_score = (mean - share) / stderr if stderr > 0 else math.nan
        elif stderr <= 1e-15:
            z_score = math.nan
            is_fair = abs(mean - share) <= 1e-9
        else:
            z_score = (mean - share) / stderr
            is_fair = abs(z_score) <= checker.z_threshold
        return ExpectationalVerdict(
            share=share,
            sample_mean=mean,
            standard_error=stderr,
            z_score=z_score,
            is_fair=is_fair,
        )

    def robust_verdict(
        self,
        miner: int = 0,
        *,
        epsilon: float = DEFAULT_EPSILON,
        delta: float = DEFAULT_DELTA,
    ) -> RobustVerdict:
        """Definition 4.1 check at the final checkpoint (exact counters)."""
        self._check_miner(miner)
        share = float(self.allocation.shares[miner])
        checker = RobustFairness(share, epsilon, delta)
        self._check_recorded("epsilon", checker.epsilon, self.epsilon)
        # Same arithmetic order as RobustFairness.evaluate: the exact
        # fair mass first, then one subtraction.
        fair = (self.trials - int(self.unfair[-1, miner])) / self.trials
        unfair = 1.0 - fair
        return RobustVerdict(
            fair_area=checker.fair_area,
            delta=checker.delta,
            fair_probability=fair,
            unfair_probability=unfair,
            is_fair=unfair <= checker.delta,
            sample_size=self.trials,
        )

    def convergence_time(
        self,
        miner: int = 0,
        *,
        epsilon: float = DEFAULT_EPSILON,
        delta: float = DEFAULT_DELTA,
    ) -> float:
        """Table 1 "Cvg. Time"; exact, and only answered, at the recorded epsilon."""
        ensure_epsilon_delta(epsilon, delta)
        return convergence_time(
            self.checkpoints,
            self.unfair_probabilities(miner, epsilon=epsilon),
            delta,
        )

    def monopolisation_probability(self, *, margin: float = 0.99) -> float:
        """Fraction of trials ending in near-monopoly (Theorem 4.9 check).

        Exact, and only answered, at the recorded margin.
        """
        if not self.has_terminal:
            raise ValueError("this result did not record terminal stakes")
        if not 0.5 < margin <= 1.0:
            raise ValueError("margin must be in (0.5, 1]")
        self._check_recorded("margin", margin, self.margin)
        return self.monopolised / self.trials

    def win_probabilities(self) -> np.ndarray:
        """Fraction of trials each miner ends with the strictly largest stake.

        Ties (and all-zero stake rows) have no winner, so the vector
        may sum to less than one.
        """
        if not self.has_terminal:
            raise ValueError("this result did not record terminal stakes")
        return self.wins / float(self.trials)

    # -- merging ------------------------------------------------------------

    @staticmethod
    def _ensure_mergeable(first: "StatsSummary", part: "StatsSummary") -> None:
        """Raise unless ``part`` describes the same game and recorded events."""
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
        if part.has_terminal != first.has_terminal:
            raise ValueError(
                "cannot merge results that disagree on terminal stake recording"
            )
        if (part.epsilon, part.margin) != (first.epsilon, first.margin):
            raise ValueError(
                "cannot merge stats summaries recorded at different "
                "epsilon/margin"
            )

    def _merged_with(self, other: "StatsSummary") -> "StatsSummary":
        """Pairwise Chan merge; counters add exactly."""
        StatsSummary._ensure_mergeable(self, other)
        n_a = self.trials
        n_b = other.trials
        total = n_a + n_b
        delta = other.mean - self.mean
        mean = self.mean + delta * (n_b / total)
        m2 = self.m2 + other.m2 + delta * delta * (n_a * n_b / total)
        kwargs = {}
        if self.has_terminal:
            t_delta = other.terminal_mean - self.terminal_mean
            kwargs = dict(
                terminal_mean=self.terminal_mean + t_delta * (n_b / total),
                terminal_m2=(
                    self.terminal_m2
                    + other.terminal_m2
                    + t_delta * t_delta * (n_a * n_b / total)
                ),
                wins=self.wins + other.wins,
            )
        return StatsSummary(
            protocol_name=self.protocol_name,
            allocation=self.allocation,
            checkpoints=self.checkpoints,
            round_unit=self.round_unit,
            trials=total,
            epsilon=self.epsilon,
            margin=self.margin,
            mean=mean,
            m2=m2,
            unfair=self.unfair + other.unfair,
            monopolised=self.monopolised + other.monopolised,
            zero_stake_trials=self.zero_stake_trials + other.zero_stake_trials,
            **kwargs,
        )

    @classmethod
    def merge(cls, parts: Sequence["StatsSummary"]) -> "StatsSummary":
        """Fold shard summaries left-to-right, in the given order.

        Integer counters merge exactly (fully associative); moments
        merge with Chan's update, so for a fixed part order the result
        is bit-reproducible across worker counts and backends.
        """
        staged = list(parts)
        if not staged:
            raise ValueError("cannot merge an empty sequence of results")
        merged = staged[0]
        for part in staged[1:]:
            merged = merged._merged_with(part)
        return merged

    # -- construction -------------------------------------------------------

    @classmethod
    def from_ensemble(
        cls,
        result,
        *,
        epsilon: float = DEFAULT_EPSILON,
        margin: float = DEFAULT_MARGIN,
    ) -> "StatsSummary":
        """Reduce a full :class:`EnsembleResult` to its statistics.

        The ground-truth reduction of the differential tests: a
        stats-mode run must equal this reduction of the full run.
        """
        collector = StatsCollector(
            protocol_name=result.protocol_name,
            allocation=result.allocation,
            checkpoints=result.checkpoints,
            round_unit=result.round_unit,
            epsilon=epsilon,
            margin=margin,
        )
        for position in range(result.checkpoints.size):
            collector.observe(position, result.reward_fractions[:, position, :])
        if result.terminal_stakes is not None:
            collector.observe_terminal(result.terminal_stakes)
        return collector.build(result.trials)

    # -- persistence / interchange ---------------------------------------------

    def to_dict(self) -> dict:
        """``EnsembleResult.to_dict`` without its ``p5``/``p95`` bands."""
        return {
            "protocol": self.protocol_name,
            "round_unit": self.round_unit,
            "trials": self.trials,
            "shares": self.allocation.shares.tolist(),
            "checkpoints": self.checkpoints.tolist(),
            "mean": self.mean[:, 0].tolist(),
            "unfair_probability": self.unfair_probabilities().tolist(),
        }

    def state_arrays(self) -> dict:
        """The mergeable state as plain arrays (for .npz storage)."""
        arrays = {
            "stats_mean": self.mean,
            "stats_m2": self.m2,
            "stats_unfair": self.unfair,
        }
        if self.has_terminal:
            arrays.update(
                stats_terminal_mean=self.terminal_mean,
                stats_terminal_m2=self.terminal_m2,
                stats_wins=self.wins,
            )
        return arrays

    def state_meta(self) -> dict:
        """Scalar state for the .npz metadata record."""
        return {
            "trials": self.trials,
            "epsilon": self.epsilon,
            "margin": self.margin,
            "monopolised": self.monopolised,
            "zero_stake_trials": self.zero_stake_trials,
        }

    def __repr__(self) -> str:
        return (
            f"StatsSummary({self.protocol_name!r}, trials={self.trials}, "
            f"miners={self.miners}, horizon={self.horizon} {self.round_unit}s)"
        )


class StatsCollector:
    """Streaming builder for :class:`StatsSummary`.

    The engine calls :meth:`observe` once per checkpoint with the raw
    ``(trials, miners)`` fraction matrix — values are validated and
    clipped exactly as :class:`EnsembleResult`'s constructor would, so
    shard-local statistics are computed from the same numbers full
    mode stores — then :meth:`observe_terminal` with the final stake
    matrix, then :meth:`build`.
    """

    def __init__(
        self,
        protocol_name: str,
        allocation: Allocation,
        checkpoints: Sequence[int],
        *,
        round_unit: str = "block",
        epsilon: float = DEFAULT_EPSILON,
        margin: float = DEFAULT_MARGIN,
    ) -> None:
        self.protocol_name = str(protocol_name)
        self.allocation = allocation
        self.checkpoints = np.asarray(list(checkpoints), dtype=int)
        self.round_unit = round_unit
        eps, _ = ensure_epsilon_delta(epsilon, 0.5)
        self.epsilon = eps
        self.margin = float(margin)
        miners = allocation.size
        shape = (self.checkpoints.size, miners)
        self._mean = np.zeros(shape)
        self._m2 = np.zeros(shape)
        self._unfair = np.zeros(shape, dtype=np.int64)
        self._areas = [
            FairArea(share=float(allocation.shares[m]), epsilon=eps)
            for m in range(miners)
        ]
        self._terminal_mean: Optional[np.ndarray] = None
        self._terminal_m2: Optional[np.ndarray] = None
        self._wins: Optional[np.ndarray] = None
        self._monopolised = 0
        self._zero_stake_trials = 0
        self._trials: Optional[int] = None

    def _note_trials(self, count: int) -> None:
        if self._trials is None:
            self._trials = count
        elif self._trials != count:
            raise ValueError(
                f"observation covers {count} trials but earlier ones covered "
                f"{self._trials}"
            )

    def observe(self, position: int, raw_fractions: np.ndarray) -> None:
        """Fold one checkpoint's ``(trials, miners)`` fraction matrix."""
        values = np.asarray(raw_fractions, dtype=float)
        if values.ndim != 2 or values.shape[1] != self.allocation.size:
            raise ValueError(
                f"raw_fractions must have shape (trials, {self.allocation.size}), "
                f"got {values.shape}"
            )
        if np.any(values < -1e-9) or np.any(values > 1.0 + 1e-9):
            raise ValueError("reward fractions must lie in [0, 1]")
        self._note_trials(values.shape[0])
        values = np.clip(values, 0.0, 1.0)
        # Shard-local moments are exact: one np.mean per checkpoint,
        # the same numbers full mode would aggregate.
        mean = values.mean(axis=0)
        self._mean[position] = mean
        self._m2[position] = ((values - mean) ** 2).sum(axis=0)
        for m, area in enumerate(self._areas):
            self._unfair[position, m] = int(
                self._trials - np.count_nonzero(area.contains(values[:, m]))
            )

    def observe_terminal(self, stakes: np.ndarray) -> None:
        """Fold the final ``(trials, miners)`` stake matrix.

        Rows with zero total stake get zero shares (no holder) — the
        same guarded semantics as
        :meth:`EnsembleResult.terminal_stake_shares` — and are counted
        in ``zero_stake_trials``.
        """
        stakes = np.asarray(stakes, dtype=float)
        if stakes.ndim != 2 or stakes.shape[1] != self.allocation.size:
            raise ValueError(
                f"stakes must have shape (trials, {self.allocation.size}), "
                f"got {stakes.shape}"
            )
        self._note_trials(stakes.shape[0])
        totals = stakes.sum(axis=1, keepdims=True)
        zero_rows = totals <= 0.0
        zero_count = int(np.count_nonzero(zero_rows))
        if zero_count:
            warnings.warn(
                f"{zero_count} trial(s) have zero total terminal stake; "
                "their shares are recorded as 0 (no holder)",
                RuntimeWarning,
                stacklevel=2,
            )
        shares = np.where(zero_rows, 0.0, stakes / np.where(zero_rows, 1.0, totals))
        mean = shares.mean(axis=0)
        self._terminal_mean = mean
        self._terminal_m2 = ((shares - mean) ** 2).sum(axis=0)
        max_shares = shares.max(axis=1)
        self._monopolised = int(np.count_nonzero(max_shares >= self.margin))
        # A miner "wins" when it holds strictly more than every rival;
        # ties and zero-stake rows have no winner.
        strict_max = shares == max_shares[:, None]
        unique = strict_max.sum(axis=1) == 1
        winner_rows = unique & ~zero_rows.ravel()
        self._wins = (strict_max & winner_rows[:, None]).sum(axis=0).astype(np.int64)
        self._zero_stake_trials = zero_count

    def build(self, trials: Optional[int] = None) -> StatsSummary:
        """Freeze the collected state into a :class:`StatsSummary`."""
        if self._trials is None:
            raise ValueError("no observations were folded")
        if trials is not None and trials != self._trials:
            raise ValueError(
                f"collector saw {self._trials} trials but {trials} were expected"
            )
        kwargs = {}
        if self._terminal_mean is not None:
            kwargs = dict(
                terminal_mean=self._terminal_mean,
                terminal_m2=self._terminal_m2,
                wins=self._wins,
            )
        return StatsSummary(
            protocol_name=self.protocol_name,
            allocation=self.allocation,
            checkpoints=self.checkpoints,
            round_unit=self.round_unit,
            trials=self._trials,
            epsilon=self.epsilon,
            margin=self.margin,
            mean=self._mean,
            m2=self._m2,
            unfair=self._unfair,
            monopolised=self._monopolised,
            zero_stake_trials=self._zero_stake_trials,
            **kwargs,
        )
