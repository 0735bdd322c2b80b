"""Protocol interfaces for vectorised mining-game simulation.

Every incentive model in the paper advances in *rounds* — a block for
PoW/ML-PoS/SL-PoS, an epoch for C-PoS — and in each round issues a
fixed total reward whose split among miners is random.  The simulator
keeps an ensemble of independent trials as ``(trials, miners)`` arrays
and asks the protocol to advance all trials by one round at a time.

Two abstractions:

* :class:`IncentiveProtocol` — the general interface (``make_state``,
  ``step``, ``advance_many``).
* :class:`StakeLotteryProtocol` — the common single-winner-per-block
  case (PoW, ML-PoS, SL-PoS, FSL-PoS, Filecoin, ...): subclasses only
  define how the winner is drawn from the current competing resource.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

import numpy as np

from .._validation import ensure_positive_int
from ..core.miners import Allocation

__all__ = [
    "EnsembleState",
    "IncentiveProtocol",
    "StakeLotteryProtocol",
    "binomial_from_uniforms",
    "count_true",
    "sample_winners",
    "winners_from_uniforms",
]


def _cdf_rows(n: int, p: float, u: float) -> int:
    """Rows ``0..k`` of the Bin(n, p) CDF up to the first entry >= u.

    The scalar run of :func:`binomial_from_uniforms`'s recurrence at one
    ``(p, u)``; at most ``n`` rows, the most the inversion ever reads.
    """
    q = 1.0 - p
    ratio = p / q
    pmf = cdf = q**n
    k = 0
    while cdf < u and k < n - 1:
        k += 1
        pmf = (n - k + 1) / k * ratio * pmf
        cdf += pmf
    return k + 1


def binomial_from_uniforms(
    n: int,
    p: np.ndarray,
    draws: np.ndarray,
    *,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Bin(n, p) draws by inversion, one given uniform per row.

    Per row, with ``p' = min(p, 1 - p)`` and ``q' = 1 - p'``: the pmf
    runs ``pmf_0 = q'**n``, ``pmf_k = pmf_{k-1} * ((n - k + 1) / k) *
    (p' / q')``; ``F_k`` is its running sum and the draw is ``X = #{k <
    n : F_k < u}``, or ``n - X`` where ``p > 1/2``.  That is NumPy's own
    binomial inversion, which it uses while ``n * p' <= 30`` and which
    consumes one uniform per row, so over ``rng.random(len(p))`` this
    reproduces ``rng.binomial(n, p)`` there — up to CDF rounding for a
    uniform within about 1e-15 of a step, and except at ``p == 0``,
    where NumPy draws no uniform.  Above 30 NumPy switches to BTPE
    rejection; the law stays exact, the draws differ.

    CDF rows are built only up to a bound set by the largest ``p'`` and
    the largest uniform (the CDF falls as ``p`` rises), then extended
    while any row's uniform still lies above its last row.  A row's
    draw therefore depends on its own ``(p, u)`` alone, never on the
    rows that share the call.

    Parameters
    ----------
    n:
        Number of Bernoulli trials per draw; ``q'**n`` must stay a
        normal double, which ``n <= 1000`` guarantees.
    p:
        Success probabilities in ``[0, 1]``, shape ``(rows,)``.
    draws:
        Uniform variates in ``[0, 1)``, shape ``(rows,)``.
    out:
        Optional integer array of shape ``(rows,)`` for the result.
    """
    rows = p.shape[0]
    if out is None:
        out = np.empty(rows, np.int64)
    low = np.subtract(1.0, p)
    np.minimum(p, low, out=low)  # p'
    ratio = np.subtract(1.0, low)  # q'
    cdf = np.empty((n, rows))
    np.power(ratio, n, out=cdf[0])  # pmf_0 = F_0
    np.divide(low, ratio, out=ratio)  # p' / q'
    below = np.empty((n, rows), np.bool_)
    pmf = np.empty(rows)
    built = 1
    needed = _cdf_rows(n, low.max(initial=0.0), draws.max(initial=0.0))
    previous = cdf[0]
    while True:
        # Rows built..needed-1 first hold the pmf factors, then F_k.
        k = np.arange(built, needed, dtype=np.float64)[:, None]
        np.multiply((n + 1 - k) / k, ratio, out=cdf[built:needed])
        for row in range(built, needed):
            np.multiply(cdf[row], previous, out=pmf)
            np.add(cdf[row - 1], pmf, out=cdf[row])
            previous = pmf
        built = needed
        np.less(cdf[:needed], draws, out=below[:needed])
        if needed == n or not below[needed - 1].any():
            break
        needed += 1
    np.copyto(out, count_true(below[:needed], np.empty(rows, np.uint8)))
    np.subtract(n, out, out=out, where=p > 0.5)
    return out


def count_true(table: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Each column's number of true entries in a ``(rows, columns)``
    bool table.

    A bool-to-int reduce casts every element, so the flags are summed
    as bytes through their ``uint8`` view, at most 255 rows a pass so
    that no byte overflows.  ``count`` is the ``uint8`` row a pass sums
    into.  Up to 255 rows it holds the result and is returned; past
    that the passes add up in a new ``intp`` row.  A caller that scales
    the count by a Python int must name a wider ``dtype``: NumPy 2 keeps
    ``uint8`` arithmetic ``uint8``.
    """
    flags = table.view(np.uint8)
    np.add.reduce(flags[:255], axis=0, out=count)
    if len(flags) <= 255:
        return count
    total = count.astype(np.intp)
    for start in range(255, len(flags), 255):
        np.add.reduce(flags[start:start + 255], axis=0, out=count)
        np.add(total, count, out=total)
    return total


def winners_from_uniforms(
    probabilities: np.ndarray, draws: np.ndarray
) -> np.ndarray:
    """Winner indices from per-trial categorical laws and given uniforms.

    The inverse-CDF arithmetic of :func:`sample_winners`, factored out
    so the batched kernels (:mod:`repro.sim.kernels`) can feed it
    pre-drawn uniforms while staying bit-identical to the per-round
    sampler.

    Parameters
    ----------
    probabilities:
        Array of shape ``(trials, miners)``; rows must sum to one.
    draws:
        Uniform variates in ``[0, 1)``, shape ``(trials,)``.
    """
    cdf = np.cumsum(probabilities, axis=1)
    # Guard against rounding: force the last column to 1 exactly.
    cdf[:, -1] = 1.0
    return (draws[:, None] > cdf).sum(axis=1)


def sample_winners(probabilities: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one winner per trial from per-trial categorical laws.

    Parameters
    ----------
    probabilities:
        Array of shape ``(trials, miners)``; rows must sum to one.
    rng:
        Random generator.

    Returns
    -------
    numpy.ndarray of shape ``(trials,)`` with winner indices.

    Notes
    -----
    Uses the inverse-CDF method vectorised across trials: one uniform
    per trial compared against the per-row cumulative sums.  This is
    the hot path of the whole simulator; the fused kernels in
    :mod:`repro.sim.kernels` batch the uniforms across rounds via
    :func:`winners_from_uniforms`.
    """
    if probabilities.ndim != 2:
        raise ValueError("probabilities must be 2-D (trials, miners)")
    draws = rng.random(probabilities.shape[0])
    return winners_from_uniforms(probabilities, draws)


@dataclass
class EnsembleState:
    """Mutable simulation state of an ensemble of mining games.

    Attributes
    ----------
    stakes:
        Current *competing resource* per trial and miner — hash power
        for PoW (constant), effective stakes for PoS.  Shape
        ``(trials, miners)``.
    rewards:
        Cumulative *issued* rewards per trial and miner.  Shape
        ``(trials, miners)``.  Reward-withholding schemes issue here
        immediately even though the stake effect is delayed.
    round_index:
        Number of completed rounds.
    extra:
        Protocol-private auxiliary arrays (e.g. pending vesting
        rewards).
    scratch:
        Reusable work-buffer pool attached by the batched kernels
        (:class:`repro.sim.kernels.ScratchBuffers`); None until a
        fused advance first runs.  Carries no simulation state — only
        preallocated arrays the inner loops overwrite each round.
    """

    stakes: np.ndarray
    rewards: np.ndarray
    round_index: int = 0
    extra: Dict[str, np.ndarray] = field(default_factory=dict)
    scratch: Optional[Any] = field(default=None, repr=False, compare=False)

    @classmethod
    def concatenate(cls, states: Sequence["EnsembleState"]) -> "EnsembleState":
        """One state whose trial axis runs through ``states`` in order.

        Every array — stakes, rewards and each ``extra`` entry — carries
        trials on axis 0, so the states must share their miner count,
        their ``extra`` keys and their round index.
        """
        first = states[0]
        for state in states[1:]:
            if state.round_index != first.round_index or (
                state.extra.keys() != first.extra.keys()
            ):
                raise ValueError(
                    "states to concatenate must share their round index "
                    "and extra arrays"
                )
        return cls(
            stakes=np.concatenate([state.stakes for state in states]),
            rewards=np.concatenate([state.rewards for state in states]),
            round_index=first.round_index,
            extra={
                key: np.concatenate([state.extra[key] for state in states])
                for key in first.extra
            },
        )

    @property
    def trials(self) -> int:
        return self.stakes.shape[0]

    @property
    def miners(self) -> int:
        return self.stakes.shape[1]

    def stake_shares(self) -> np.ndarray:
        """Current stake shares, shape ``(trials, miners)``."""
        return self.stakes / self.stakes.sum(axis=1, keepdims=True)

    def reward_fractions(self, total_issued: float) -> np.ndarray:
        """Cumulative reward fractions given the total issued so far."""
        if total_issued <= 0.0:
            raise ValueError("total_issued must be positive")
        return self.rewards / total_issued


class IncentiveProtocol(abc.ABC):
    """Abstract incentive model advancing an ensemble round by round."""

    #: Cosmetic unit of one round ("block" or "epoch").
    round_unit: str = "block"

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short protocol name ("PoW", "ML-PoS", ...)."""

    @property
    @abc.abstractmethod
    def reward_per_round(self) -> float:
        """Total reward issued to all miners in one round."""

    @abc.abstractmethod
    def make_state(self, allocation: Allocation, trials: int) -> EnsembleState:
        """Create the initial ensemble state for ``trials`` games."""

    @abc.abstractmethod
    def step(self, state: EnsembleState, rng: np.random.Generator) -> None:
        """Advance every trial by one round, in place."""

    def advance_many(
        self, state: EnsembleState, rounds: int, rng: np.random.Generator
    ) -> None:
        """Advance every trial by ``rounds`` rounds.

        The default implementation loops :meth:`step`; protocols whose
        dynamics allow it (PoW's i.i.d. lottery) override this with a
        closed-form jump.
        """
        rounds = ensure_positive_int("rounds", rounds)
        for _ in range(rounds):
            self.step(state, rng)

    def total_issued(self, rounds: int) -> float:
        """Total reward issued after ``rounds`` rounds."""
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        return self.reward_per_round * rounds

    def _initial_arrays(self, allocation: Allocation, trials: int) -> EnsembleState:
        """Shared state construction: tiled stakes, zero rewards."""
        trials = ensure_positive_int("trials", trials)
        stakes = allocation.tiled(trials)
        rewards = np.zeros_like(stakes)
        return EnsembleState(stakes=stakes, rewards=rewards)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class StakeLotteryProtocol(IncentiveProtocol):
    """A protocol in which each round elects exactly one block proposer.

    Subclasses define :meth:`sample_block_winners` (how the proposer is
    drawn from the current competing resource) and optionally override
    :meth:`credit_reward` (how the block reward feeds back into the
    resource — PoW's does not, PoS's does).

    Parameters
    ----------
    reward:
        Block reward ``w``, normalised against the initial resource.
    """

    def __init__(self, reward: float) -> None:
        if reward <= 0.0:
            raise ValueError(f"reward must be positive, got {reward!r}")
        self._reward = float(reward)

    @property
    def reward_per_round(self) -> float:
        return self._reward

    @property
    def reward(self) -> float:
        """The block reward ``w`` (alias of :attr:`reward_per_round`)."""
        return self._reward

    @abc.abstractmethod
    def sample_block_winners(
        self, state: EnsembleState, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw this round's proposer for every trial, shape ``(trials,)``."""

    def credit_reward(self, state: EnsembleState, winners: np.ndarray) -> None:
        """Apply the block reward of this round's winners to the state.

        Default: the reward both accrues as income and compounds into
        the competing resource (the PoS behaviour).  PoW overrides to
        skip compounding.
        """
        rows = np.arange(state.trials)
        state.rewards[rows, winners] += self._reward
        state.stakes[rows, winners] += self._reward

    def make_state(self, allocation: Allocation, trials: int) -> EnsembleState:
        return self._initial_arrays(allocation, trials)

    def step(self, state: EnsembleState, rng: np.random.Generator) -> None:
        winners = self.sample_block_winners(state, rng)
        self.credit_reward(state, winners)
        state.round_index += 1
