"""Reward withholding (Section 6.3).

The paper's second robust-fairness improvement: block rewards are
*issued* to the proposer immediately (they count as income) but only
*take effect* — start counting as staking power — at the next multiple
of the vesting period (e.g. a reward issued at block 1,024 becomes
stake at block 2,000 with a period of 1,000).  Between vesting points
the proposer lottery runs on frozen stakes, so the per-period block
counts concentrate by the law of large numbers and the compounding
feedback that widens the ML-PoS/FSL-PoS envelope is broken.

Implemented as a wrapper around any :class:`StakeLotteryProtocol`
whose winner law depends on ``state.stakes`` (ML-PoS, SL-PoS,
FSL-PoS): pending rewards accumulate in ``state.extra['pending']`` and
are folded into stakes at vesting boundaries.
"""

from __future__ import annotations

import numpy as np

from .._validation import ensure_positive_int
from ..core.miners import Allocation
from .base import EnsembleState, StakeLotteryProtocol

__all__ = ["RewardWithholding"]


class RewardWithholding(StakeLotteryProtocol):
    """Wrap a stake-lottery protocol with periodic reward vesting.

    Parameters
    ----------
    inner:
        The underlying lottery protocol (provides the winner law and
        the block reward).
    vesting_period:
        Rewards take effect at the next block index that is a multiple
        of this period (the paper uses 1,000).

    Notes
    -----
    ``state.stakes`` holds *effective* (vested) stakes — the resource
    the inner lottery actually sees.  ``state.rewards`` counts issued
    income, so reward fractions ``lambda`` include unvested rewards,
    matching how the paper plots Figure 6(b).

    The batched engine fuses the wrapper over a deadline inner
    (SL-PoS, FSL-PoS, Wave, Vixify; Figure 6 runs FSL-PoS) in
    :mod:`repro.sim.kernels`; over any other inner it runs this
    class's own per-round loop.
    """

    def __init__(self, inner: StakeLotteryProtocol, vesting_period: int = 1000) -> None:
        super().__init__(inner.reward)
        if isinstance(inner, RewardWithholding):
            raise TypeError("cannot nest RewardWithholding wrappers")
        self.inner = inner
        self.vesting_period = ensure_positive_int("vesting_period", vesting_period)
        self.round_unit = inner.round_unit

    @property
    def name(self) -> str:
        return f"{self.inner.name}+withhold"

    def make_state(self, allocation: Allocation, trials: int) -> EnsembleState:
        state = self.inner.make_state(allocation, trials)
        state.extra["pending"] = np.zeros_like(state.stakes)
        return state

    def sample_block_winners(
        self, state: EnsembleState, rng: np.random.Generator
    ) -> np.ndarray:
        # The inner lottery reads state.stakes, which holds only the
        # vested resource — exactly the intended semantics.
        return self.inner.sample_block_winners(state, rng)

    def credit_reward(self, state: EnsembleState, winners: np.ndarray) -> None:
        rows = np.arange(state.trials)
        state.rewards[rows, winners] += self.reward
        state.extra["pending"][rows, winners] += self.reward
        # Vesting happens *after* this block if the new height is a
        # multiple of the period.
        if (state.round_index + 1) % self.vesting_period == 0:
            state.stakes += state.extra["pending"]
            state.extra["pending"][:] = 0.0

    def win_probabilities(self, state: EnsembleState) -> np.ndarray:
        """Winner law of the wrapped protocol on vested stakes."""
        win_probabilities = getattr(self.inner, "win_probabilities", None)
        if win_probabilities is None:
            raise NotImplementedError(
                f"{self.inner.name} does not expose win probabilities"
            )
        return win_probabilities(state)
