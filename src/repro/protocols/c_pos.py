"""The compound Proof-of-Stake incentive model (Section 2.4).

Ethereum 2.0-style incentives.  Each *epoch* issues two kinds of
reward:

* a **proposer reward** ``w`` split over ``P`` shards — each shard
  elects one proposer proportionally to stake, paying ``w / P``; the
  number of shards won by miner ``i`` is ``Bin(P, share_i)``
  (jointly, Multinomial across miners);
* an **inflation (attester) reward** ``v`` distributed to *every*
  miner exactly proportionally to stake.

Both components compound into stake.  The deterministic inflation
dilutes the proposer-lottery noise, which is why C-PoS satisfies the
much weaker robust-fairness requirement of Theorem 4.10 — at ``v = 0,
P = 1`` it degenerates to ML-PoS.
"""

from __future__ import annotations

import numpy as np

from .._validation import (
    ensure_non_negative_float,
    ensure_positive_float,
    ensure_positive_int,
)
from ..core.miners import Allocation
from .base import (
    EnsembleState,
    IncentiveProtocol,
    binomial_from_uniforms,
    winners_from_uniforms,
)

__all__ = ["CompoundPoS", "BlockGranularCompoundPoS"]

#: Most shards :class:`CompoundPoS` accepts.  Its inversion draw starts
#: from ``q'**P >= 2**-P``, which must stay a normal double: at 1,100
#: shards and ``q' = 1/2`` it underflows to 0 and every draw would be P.
MAX_SHARDS = 1000


class CompoundPoS(IncentiveProtocol):
    """C-PoS: sharded proposer lottery plus proportional inflation.

    Parameters
    ----------
    proposer_reward:
        Total proposer reward ``w`` per epoch (split over shards).
    inflation_reward:
        Total inflation/attester reward ``v`` per epoch.  Ethereum 2.0
        sets ``v ~ 20 w`` (Section 2.4 remark); the paper's experiments
        use ``v = 10 w``.
    shards:
        Shard count ``P`` per epoch (32 in Ethereum 2.0), at most
        :data:`MAX_SHARDS`.
    vote_participation:
        Fraction of attesters online (``vote`` in Section 2.4, usually
        close to 1).  Scales the inflation actually paid; the unpaid
        remainder is simply not issued, mirroring Ethereum's behaviour.

    Notes
    -----
    The proposer draw, in this step and in the fused kernel
    (:mod:`repro.sim.kernels`) alike: two miners invert one uniform per
    trial-epoch through
    :func:`~repro.protocols.base.binomial_from_uniforms` (miner A's
    wins; miner B takes the rest; the kernel looks the same draws up in
    a table), more miners draw ``rng.multinomial(P, shares)``, and
    ``shards`` is at most 1,000.
    """

    round_unit = "epoch"

    def __init__(
        self,
        proposer_reward: float,
        inflation_reward: float,
        shards: int = 32,
        *,
        vote_participation: float = 1.0,
    ) -> None:
        self._proposer_reward = ensure_positive_float(
            "proposer_reward", proposer_reward
        )
        self._inflation_reward = ensure_non_negative_float(
            "inflation_reward", inflation_reward
        )
        self.shards = ensure_positive_int("shards", shards)
        if self.shards > MAX_SHARDS:
            raise ValueError(
                f"shards must be at most {MAX_SHARDS}, got {self.shards}"
            )
        if not 0.0 < vote_participation <= 1.0:
            raise ValueError("vote_participation must be in (0, 1]")
        self.vote_participation = float(vote_participation)

    @property
    def name(self) -> str:
        return "C-PoS"

    @property
    def proposer_reward(self) -> float:
        """Per-epoch proposer reward ``w``."""
        return self._proposer_reward

    @property
    def inflation_reward(self) -> float:
        """Per-epoch inflation reward ``v`` (scaled by participation)."""
        return self._inflation_reward * self.vote_participation

    @property
    def reward_per_round(self) -> float:
        return self._proposer_reward + self.inflation_reward

    def make_state(self, allocation: Allocation, trials: int) -> EnsembleState:
        return self._initial_arrays(allocation, trials)

    def step(self, state: EnsembleState, rng: np.random.Generator) -> None:
        shares = state.stake_shares()
        # Proposer lottery: P shard proposers drawn proportionally.
        if state.miners == 2:
            wins = binomial_from_uniforms(
                self.shards, shares[:, 0], rng.random(state.trials)
            )
            shard_wins = np.stack((wins, self.shards - wins), axis=1)
        else:
            shard_wins = rng.multinomial(self.shards, shares)
        proposer_income = self._proposer_reward * shard_wins / self.shards
        # Inflation: exactly proportional to current stakes.
        inflation_income = self.inflation_reward * shares
        income = proposer_income + inflation_income
        state.rewards += income
        state.stakes += income
        state.round_index += 1

    def expected_epoch_income(self, shares: np.ndarray) -> np.ndarray:
        """Expected per-miner income of one epoch given stake shares.

        ``E[income_i] = (w + v) * share_i`` — the Theorem 3.5 identity.
        """
        shares = np.asarray(shares, dtype=float)
        return self.reward_per_round * shares


class BlockGranularCompoundPoS(IncentiveProtocol):
    """C-PoS with per-shard-block accounting.

    The epoch-level :class:`CompoundPoS` matches the Theorem 3.5/4.10
    model where one round = one epoch.  The paper's *plots*, however,
    use a "Number of Blocks" axis, and its Table 1 reports a C-PoS
    convergence time (~110) comparable to PoW's per-block ~1,000 —
    i.e. measured at shard-block granularity.  This variant advances
    one shard block per round so the early-horizon behaviour is
    visible: within the first epoch only the proposer lottery has paid
    out, so ``lambda`` is a pure binomial fraction (high unfair
    probability); once the first epoch's inflation lands the
    uncertainty collapses.  Reconciles the EXPERIMENTS.md deviation on
    the Table 1 convergence column.

    Rounds issue unequal rewards (``w/P`` per block plus ``v`` at each
    epoch boundary), so :meth:`total_issued` is overridden.

    Parameters match :class:`CompoundPoS`; proposers within an epoch
    are drawn from the stake distribution at the epoch start
    (committee assignment is per epoch, Section 2.4).

    No experiment runs this variant, so it has no fused kernel
    (:mod:`repro.sim.kernels`): the batched engine runs its own
    per-block loop.
    """

    round_unit = "block"

    def __init__(
        self,
        proposer_reward: float,
        inflation_reward: float,
        shards: int = 32,
        *,
        vote_participation: float = 1.0,
    ) -> None:
        self._proposer_reward = ensure_positive_float(
            "proposer_reward", proposer_reward
        )
        self._inflation_reward = ensure_non_negative_float(
            "inflation_reward", inflation_reward
        )
        self.shards = ensure_positive_int("shards", shards)
        if not 0.0 < vote_participation <= 1.0:
            raise ValueError("vote_participation must be in (0, 1]")
        self.vote_participation = float(vote_participation)

    @property
    def name(self) -> str:
        return "C-PoS/block"

    @property
    def proposer_reward(self) -> float:
        """Per-epoch proposer reward ``w`` (each block pays ``w/P``)."""
        return self._proposer_reward

    @property
    def inflation_reward(self) -> float:
        """Per-epoch inflation ``v`` (scaled by participation)."""
        return self._inflation_reward * self.vote_participation

    @property
    def reward_per_round(self) -> float:
        """Average issuance per shard block, ``(w + v) / P``.

        Only meaningful as an average — see :meth:`total_issued` for
        the exact cumulative issuance.
        """
        return (self._proposer_reward + self.inflation_reward) / self.shards

    def total_issued(self, rounds: int) -> float:
        """Exact cumulative issuance after ``rounds`` shard blocks.

        ``(w/P) * rounds`` proposer subsidies plus one full inflation
        payment ``v`` per *completed* epoch.
        """
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        completed_epochs = rounds // self.shards
        return (
            self._proposer_reward / self.shards * rounds
            + self.inflation_reward * completed_epochs
        )

    def make_state(self, allocation: Allocation, trials: int) -> EnsembleState:
        state = self._initial_arrays(allocation, trials)
        state.extra["epoch_shares"] = state.stake_shares()
        return state

    def step(self, state: EnsembleState, rng: np.random.Generator) -> None:
        position = state.round_index % self.shards
        if position == 0:
            # New epoch: committee drawn from the current stakes.
            state.extra["epoch_shares"] = state.stake_shares()
        shares = state.extra["epoch_shares"]
        # One shard proposer for this block.
        draws = rng.random(state.trials)
        winners = winners_from_uniforms(shares, draws)
        rows = np.arange(state.trials)
        block_reward = self._proposer_reward / self.shards
        state.rewards[rows, winners] += block_reward
        state.stakes[rows, winners] += block_reward
        if position == self.shards - 1 and self.inflation_reward > 0.0:
            # Epoch complete: attester rewards on the epoch committee
            # stakes.
            income = self.inflation_reward * shares
            state.rewards += income
            state.stakes += income
        state.round_index += 1
