"""The multi-lottery Proof-of-Stake incentive model (Section 2.2).

Qtum- and Blackcoin-style staking: at every timestamp each miner tests
``Hash(time, ...) < D * stake``; the first success proposes.  With the
paper's small per-timestamp probabilities, the block lottery is
proportional to *current* stakes — and since the block reward ``w``
compounds into stake, the process is a classical Polya urn: fair in
expectation (Theorem 3.3) but with a non-degenerate
``Beta(a/w, b/w)`` limit (Section 4.3), hence robust fairness requires
``1/n + w <= 2 a^2 eps^2 / ln(2/delta)`` (Theorem 4.3).
"""

from __future__ import annotations

import numpy as np

from .base import EnsembleState, StakeLotteryProtocol, sample_winners

__all__ = ["MultiLotteryPoS"]


class MultiLotteryPoS(StakeLotteryProtocol):
    """ML-PoS: proportional lottery on compounding stakes.

    Parameters
    ----------
    reward:
        Block reward ``w``, normalised against the initial total stake
        (Assumption 2/3 of the paper).
    exact_race:
        When true, sample each block with the exact two-miner geometric
        race of Section 2.2 (per-timestamp success probability
        ``timestamp_probability * stake_share``) including the
        simultaneous-success tie-break, instead of the proportional
        small-``p`` limit.  Only supported for two-miner games; the
        difference is O(p) and invisible at the paper's parameters —
        exposed to let tests quantify exactly that claim.  No
        experiment runs it, so the batched engine fuses only the
        proportional lottery (:mod:`repro.sim.kernels`); the exact race
        runs this class's own per-round loop.
    timestamp_probability:
        Scale of the per-timestamp success probability used by the
        exact race (the paper quotes ``p ~ 1/1200`` for 5-10 minute
        blocks at 0.5s timestamps).
    """

    round_unit = "block"

    def __init__(
        self,
        reward: float,
        *,
        exact_race: bool = False,
        timestamp_probability: float = 1.0 / 1200.0,
    ) -> None:
        super().__init__(reward)
        self.exact_race = bool(exact_race)
        if not 0.0 < timestamp_probability <= 1.0:
            raise ValueError("timestamp_probability must be in (0, 1]")
        self.timestamp_probability = float(timestamp_probability)

    @property
    def name(self) -> str:
        return "ML-PoS"

    def win_probabilities(self, state: EnsembleState) -> np.ndarray:
        """Per-trial proposer law.

        Proportional to current stakes by default; the exact
        geometric-race law (two miners) when ``exact_race`` is set.
        """
        shares = state.stake_shares()
        if not self.exact_race:
            return shares
        if state.miners != 2:
            raise ValueError("exact_race is only defined for two-miner games")
        # Per-timestamp success probabilities scale with stake shares.
        p = self.timestamp_probability * 2.0 * shares  # mean p ~= timestamp_probability
        p = np.clip(p, 1e-15, 1.0)
        p_a, p_b = p[:, 0], p[:, 1]
        win_a = (p_a - p_a * p_b / 2.0) / (p_a + p_b - p_a * p_b)
        return np.stack([win_a, 1.0 - win_a], axis=1)

    def sample_block_winners(
        self, state: EnsembleState, rng: np.random.Generator
    ) -> np.ndarray:
        return sample_winners(self.win_probabilities(state), rng)
