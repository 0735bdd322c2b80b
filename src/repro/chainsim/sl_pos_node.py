"""SL-PoS and FSL-PoS staking nodes (Sections 2.3 and 6.2).

NXT's single-lottery scheme: when a block arrives, each miner's next
candidate gets one deterministic deadline

``time = basetime * Hash(pk, parent) / (2^256 * stake)``

and the earliest deadline is accepted.  :class:`SLPoSNode` implements
that literally; :class:`FSLPoSNode` applies the paper's treatment,

``time = basetime * (-ln(1 - Hash(pk, parent) / 2^256)) / stake``

turning the deadline exponential and the race proportional.
"""

from __future__ import annotations

import math

from .chain import Blockchain
from .node import MiningNode

__all__ = ["SLPoSNode", "FSLPoSNode"]


class SLPoSNode(MiningNode):
    """A single-lottery proof-of-stake miner (NXT semantics)."""

    def proposal_deadline(self, chain: Blockchain, basetime: float) -> float:
        """Uniform waiting time inversely proportional to stake."""
        if basetime <= 0.0:
            raise ValueError("basetime must be positive")
        stake = self.stake(chain)
        if stake <= 0.0:
            return math.inf
        u = self.oracle.fraction(self.address, chain.tip.block_hash)
        return chain.tip.timestamp + basetime * u / stake


class FSLPoSNode(MiningNode):
    """A fair-single-lottery miner (the Section 6.2 treatment)."""

    def proposal_deadline(self, chain: Blockchain, basetime: float) -> float:
        """Exponential waiting time with rate proportional to stake."""
        if basetime <= 0.0:
            raise ValueError("basetime must be positive")
        stake = self.stake(chain)
        if stake <= 0.0:
            return math.inf
        u = self.oracle.fraction(self.address, chain.tip.block_hash)
        # -log1p(-u) = -ln(1 - u); u < 1 guaranteed by fraction().
        return chain.tip.timestamp + basetime * (-math.log1p(-u)) / stake
