"""ML-PoS staking node: ``Hash(time, ...) < D * stake`` (Section 2.2).

The Qtum/Blackcoin kernel: exactly one trial per timestamp, whose
success threshold scales with the node's *current* ledger balance.
Using the timestamp (not a nonce) as the hashed field is what removes
computation power from the race — the paper's Section 2.2 remark — and
the substrate preserves that literally: a node cannot retry within a
tick.
"""

from __future__ import annotations

from typing import Optional

from .chain import Blockchain
from .hash_oracle import HASH_SPACE
from .node import MiningNode

__all__ = ["MLPoSNode"]


class MLPoSNode(MiningNode):
    """A multi-lottery proof-of-stake miner."""

    def try_propose(
        self, chain: Blockchain, tick: int, difficulty: float
    ) -> Optional[int]:
        """One kernel trial at timestamp ``tick``.

        Succeeds when ``Hash(tick, parent, pk) < D * stake``; the
        difficulty is a per-unit-stake threshold, so the success
        probability is proportional to the node's current balance.
        """
        if difficulty <= 0.0:
            raise ValueError("difficulty must be positive")
        stake = self.stake(chain)
        if stake <= 0.0:
            return None
        target = min(int(difficulty * stake), HASH_SPACE)
        digest = self.oracle.digest(tick, chain.tip.block_hash, self.address)
        if digest < target:
            return digest
        return None
