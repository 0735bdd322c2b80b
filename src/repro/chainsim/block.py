"""Block headers for the chain substrate."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from .transactions import Transaction

__all__ = ["Block", "GENESIS_PARENT"]

#: Parent hash of the genesis block.
GENESIS_PARENT = 0


@dataclass(frozen=True)
class Block:
    """An accepted block.

    Attributes
    ----------
    height:
        Position in the chain (genesis is 0).
    parent_hash:
        Hash of the parent block.
    block_hash:
        This block's hash (the winning lottery digest, so fork
        tie-breaks can use "lowest hash wins").
    proposer:
        Address of the winning miner ("" for genesis).
    timestamp:
        Simulated time at which the block became valid.
    reward:
        Block subsidy credited to the proposer.
    transactions:
        Included transactions (possibly empty).
    """

    height: int
    parent_hash: int
    block_hash: int
    proposer: str
    timestamp: float
    reward: float
    transactions: Tuple[Transaction, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.height < 0:
            raise ValueError(f"height must be non-negative, got {self.height!r}")
        if self.reward < 0.0:
            raise ValueError(f"reward must be non-negative, got {self.reward!r}")
        if self.height > 0 and not self.proposer:
            raise ValueError("non-genesis blocks need a proposer")

    @property
    def total_fees(self) -> float:
        """Sum of transaction fees paid to the proposer."""
        return sum(tx.fee for tx in self.transactions)

    @property
    def is_genesis(self) -> bool:
        return self.height == 0
