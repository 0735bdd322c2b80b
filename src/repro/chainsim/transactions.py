"""Minimal transaction model for the chain substrate.

The fairness analysis itself never needs transactions — rewards alone
determine the mining game — but a blockchain substrate without a
ledger would be a hollow shell, and transaction fees are a classic
source of proposer income.  This module keeps the model deliberately
small: value transfers with fees and per-sender nonces, validated
against account balances.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Transaction"]


@dataclass(frozen=True)
class Transaction:
    """A signed value transfer.

    Attributes
    ----------
    sender / recipient:
        Account addresses (opaque strings; "signatures" are assumed
        valid — cryptography is out of scope, since no fairness
        measure reads a signature).
    amount:
        Value transferred (positive).
    fee:
        Fee paid to the including block's proposer (non-negative).
    nonce:
        Per-sender sequence number preventing replay.
    """

    sender: str
    recipient: str
    amount: float
    fee: float = 0.0
    nonce: int = 0

    def __post_init__(self) -> None:
        if not self.sender or not self.recipient:
            raise ValueError("sender and recipient must be non-empty")
        if self.sender == self.recipient:
            raise ValueError("self-transfers are not allowed")
        if self.amount <= 0.0:
            raise ValueError(f"amount must be positive, got {self.amount!r}")
        if self.fee < 0.0:
            raise ValueError(f"fee must be non-negative, got {self.fee!r}")
        if self.nonce < 0:
            raise ValueError(f"nonce must be non-negative, got {self.nonce!r}")

    @property
    def total_debit(self) -> float:
        """Amount leaving the sender's account (amount + fee)."""
        return self.amount + self.fee

    def key(self) -> tuple:
        """Stable identity used for deduplication in the mempool."""
        return (self.sender, self.nonce)
