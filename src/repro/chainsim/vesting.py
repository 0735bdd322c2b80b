"""A ledger with periodically vesting block rewards (Section 6.3).

The paper's reward-withholding remedy issues block rewards immediately
but lets them count as *staking power* only from the next multiple of
the vesting period.  :class:`VestingBlockchain` implements that on the
node-level substrate: rewards accumulate in a pending pot per address,
``balance()`` (what the staking nodes read) excludes the pot, and the
network calls :meth:`maybe_vest` after each block to fold the pot in
at period boundaries.

Transactions spend only vested funds — unvested rewards are locked,
which is the natural ledger semantics of withholding.

The networks' inlined races seal rows here too (see
:mod:`repro.chainsim.chain`): :class:`VestingRowBatch` credits each
row's reward to the pending pot and vests it at period boundaries, as
:meth:`VestingBlockchain.append` and :meth:`~VestingBlockchain.maybe_vest`
do block by block, and its rows record the zero reward the stored
blocks carry.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from .._validation import ensure_positive_int
from .block import Block
from .chain import Blockchain, RowBatch

__all__ = ["VestingBlockchain", "VestingRowBatch"]


class VestingBlockchain(Blockchain):
    """A :class:`Blockchain` whose block rewards vest periodically.

    Parameters
    ----------
    initial_balances:
        Genesis allocation (fully vested).
    vesting_period:
        Rewards take effect at the next block height that is a multiple
        of this period (the paper uses 1,000).

    Notes
    -----
    * ``balance(address)`` returns the *vested* balance — the staking
      power the mining lotteries see and the funds transactions can
      spend.
    * ``pending(address)`` returns the locked reward pot.
    * ``total_balance(address)`` is their sum (the income the fairness
      metrics count, since rewards are issued immediately).
    """

    def __init__(
        self, initial_balances: Mapping[str, float], vesting_period: int = 1000
    ) -> None:
        super().__init__(initial_balances)
        self.vesting_period = ensure_positive_int("vesting_period", vesting_period)
        self._pending: Dict[str, float] = {}
        self.vesting_events = 0

    # -- balances -----------------------------------------------------------

    def pending(self, address: str) -> float:
        """Rewards issued to ``address`` but not yet vested."""
        return self._pending.get(address, 0.0)

    def total_balance(self, address: str) -> float:
        """Vested balance plus pending rewards."""
        return self.balance(address) + self.pending(address)

    def total_supply(self) -> float:
        """Circulating supply including locked rewards."""
        return super().total_supply() + sum(self._pending.values())

    # -- block application ------------------------------------------------------

    def append(self, block: Block) -> None:
        """Apply a block, diverting its reward into the pending pot.

        Transaction fees still pay out immediately (they move existing,
        vested currency rather than minting new stake), matching the
        paper's focus on withholding the *block subsidy*.
        """
        reward = block.reward
        if reward > 0.0:
            # Re-create the block with zero subsidy for the base-class
            # bookkeeping, then stash the subsidy as pending.
            stripped = Block(
                height=block.height,
                parent_hash=block.parent_hash,
                block_hash=block.block_hash,
                proposer=block.proposer,
                timestamp=block.timestamp,
                reward=0.0,
                transactions=block.transactions,
            )
            super().append(stripped)
            self._pending[block.proposer] = (
                self._pending.get(block.proposer, 0.0) + reward
            )
        else:
            super().append(block)
        self.maybe_vest()

    def row_batch(self, addresses: Sequence[str]) -> "VestingRowBatch":
        """A :class:`VestingRowBatch` for one inlined race run."""
        return VestingRowBatch(self, addresses)

    def maybe_vest(self) -> bool:
        """Fold pending rewards into balances at period boundaries.

        Returns True when a vesting event fired.
        """
        if self.height == 0 or self.height % self.vesting_period != 0:
            return False
        if not self._pending:
            return False
        for address, amount in self._pending.items():
            if amount > 0.0:
                self.credit(address, amount)
        self._pending.clear()
        self.vesting_events += 1
        return True


class VestingRowBatch(RowBatch):
    """A :class:`RowBatch` whose rows' rewards vest.

    :meth:`credit` makes :meth:`VestingBlockchain.append`'s and
    :meth:`~VestingBlockchain.maybe_vest`'s moves for the row just
    sealed: the reward goes to the chain's pending pot, and at a height
    that is a multiple of the vesting period the pot folds into the
    balances, the race's ``stakes`` among them.
    """

    vests = True

    def __init__(self, chain: VestingBlockchain, addresses: Sequence[str]) -> None:
        super().__init__(chain, addresses)
        self._slots = {address: slot for slot, address in enumerate(self.addresses)}

    def credit(self, slot: int, reward: float) -> None:
        chain = self.chain
        pending = chain._pending
        if reward > 0.0:
            address = self.addresses[slot]
            pending[address] = pending.get(address, 0.0) + reward
        height = len(chain._entries) - 1 + len(self.rows)
        if height % chain.vesting_period != 0 or not pending:
            return
        balances = chain._balances
        for address, amount in pending.items():
            if amount > 0.0:
                slot = self._slots.get(address)
                if slot is None:
                    chain.credit(address, amount)
                else:
                    # The key order credit() gives; flush writes the value.
                    balances.setdefault(address, 0.0)
                    self.stakes[slot] += amount
        pending.clear()
        chain.vesting_events += 1
