"""The ledger: an append-only chain with account balances.

Maintains the canonical chain (the substrate resolves block races at
proposal time, so no reorgs occur after acceptance), validates and
applies transactions, credits block rewards, and exposes the per-miner
income series the fairness harness consumes.

The chain keeps each entry in one of two forms.  :meth:`Blockchain.append`
validates a :class:`Block` and stores it.  The networks' inlined races
seal trusted, transaction-less blocks as rows ``(block_hash, proposer,
timestamp, reward)``: a row's height is its index and its parent hash
the previous entry's hash.  A race collects one run's rows and balances
in a :class:`RowBatch` and flushes them once, at the end of the run.  A
row becomes a :class:`Block` only when something reads it (``tip``,
``blocks`` and the analysis helpers), so every reader sees the same
chain either way.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .block import GENESIS_PARENT, Block
from .transactions import Transaction

__all__ = ["Blockchain", "InvalidBlockError", "RowBatch"]

#: A trusted, transaction-less block as the inlined races seal it:
#: ``(block_hash, proposer, timestamp, reward)``.
Row = Tuple[int, str, float, float]


class InvalidBlockError(ValueError):
    """Raised when a block fails validation against the current chain."""


class Blockchain:
    """An account-model blockchain.

    Parameters
    ----------
    initial_balances:
        Genesis allocation of the currency (stake) per address.

    Notes
    -----
    * Balances double as stakes: PoS nodes read their staking power
      straight from the ledger, so block rewards compound exactly as
      the paper's PoS models prescribe.
    * Per-sender nonces must be sequential; a block containing an
      invalid transaction is rejected wholesale (the substrate's
      stand-in for full validation).
    """

    def __init__(self, initial_balances: Mapping[str, float]) -> None:
        if not initial_balances:
            raise ValueError("initial_balances must not be empty")
        for address, balance in initial_balances.items():
            if not address:
                raise ValueError("addresses must be non-empty")
            if balance < 0.0:
                raise ValueError(f"balance of {address!r} must be non-negative")
        self._balances: Dict[str, float] = dict(initial_balances)
        self._nonces: Dict[str, int] = {address: 0 for address in initial_balances}
        genesis = Block(
            height=0,
            parent_hash=GENESIS_PARENT,
            block_hash=GENESIS_PARENT,
            proposer="",
            timestamp=0.0,
            reward=0.0,
        )
        # Entry i is the block at height i: a Block, or a row that
        # _block() turns into one when it is first read.
        self._entries: List[Union[Block, Row]] = [genesis]

    # -- chain accessors ---------------------------------------------------

    def _block(self, height: int) -> Block:
        """The block at ``height``, built from its row on first read."""
        entry = self._entries[height]
        if type(entry) is tuple:
            parent = self._entries[height - 1]
            block_hash, proposer, timestamp, reward = entry
            entry = Block(
                height=height,
                parent_hash=(
                    parent[0] if type(parent) is tuple else parent.block_hash
                ),
                block_hash=block_hash,
                proposer=proposer,
                timestamp=timestamp,
                reward=reward,
            )
            self._entries[height] = entry
        return entry

    @property
    def height(self) -> int:
        """Height of the chain tip (number of non-genesis blocks)."""
        return len(self._entries) - 1

    @property
    def tip(self) -> Block:
        """The latest accepted block."""
        return self._block(len(self._entries) - 1)

    @property
    def blocks(self) -> Sequence[Block]:
        """All blocks including genesis (read-only view)."""
        return tuple(self._block(height) for height in range(len(self._entries)))

    def balance(self, address: str) -> float:
        """Current balance (== staking power) of an address."""
        return self._balances.get(address, 0.0)

    def total_supply(self) -> float:
        """Total currency in circulation."""
        return sum(self._balances.values())

    def next_nonce(self, address: str) -> int:
        """The nonce the address's next transaction must carry."""
        return self._nonces.get(address, 0)

    # -- validation and application -------------------------------------------

    def _validate(self, block: Block) -> None:
        if block.height != self.height + 1:
            raise InvalidBlockError(
                f"block height {block.height} does not extend tip {self.height}"
            )
        if block.parent_hash != self.tip.block_hash:
            raise InvalidBlockError("block parent hash does not match the tip")
        if block.timestamp < self.tip.timestamp:
            raise InvalidBlockError("block timestamp precedes its parent")
        if not block.transactions:
            # Nothing further to check — and the scratch dict copies
            # below would dominate the per-block cost of the (typical)
            # transaction-less mining loops.
            return
        # Transactions must be applicable in order against a scratch view.
        scratch_balances = dict(self._balances)
        scratch_nonces = dict(self._nonces)
        for tx in block.transactions:
            if scratch_nonces.get(tx.sender, 0) != tx.nonce:
                raise InvalidBlockError(
                    f"bad nonce for {tx.sender!r}: expected "
                    f"{scratch_nonces.get(tx.sender, 0)}, got {tx.nonce}"
                )
            if scratch_balances.get(tx.sender, 0.0) < tx.total_debit:
                raise InvalidBlockError(
                    f"insufficient balance for {tx.sender!r}"
                )
            scratch_balances[tx.sender] = (
                scratch_balances.get(tx.sender, 0.0) - tx.total_debit
            )
            scratch_balances[tx.recipient] = (
                scratch_balances.get(tx.recipient, 0.0) + tx.amount
            )
            scratch_nonces[tx.sender] = tx.nonce + 1

    def append(self, block: Block) -> None:
        """Validate and apply a block, crediting reward and fees."""
        self._validate(block)
        for tx in block.transactions:
            self._balances[tx.sender] -= tx.total_debit
            self._balances[tx.recipient] = (
                self._balances.get(tx.recipient, 0.0) + tx.amount
            )
            self._nonces[tx.sender] = tx.nonce + 1
        credit = block.reward + block.total_fees
        if credit > 0.0:
            self._balances[block.proposer] = (
                self._balances.get(block.proposer, 0.0) + credit
            )
        self._entries.append(block)

    def row_batch(self, addresses: Sequence[str]) -> "RowBatch":
        """A :class:`RowBatch` for one inlined race run over ``addresses``."""
        return RowBatch(self, addresses)

    def credit(self, address: str, amount: float) -> None:
        """Mint ``amount`` to an address outside block rewards.

        Used for protocol-level inflation (C-PoS attester rewards) that
        is not tied to block proposals.
        """
        if amount < 0.0:
            raise ValueError("amount must be non-negative")
        self._balances[address] = self._balances.get(address, 0.0) + amount

    # -- analysis helpers -----------------------------------------------------

    def proposer_counts(self) -> Dict[str, int]:
        """Number of blocks proposed per address (genesis excluded)."""
        counts: Dict[str, int] = {}
        for block in self.blocks[1:]:
            counts[block.proposer] = counts.get(block.proposer, 0) + 1
        return counts

    def reward_series(self, addresses: Iterable[str]) -> Dict[str, List[float]]:
        """Cumulative block-reward income per address after each block.

        Returns, for each requested address, a list of length
        ``height`` with the cumulative reward+fee income after blocks
        1, 2, ..., height.  Protocol-level inflation credited through
        :meth:`credit` is not included (the harness tracks it
        separately).
        """
        addresses = list(addresses)
        totals = {address: 0.0 for address in addresses}
        series: Dict[str, List[float]] = {address: [] for address in addresses}
        for block in self.blocks[1:]:
            income = block.reward + block.total_fees
            if block.proposer in totals:
                totals[block.proposer] += income
            for address in addresses:
                series[address].append(totals[address])
        return series

    def block_interval_mean(self, window: Optional[int] = None) -> float:
        """Mean timestamp gap between consecutive recent blocks."""
        blocks = self.blocks if window is None else self.blocks[-(window + 1):]
        if len(blocks) < 2:
            raise ValueError("need at least two blocks to measure intervals")
        gaps = [
            later.timestamp - earlier.timestamp
            for earlier, later in zip(blocks[:-1], blocks[1:])
        ]
        return sum(gaps) / len(gaps)


class RowBatch:
    """One inlined race run's blocks and balances, kept as plain state.

    A race seals each block as a row in ``rows`` and credits its reward
    with :meth:`credit`; ``stakes`` holds the balances of ``addresses``
    (one slot each), so crediting makes the additions
    :meth:`Blockchain.append` would make, in the same order.  ``tip_hash``
    and ``tip_timestamp`` are the chain's tip when the batch opens.
    :meth:`flush` appends the rows and writes the balances back: the race
    calls it once, in a ``finally``, so a run that raises leaves the
    blocks it sealed.
    """

    #: Whether a row's reward vests instead of paying out
    #: (:class:`~repro.chainsim.vesting.VestingBlockchain`): its row then
    #: records a zero reward, as the vesting chain's stored block does.
    vests = False

    def __init__(self, chain: Blockchain, addresses: Sequence[str]) -> None:
        self.chain = chain
        self.addresses = list(addresses)
        self.stakes = [chain.balance(address) for address in self.addresses]
        self.rows: List[Row] = []
        tip = chain._entries[-1]
        if type(tip) is tuple:
            self.tip_hash, _, self.tip_timestamp, _ = tip
        else:
            self.tip_hash, self.tip_timestamp = tip.block_hash, tip.timestamp

    def credit(self, slot: int, reward: float) -> None:
        """Credit the last row's reward to the balance in ``slot``."""
        self.stakes[slot] += reward

    def reload(self) -> None:
        """Re-read the balances after a validated append moved them."""
        self.stakes[:] = [self.chain.balance(a) for a in self.addresses]

    def flush(self) -> None:
        """Append the rows to the chain and write the balances back."""
        chain = self.chain
        balances = chain._balances
        credited = [
            address
            for address, stake in zip(self.addresses, self.stakes)
            if address not in balances and not stake == 0.0
        ]
        if credited:
            # An address the ledger lacks enters the balances dict at its
            # first credit, and total_supply() sums in dict order.  A PoW
            # winner needs no stake, so its first credit is its first
            # row.  Any other such address holds 0.0, which no sum sees,
            # or a NaN, which every sum shows (C-PoS inflation under an
            # infinite total stake).
            first = {}
            for row in self.rows:
                first.setdefault(row[1], len(first))
            for address in sorted(credited, key=lambda a: first.get(a, len(first))):
                balances[address] = 0.0
        for address, stake in zip(self.addresses, self.stakes):
            if address in balances:
                balances[address] = stake
        chain._entries.extend(self.rows)
