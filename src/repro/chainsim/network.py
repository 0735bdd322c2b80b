"""Network engines: the simulated clock and block-race resolution.

Three engines matching the three interaction styles of the protocols:

* :class:`TickMiningNetwork` — PoW and ML-PoS: advance a discrete
  clock, every node attempts its lottery each tick, simultaneous
  winners are resolved by lowest digest (the substrate's stand-in for
  the propagation race), difficulty retargets on a window.
* :class:`DeadlineMiningNetwork` — SL-PoS and FSL-PoS: event-driven;
  each block deterministically schedules every node's next proposal
  deadline and the earliest wins.
* :class:`CPoSNetwork` — C-PoS: epoch-driven committee election with
  per-shard proposer blocks and proportional attester inflation.

Every engine exposes ``income_series(addresses)`` — cumulative income
per address after each round — which is what the fairness harness
consumes.

Each engine has two bit-identical loops and decides once, in
``__init__``, which one runs:

* the inlined race runs when ``fast=True`` (the default) and every node
  is an exact stock node of one type on one shared oracle (for
  :class:`CPoSNetwork`, every validator an exact
  :class:`~repro.chainsim.c_pos_node.CPoSValidator`).  It replicates
  the stock nodes' methods with per-block constants hoisted and digest
  prefixes pre-hashed through the oracle's batched-prefix interface,
  so a lottery draw costs one hasher ``copy``, one ``update`` and one
  ``digest``.  Ints are encoded by ``hash_oracle.int_chunk``, and
  counting ints (PoW nonces, ML-PoS ticks) keep one ``INT_HEADS`` head
  until their width's boundary.  The PoW and ML-PoS lottery tests, and
  the C-PoS RANDAO draw, compare digest bytes with target bytes
  (``target_bytes``).  A ``run`` keeps its stakes, tip hash and tip
  chunk in locals and builds no :class:`~repro.chainsim.block.Block`:
  it seals each block as a row of a
  :class:`~repro.chainsim.chain.RowBatch` and records each round's
  incomes in a list.  At the end of the run, in a ``finally``, it
  appends the rows, writes the balances back and hands the rounds x
  addresses income matrix to its NumPy ledger
  (:class:`_ArrayIncomeTracker`) once.  A block that carries mempool
  transactions is still built and appended validated;
* the reference loop calls the nodes' own methods (for C-PoS, the
  committee's) each round and appends a validated
  :class:`~repro.chainsim.block.Block` per block.  It runs any other
  node set (a subclass, mixed types, several oracles) and, under
  ``fast=False``, every node set: it is the differential-test
  reference.

A network's ``fast`` attribute records that decision, and its
``chainsim.run`` span reports it.
"""

from __future__ import annotations

import dataclasses
import math

from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._validation import ensure_positive_float, ensure_positive_int
from ..obs.trace import get_tracer
from .block import Block
from .chain import Blockchain
from .c_pos_node import CPoSCommittee, CPoSValidator
from .difficulty import DifficultyAdjuster
from .hash_oracle import (
    HASH_SPACE,
    INT_HEADS,
    HashOracle,
    int_boundary,
    int_chunk,
    int_width,
    target_bytes,
)
from .mempool import Mempool
from .ml_pos_node import MLPoSNode
from .node import MiningNode
from .pow_node import PoWNode
from .sl_pos_node import FSLPoSNode, SLPoSNode


__all__ = [
    "TickMiningNetwork",
    "DeadlineMiningNetwork",
    "CPoSNetwork",
]

#: ``int_chunk`` of a 256-bit digest whose top bit is set, less the
#: digest's own bytes: 34 signed bytes, two of them leading zeros.
_TOP_BIT_DIGEST_HEAD = INT_HEADS[34] + b"\0\0"


def _inlined_type(nodes, fast: bool, stock_types) -> Optional[type]:
    """The stock node type whose inlined loop runs ``nodes``, or None.

    The inlined loops replicate the stock nodes' methods, so they run
    only under ``fast`` and only when every node is an exact instance
    of one of ``stock_types`` on one shared oracle (the kernel
    registry's exact-type rule: a subclass may override any method).
    Any other node set runs the reference loop.
    """
    node_types = {type(node) for node in nodes}
    if not fast or len(node_types) != 1:
        return None
    if len({id(node.oracle) for node in nodes}) != 1:
        return None
    (node_type,) = node_types
    return node_type if node_type in stock_types else None


def _node_slots(nodes) -> Tuple[List[str], List[int]]:
    """The nodes' distinct addresses in order, and each node's slot
    among them (nodes sharing an address share a balance)."""
    addresses = list(dict.fromkeys(node.address for node in nodes))
    slot = {address: index for index, address in enumerate(addresses)}
    return addresses, [slot[node.address] for node in nodes]


def _append_block(network, block_hash: int, proposer: str, timestamp: float) -> Block:
    """Build a block carrying the mempool's next transactions, if the
    network has a mempool, and append it validated."""
    chain = network.chain
    transactions = (
        tuple(network.mempool.take(network.max_txs_per_block))
        if network.mempool is not None
        else ()
    )
    block = Block(
        height=chain.height + 1,
        parent_hash=chain.tip.block_hash,
        block_hash=block_hash,
        proposer=proposer,
        timestamp=timestamp,
        reward=network.block_reward,
        transactions=transactions,
    )
    chain.append(block)
    return block


def _sealed_tip(network) -> Block:
    """The tip as the network sealed it, with its full subsidy: a
    vesting chain stores the block with the subsidy diverted."""
    return dataclasses.replace(network.chain.tip, reward=network.block_reward)


def _winner_incomes(winners: List[int], amounts, width: int) -> np.ndarray:
    """The rounds x ``width`` income matrix of one-winner rounds: round
    r pays ``amounts[r]`` (or the scalar ``amounts``) to slot
    ``winners[r]``."""
    incomes = np.zeros((len(winners), width))
    incomes[np.arange(len(winners)), winners] = amounts
    return incomes


class _IncomeTracker:
    """Cumulative per-round income bookkeeping of the reference loops.

    The dict-of-lists reference implementation;
    :class:`_ArrayIncomeTracker` is its bit-identical NumPy twin, which
    records a whole run at once.
    """

    def __init__(self, addresses: Sequence[str]) -> None:
        self._addresses = list(addresses)
        self._totals: Dict[str, float] = {a: 0.0 for a in self._addresses}
        self._history: Dict[str, List[float]] = {a: [] for a in self._addresses}
        self.total_issued_history: List[float] = []
        self._total_issued = 0.0

    def record_round(self, incomes: Dict[str, float]) -> None:
        for address, amount in incomes.items():
            if address in self._totals:
                self._totals[address] += amount
            self._total_issued += amount
        for address in self._addresses:
            self._history[address].append(self._totals[address])
        self.total_issued_history.append(self._total_issued)

    def income_series(self, addresses: Sequence[str]) -> Dict[str, List[float]]:
        return {a: list(self._history[a]) for a in addresses}

    def ledgers(self, addresses: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
        """``(history, issued)`` arrays: cumulative income per round and
        address (rounds x len(addresses), columns in ``addresses``
        order) and total issuance per round."""
        history = np.array(
            [self._history[a] for a in addresses], dtype=np.float64
        ).T.reshape(len(self.total_issued_history), len(addresses))
        issued = np.array(self.total_issued_history, dtype=np.float64)
        return history, issued


class _ArrayIncomeTracker:
    """Preallocated NumPy income/issuance ledgers of the inlined races.

    Bit-identical to :class:`_IncomeTracker`.  :meth:`record_run` takes
    a run's rounds x addresses income matrix and accumulates it with
    ``np.cumsum``, which adds sequentially: each address's column onto
    its running total, and the issuance over the matrix flattened
    round by round in address order.  Those are the IEEE additions
    ``record_round`` makes one round at a time (a zero entry adds
    nothing).  Only the storage (preallocated arrays vs dicts of growing
    lists) differs.
    """

    def __init__(self, addresses: Sequence[str]) -> None:
        self._addresses = list(addresses)
        self._index = {a: i for i, a in enumerate(self._addresses)}
        width = len(self._addresses)
        self._history = np.empty((0, width), dtype=np.float64)
        self._issued = np.empty(0, dtype=np.float64)
        self._rounds = 0

    def reserve(self, rounds: int) -> None:
        """Ensure capacity for ``rounds`` more recorded rounds."""
        needed = self._rounds + rounds
        capacity = self._issued.shape[0]
        if needed <= capacity:
            return
        capacity = max(needed, 2 * capacity, 64)
        history = np.empty((capacity, len(self._addresses)), dtype=np.float64)
        history[: self._rounds] = self._history[: self._rounds]
        issued = np.empty(capacity, dtype=np.float64)
        issued[: self._rounds] = self._issued[: self._rounds]
        self._history = history
        self._issued = issued

    def record_run(self, incomes: np.ndarray) -> None:
        """Record a run: ``incomes[r, a]`` is what address ``a`` (in
        address order) earned in the run's round ``r``."""
        rounds, width = incomes.shape
        if rounds == 0:
            return
        self.reserve(rounds)
        start = self._rounds
        end = start + rounds
        if start:
            totals = self._history[start - 1]
            issued = self._issued[start - 1]
        else:
            totals = np.zeros(width)
            issued = 0.0
        self._history[start:end] = np.cumsum(
            np.vstack((totals, incomes)), axis=0
        )[1:]
        flat = np.concatenate(([issued], incomes.ravel()))
        self._issued[start:end] = np.cumsum(flat)[width::width]
        self._rounds = end

    @property
    def total_issued_history(self) -> List[float]:
        return self._issued[: self._rounds].tolist()

    def income_series(self, addresses: Sequence[str]) -> Dict[str, List[float]]:
        history = self._history
        rounds = self._rounds
        return {
            a: history[:rounds, self._index[a]].tolist() for a in addresses
        }

    def ledgers(self, addresses: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
        """See :meth:`_IncomeTracker.ledgers`; array slices, no copies
        beyond the column selection."""
        columns = [self._index[a] for a in addresses]
        return (
            self._history[: self._rounds][:, columns],
            self._issued[: self._rounds],
        )


class _TipHash:
    """The chain as :meth:`PoWNode.grind` reads it, ``chain.tip.block_hash``,
    over the PoW race's local tip hash: no Block is built for it."""

    __slots__ = ("block_hash",)

    def __init__(self, block_hash: int) -> None:
        self.block_hash = block_hash

    @property
    def tip(self) -> "_TipHash":
        return self


class TickMiningNetwork:
    """Discrete-clock mining for PoW / ML-PoS nodes.

    Parameters
    ----------
    chain:
        The shared ledger.
    nodes:
        Tick-mining nodes (must implement ``try_propose``).
    adjuster:
        Difficulty controller.
    block_reward:
        Subsidy per block.
    mempool / max_txs_per_block:
        Optional transaction inclusion.
    max_ticks_per_block:
        Safety valve: raise instead of looping forever when the
        difficulty is impossibly low.
    fast:
        Run the inlined race when every node is a stock
        :class:`~repro.chainsim.pow_node.PoWNode` or every node a stock
        :class:`~repro.chainsim.ml_pos_node.MLPoSNode`, all on one
        oracle (the default); False always runs the reference loop.
        Bit-identical either way.  The ``fast`` attribute records
        whether the inlined race runs.
    """

    def __init__(
        self,
        chain: Blockchain,
        nodes: Sequence[MiningNode],
        adjuster: DifficultyAdjuster,
        block_reward: float,
        *,
        mempool: Optional[Mempool] = None,
        max_txs_per_block: int = 100,
        max_ticks_per_block: int = 1_000_000,
        fast: bool = True,
    ) -> None:
        if not nodes:
            raise ValueError("need at least one node")
        self.chain = chain
        self.nodes = list(nodes)
        self.adjuster = adjuster
        self.block_reward = ensure_positive_float("block_reward", block_reward)
        self.mempool = mempool
        self.max_txs_per_block = ensure_positive_int(
            "max_txs_per_block", max_txs_per_block
        )
        self.max_ticks_per_block = ensure_positive_int(
            "max_ticks_per_block", max_ticks_per_block
        )
        self.tick = 0
        self._race = _inlined_type(self.nodes, fast, (PoWNode, MLPoSNode))
        self.fast = self._race is not None
        self._addresses, self._slots = _node_slots(self.nodes)
        self._tracker = (_ArrayIncomeTracker if self.fast else _IncomeTracker)(
            self._addresses
        )

    def _seal_block(self, digest: int, winner: MiningNode) -> Block:
        """The reference loop's block assembly: transactions, append,
        retarget, record."""
        block = _append_block(self, digest, winner.address, float(self.tick))
        self.adjuster.observe_block(block.timestamp)
        self._tracker.record_round(
            {winner.address: self.block_reward + block.total_fees}
        )
        return block

    def mine_block(self) -> Block:
        """Advance ticks until some node wins the lottery; append the block."""
        if self.fast:
            self._run_race(1)
            return _sealed_tip(self)
        ticks_waited = 0
        while True:
            self.tick += 1
            ticks_waited += 1
            if ticks_waited > self.max_ticks_per_block:
                raise RuntimeError(
                    "no block found within max_ticks_per_block; "
                    "difficulty is too low"
                )
            candidates: List[Tuple[int, MiningNode]] = []
            for node in self.nodes:
                digest = node.try_propose(self.chain, self.tick, self.adjuster.difficulty)
                if digest is not None:
                    candidates.append((digest, node))
            if not candidates:
                continue
            digest, winner = min(candidates, key=lambda item: item[0])
            return self._seal_block(digest, winner)

    def _run_race(self, blocks: int) -> None:
        """The inlined race for ``blocks`` blocks.

        Each block's lottery (:meth:`_pow_lottery` or
        :meth:`_ml_pos_lottery`) advances ``tick`` and returns the
        winning digest and node.  Without a mempool the block is sealed
        as a row and its reward credited to the batch's stakes; with
        one it is built and appended validated, and the stakes are
        re-read.  The batch and the income ledger are flushed once, in
        a ``finally``, so a lottery that raises leaves the chain,
        balances and ledger as the reference loop leaves them.
        """
        batch = self.chain.row_batch(self._addresses)
        lottery = self._pow_lottery if self._race is PoWNode else self._ml_pos_lottery
        observe = self.adjuster.observe_block
        mempool = self.mempool
        reward = self.block_reward
        row_reward = 0.0 if batch.vests else reward
        addresses = self._addresses
        slots = self._slots
        rows_append = batch.rows.append
        credit = batch.credit
        stakes = batch.stakes
        winners: List[int] = []
        amounts = reward if mempool is None else []
        tip_hash = batch.tip_hash
        try:
            for _ in range(blocks):
                tip_hash, position = lottery(stakes, tip_hash)
                slot = slots[position]
                timestamp = float(self.tick)
                if mempool is None:
                    rows_append((tip_hash, addresses[slot], timestamp, row_reward))
                    credit(slot, reward)
                else:
                    block = _append_block(self, tip_hash, addresses[slot], timestamp)
                    batch.reload()
                    amounts.append(reward + block.total_fees)
                winners.append(slot)
                observe(timestamp)
        finally:
            batch.flush()
            self._tracker.record_run(
                _winner_incomes(winners, amounts, len(addresses))
            )

    def _pow_lottery(self, stakes: List[float], tip_hash: int) -> Tuple[int, int]:
        """One block of the inlined PoW race; returns the winning digest
        and the winner's position.

        Difficulty is frozen within a block (it changes only when a
        block seals), so it is read once, and the parent hash is
        encoded once per block; every node then grinds from a prefix it
        hashes once per parent and nonce width, paying one hasher copy,
        one ``update`` and one ``digest`` per nonce, compared as bytes
        (:meth:`PoWNode.grind`).  The candidate race replicates the
        reference loop: lowest digest wins, the earlier node on ties.
        """
        nodes = self.nodes
        difficulty = self.adjuster.difficulty
        parent_chunk = int_chunk(tip_hash)
        chain = _TipHash(tip_hash)
        ticks_waited = 0
        while True:
            self.tick += 1
            ticks_waited += 1
            if ticks_waited > self.max_ticks_per_block:
                raise RuntimeError(
                    "no block found within max_ticks_per_block; "
                    "difficulty is too low"
                )
            best_digest: Optional[int] = None
            winner = 0
            for position, node in enumerate(nodes):
                digest = node.grind(chain, difficulty, parent_chunk)
                if digest is not None and (
                    best_digest is None or digest < best_digest
                ):
                    best_digest = digest
                    winner = position
            if best_digest is not None:
                return best_digest, winner

    def _ml_pos_lottery(self, stakes: List[float], tip_hash: int) -> Tuple[int, int]:
        """One block of the inlined ML-PoS race; returns the winning
        digest and the winner's position.

        Within a block, balances and difficulty are frozen (both change
        only when a block seals), so each node's success threshold is
        hoisted out of the tick loop as target bytes (``target_bytes``)
        and a zero-stake node, whose threshold of 0 no digest beats
        (its ``try_propose`` returns None), leaves the race.  The
        thresholds are computed within the block's first tick, where
        the reference's ``try_propose`` raises on a non-positive
        difficulty or a stake no int can hold.  Ticks count up, so one
        ``INT_HEADS`` head serves every tick below the next width
        boundary.  Each tick hashes the shared ``key+tick+parent``
        prefix in one ``update``; each node then pays one hasher copy,
        one ``update`` of its address chunk and one ``digest``, compared
        as bytes.  Digest values, thresholds and the lowest-digest
        tie-break (the earlier node on ties) replicate
        :meth:`MLPoSNode.try_propose` exactly; only the winner is
        converted to an int.
        """
        difficulty = self.adjuster.difficulty
        tick = self.tick
        self.tick = tick + 1
        if difficulty <= 0.0:
            raise ValueError("difficulty must be positive")
        race = []
        for position, (node, slot) in enumerate(zip(self.nodes, self._slots)):
            stake = stakes[slot]
            if stake > 0.0:
                target = target_bytes(min(int(difficulty * stake), HASH_SPACE))
                race.append((target, node._address_chunk, position))
        keyed_copy = self.nodes[0].oracle.prefix().copy
        parent_chunk = int_chunk(tip_hash)
        last = tick + self.max_ticks_per_block
        while tick < last:
            width = int_width(tick + 1)
            head = INT_HEADS[width]
            # Ticks are positive: below the boundary their unsigned
            # bytes are the signed encoding.
            for tick in range(tick + 1, min(last, int_boundary(width) - 1) + 1):
                prefix = keyed_copy()
                prefix.update(head + tick.to_bytes(width, "big") + parent_chunk)
                best: Optional[bytes] = None
                for target, address_chunk, position in race:
                    hasher = prefix.copy()
                    hasher.update(address_chunk)
                    digest = hasher.digest()
                    if digest < target and (best is None or digest < best):
                        best = digest
                        winner = position
                if best is not None:
                    self.tick = tick
                    return int.from_bytes(best, "big"), winner
        self.tick = last + 1
        raise RuntimeError(
            "no block found within max_ticks_per_block; difficulty is too low"
        )

    def run(self, blocks: int) -> None:
        """Mine ``blocks`` consecutive blocks."""
        blocks = ensure_positive_int("blocks", blocks)
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "chainsim.run",
                network=type(self).__name__,
                rounds=blocks,
                fast=self.fast,
            ):
                self._run(blocks)
        else:
            self._run(blocks)

    def _run(self, blocks: int) -> None:
        if self.fast:
            self._run_race(blocks)
            return
        for _ in range(blocks):
            self.mine_block()

    def income_series(self, addresses: Sequence[str]) -> Dict[str, List[float]]:
        """Cumulative income per address after each block."""
        return self._tracker.income_series(addresses)

    def total_issued_series(self) -> List[float]:
        """Total rewards issued network-wide after each block."""
        return list(self._tracker.total_issued_history)

    def ledgers(self, addresses: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
        """Cumulative income and issuance ledgers as arrays."""
        return self._tracker.ledgers(addresses)


class DeadlineMiningNetwork:
    """Event-driven deadline mining for SL-PoS / FSL-PoS nodes.

    ``fast`` runs the inlined race when every node is a stock
    :class:`~repro.chainsim.sl_pos_node.SLPoSNode` or every node a
    stock :class:`~repro.chainsim.sl_pos_node.FSLPoSNode`, all on one
    oracle (the default); False always runs the reference loop.
    Bit-identical either way.  The ``fast`` attribute records whether
    the inlined race runs.
    """

    def __init__(
        self,
        chain: Blockchain,
        nodes: Sequence[MiningNode],
        block_reward: float,
        *,
        basetime: float = 60.0,
        mempool: Optional[Mempool] = None,
        max_txs_per_block: int = 100,
        fast: bool = True,
    ) -> None:
        if not nodes:
            raise ValueError("need at least one node")
        self.chain = chain
        self.nodes = list(nodes)
        self.block_reward = ensure_positive_float("block_reward", block_reward)
        self.basetime = ensure_positive_float("basetime", basetime)
        self.mempool = mempool
        self.max_txs_per_block = ensure_positive_int(
            "max_txs_per_block", max_txs_per_block
        )
        race = _inlined_type(self.nodes, fast, (SLPoSNode, FSLPoSNode))
        self.fast = race is not None
        self._addresses, slots = _node_slots(self.nodes)
        self._tracker = (_ArrayIncomeTracker if self.fast else _IncomeTracker)(
            self._addresses
        )
        if self.fast:
            oracle = self.nodes[0].oracle
            self._exponential = race is FSLPoSNode
            # Per node: its balance slot, a copy of its ``key+address``
            # deadline prefix, its address and its address chunk.  The
            # prefixes, and the ``key+"block"`` block-hash prefix, are
            # hashed once per network.
            self._racers = [
                (slot, oracle.prefix(node.address).copy, node.address,
                 node._address_chunk)
                for node, slot in zip(self.nodes, slots)
            ]
            self._block_prefix = oracle.prefix("block")

    def _seal_block(self, deadline: float, winner: MiningNode) -> Block:
        """The reference loop's block assembly: block hash,
        transactions, append, record."""
        tip_hash = self.chain.tip.block_hash
        tail = winner.oracle.digest("block", winner.address, tip_hash)
        block = _append_block(
            self, tip_hash + 1 + tail % (1 << 64), winner.address, deadline
        )
        self._tracker.record_round(
            {winner.address: self.block_reward + block.total_fees}
        )
        return block

    def _run_race(self, blocks: int) -> None:
        """The inlined deadline race for ``blocks`` blocks.

        Replicates the reference ``min((deadline, address, node))``
        tuple race — strict deadline comparison, address tie-break —
        with the per-node draw reduced to one copy of the node's cached
        ``key+address`` prefix, one ``update`` of the tip's
        ``int_chunk`` and one ``digest``, and the deadline arithmetic
        evaluated in the nodes' exact expression order.  The block hash
        finishes the cached ``key+"block"`` prefix with the winner's
        address chunk and the tip chunk; its low 64 bits are the
        digest's last 8 bytes.  Stakes, tip hash, tip chunk and tip
        timestamp live in locals; blocks are sealed as rows (validated
        blocks, with a mempool) and the batch and income ledger are
        flushed once, in a ``finally``.
        """
        batch = self.chain.row_batch(self._addresses)
        stakes = batch.stakes
        rows_append = batch.rows.append
        credit = batch.credit if batch.vests else None
        mempool = self.mempool
        reward = self.block_reward
        row_reward = 0.0 if batch.vests else reward
        basetime = self.basetime
        exponential = self._exponential
        racers = self._racers
        block_copy = self._block_prefix.copy
        from_bytes = int.from_bytes
        log1p = math.log1p
        inf = math.inf
        winners: List[int] = []
        winners_append = winners.append
        amounts = reward if mempool is None else []
        tip_hash = batch.tip_hash
        tip_timestamp = batch.tip_timestamp
        tip_chunk = int_chunk(tip_hash)
        try:
            for _ in range(blocks):
                best = inf
                winner = None
                for racer in racers:
                    slot, prefix_copy, address, _ = racer
                    stake = stakes[slot]
                    if stake <= 0.0:
                        deadline = inf
                    else:
                        # HashOracle.fraction's 53-bit map, inlined.
                        hasher = prefix_copy()
                        hasher.update(tip_chunk)
                        u = (
                            from_bytes(hasher.digest(), "big") >> 203
                        ) / 9007199254740992.0
                        if exponential:
                            deadline = tip_timestamp + basetime * (-log1p(-u)) / stake
                        else:
                            deadline = tip_timestamp + basetime * u / stake
                    if (
                        winner is None
                        or deadline < best
                        or (deadline == best and address < winner[2])
                    ):
                        best = deadline
                        winner = racer
                if best == inf:
                    raise RuntimeError("no node can propose (all stakes are zero)")
                slot, _, address, address_chunk = winner
                hasher = block_copy()
                hasher.update(address_chunk + tip_chunk)
                tip_hash = tip_hash + 1 + from_bytes(hasher.digest()[24:], "big")
                tip_chunk = int_chunk(tip_hash)
                tip_timestamp = best
                if mempool is not None:
                    block = _append_block(self, tip_hash, address, best)
                    batch.reload()
                    amounts.append(reward + block.total_fees)
                else:
                    rows_append((tip_hash, address, best, row_reward))
                    if credit is None:
                        stakes[slot] += reward
                    else:
                        credit(slot, reward)
                winners_append(slot)
        finally:
            batch.flush()
            self._tracker.record_run(
                _winner_incomes(winners, amounts, len(self._addresses))
            )

    def mine_block(self) -> Block:
        """Resolve the deadline race for the next block and append it."""
        if self.fast:
            self._run_race(1)
            return _sealed_tip(self)
        deadlines: List[Tuple[float, str, MiningNode]] = []
        for node in self.nodes:
            deadline = node.proposal_deadline(self.chain, self.basetime)
            deadlines.append((deadline, node.address, node))
        # Nodes sharing an address tie on (deadline, address): the
        # first of them wins, as in the inlined race.
        deadline, _, winner = min(deadlines, key=lambda item: item[:2])
        if deadline == float("inf"):
            raise RuntimeError("no node can propose (all stakes are zero)")
        return self._seal_block(deadline, winner)

    def run(self, blocks: int) -> None:
        """Mine ``blocks`` consecutive blocks."""
        blocks = ensure_positive_int("blocks", blocks)
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "chainsim.run",
                network=type(self).__name__,
                rounds=blocks,
                fast=self.fast,
            ):
                self._run(blocks)
        else:
            self._run(blocks)

    def _run(self, blocks: int) -> None:
        if self.fast:
            self._run_race(blocks)
            return
        for _ in range(blocks):
            self.mine_block()

    def income_series(self, addresses: Sequence[str]) -> Dict[str, List[float]]:
        """Cumulative income per address after each block."""
        return self._tracker.income_series(addresses)

    def total_issued_series(self) -> List[float]:
        """Total rewards issued network-wide after each block."""
        return list(self._tracker.total_issued_history)

    def ledgers(self, addresses: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
        """Cumulative income and issuance ledgers as arrays."""
        return self._tracker.ledgers(addresses)


class CPoSNetwork:
    """Epoch-driven compound PoS with committees and inflation.

    ``fast`` runs the inlined epoch loop when every validator is a
    stock :class:`~repro.chainsim.c_pos_node.CPoSValidator` (the
    default); False always runs the reference body.  Bit-identical
    either way.  The ``fast`` attribute records whether the inlined
    loop runs.
    """

    def __init__(
        self,
        chain: Blockchain,
        validators: Sequence[CPoSValidator],
        oracle: HashOracle,
        *,
        proposer_reward: float,
        inflation_reward: float,
        shards: int = 32,
        vote_participation: float = 1.0,
        epoch_duration: float = 384.0,
        fast: bool = True,
    ) -> None:
        self.chain = chain
        self.committee = CPoSCommittee(validators, oracle, shards)
        self.proposer_reward = ensure_positive_float(
            "proposer_reward", proposer_reward
        )
        if inflation_reward < 0.0:
            raise ValueError("inflation_reward must be non-negative")
        self.inflation_reward = float(inflation_reward)
        if not 0.0 < vote_participation <= 1.0:
            raise ValueError("vote_participation must be in (0, 1]")
        self.vote_participation = float(vote_participation)
        self.epoch_duration = ensure_positive_float("epoch_duration", epoch_duration)
        self.epoch = 0
        self.oracle = oracle
        # Exact-type rule, as in the mining networks: the inlined epoch
        # loop reads stakes straight off the ledger, so a CPoSValidator
        # subclass overriding stake() must take the reference body
        # (which consults v.stake) even under fast=True.
        self.fast = bool(fast) and all(
            type(validator) is CPoSValidator
            for validator in self.committee.validators
        )
        self._addresses = [v.address for v in self.committee.validators]
        if self.fast:
            # The ``key+"randao"`` and ``key+"block"`` digest prefixes,
            # hashed once per network, and per shard its chunk and its
            # block's offset into the epoch, evaluated as the
            # reference's ``(shard + 1) * epoch_duration / shards``.
            self._randao_prefix = oracle.prefix("randao")
            self._block_prefix = oracle.prefix("block")
            shards = self.committee.shards
            self._shards = [
                (int_chunk(shard), (shard + 1) * self.epoch_duration / shards)
                for shard in range(shards)
            ]
            self._tracker = _ArrayIncomeTracker(self._addresses)
        else:
            self._tracker = _IncomeTracker(self._addresses)

    def run_epoch(self) -> List[str]:
        """Run one epoch: elect shard proposers, append blocks, pay attesters."""
        if self.fast:
            return self._run_fast(1)
        incomes: Dict[str, float] = {
            v.address: 0.0 for v in self.committee.validators
        }
        # Attester rewards are computed on the stakes at epoch start.
        attester = self.committee.attester_rewards(
            self.chain, self.inflation_reward, self.vote_participation
        )
        proposers = self.committee.elect_proposers(self.chain, self.epoch)
        per_shard_reward = self.proposer_reward / self.committee.shards
        base_time = self.epoch * self.epoch_duration
        for shard, proposer in enumerate(proposers):
            block = Block(
                height=self.chain.height + 1,
                parent_hash=self.chain.tip.block_hash,
                block_hash=self.oracle.digest(
                    "block", self.epoch, shard, self.chain.tip.block_hash
                ),
                proposer=proposer,
                timestamp=base_time + (shard + 1) * self.epoch_duration
                / self.committee.shards,
                reward=per_shard_reward,
            )
            self.chain.append(block)
            incomes[proposer] += per_shard_reward
        for address, amount in attester.items():
            self.chain.credit(address, amount)
            incomes[address] += amount
        self._tracker.record_round(incomes)
        self.epoch += 1
        return proposers

    def _run_fast(self, epochs: int) -> List[str]:
        """Run ``epochs`` epochs inline; returns the last epoch's proposers.

        Stakes, tip hash and tip chunk live in locals for the whole
        run.  Each epoch computes the stake shares once from its
        starting stakes (the reference computes the same dict twice,
        for the attester rewards and the election) and their CDF with
        ``itertools.accumulate``, whose running sums are the reference
        walk's bit for bit.  The walk picks the first validator with
        ``u < cumulative``, where ``u = (d >> 203) / 2**53`` for the
        RANDAO digest ``d``; since ``d >> 203`` is an integer, that is
        ``d < ceil(cumulative * 2**53) << 203``, so the draw bisects the
        digest's bytes against those thresholds as ``target_bytes``.
        The last threshold is above every digest: the walk falls back to
        the last validator when rounding leaves the CDF below ``u``.  A
        non-finite cumulative share has no threshold.  It arises only
        when the total stake is not finite (an infinite stake), and then
        every share is 0 or NaN, no ``u`` is below either, and the walk
        always ends on its fallback: every other threshold is below
        every digest.  Each shard pays two draws of one hasher copy,
        one ``update`` and one ``digest``: the RANDAO draw finishes the
        ``key+"randao"+epoch`` prefix with the shard and the epoch-start
        tip (the reference elects every proposer before the epoch's
        first block), and the block hash finishes the
        ``key+"block"+epoch`` prefix with the shard and the evolving
        tip.  A block hash whose top bit is set encodes as the digest's
        own bytes behind a fixed head (``_TOP_BIT_DIGEST_HEAD``).
        Blocks are sealed as rows, timestamps add the per-shard offsets
        computed in ``__init__``, and issuance and per-validator income
        accumulate in the reference's order; the batch and the income
        ledger are flushed once, in a ``finally``.
        """
        addresses = self._addresses
        last = len(addresses) - 1
        batch = self.chain.row_batch(addresses)
        stakes = batch.stakes
        rows = batch.rows
        rows_append = rows.append
        credit = batch.credit if batch.vests else None
        per_shard_reward = self.proposer_reward / self.committee.shards
        row_reward = 0.0 if batch.vests else per_shard_reward
        paid = self.inflation_reward * self.vote_participation
        epoch_duration = self.epoch_duration
        shard_items = self._shards
        randao_base = self._randao_prefix
        block_base = self._block_prefix
        from_bytes = int.from_bytes
        ceil = math.ceil
        head = _TOP_BIT_DIGEST_HEAD
        below_every = target_bytes(0)
        above_every = target_bytes(HASH_SPACE)
        income_rows: List[List[float]] = []
        epoch = self.epoch
        tip_hash = batch.tip_hash
        tip_chunk = int_chunk(tip_hash)
        try:
            for _ in range(epochs):
                total = sum(stakes)
                if total <= 0.0:
                    raise ValueError("total validator stake must be positive")
                shares = [stake / total for stake in stakes]
                cdf = list(accumulate(shares))
                # Shares are non-negative, so a non-finite share leaves
                # the last cumulative share non-finite.
                if math.isfinite(cdf[-1]):
                    thresholds = [
                        target_bytes(ceil(c * 9007199254740992.0) << 203)
                        for c in cdf[:-1]
                    ]
                else:
                    thresholds = [below_every] * last
                # The walk's fallback: the last validator takes any draw.
                thresholds.append(above_every)
                epoch_chunk = int_chunk(epoch)
                randao = randao_base.copy()
                randao.update(epoch_chunk)
                randao_copy = randao.copy
                block_prefix = block_base.copy()
                block_prefix.update(epoch_chunk)
                block_copy = block_prefix.copy
                base_time = epoch * epoch_duration
                incomes = [0.0] * len(addresses)
                # Every shard's RANDAO draw reads the epoch-start tip.
                epoch_tip_chunk = tip_chunk
                for shard_chunk, offset in shard_items:
                    hasher = randao_copy()
                    hasher.update(shard_chunk + epoch_tip_chunk)
                    index = bisect_right(thresholds, hasher.digest())
                    hasher = block_copy()
                    hasher.update(shard_chunk + tip_chunk)
                    digest = hasher.digest()
                    tip_hash = from_bytes(digest, "big")
                    tip_chunk = (
                        head + digest if digest[0] >= 0x80 else int_chunk(tip_hash)
                    )
                    rows_append(
                        (tip_hash, addresses[index], base_time + offset, row_reward)
                    )
                    if credit is None:
                        stakes[index] += per_shard_reward
                    else:
                        credit(index, per_shard_reward)
                    incomes[index] += per_shard_reward
                # Attester inflation (Blockchain.credit, vested at once).
                for index, share in enumerate(shares):
                    amount = paid * share
                    stakes[index] += amount
                    incomes[index] += amount
                income_rows.append(incomes)
                epoch += 1
            return [row[1] for row in rows[-len(shard_items):]]
        finally:
            self.epoch = epoch
            batch.flush()
            if income_rows:
                self._tracker.record_run(np.array(income_rows))

    def run(self, epochs: int) -> None:
        """Run ``epochs`` consecutive epochs."""
        epochs = ensure_positive_int("epochs", epochs)
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "chainsim.run",
                network=type(self).__name__,
                rounds=epochs,
                fast=self.fast,
            ):
                self._run(epochs)
        else:
            self._run(epochs)

    def _run(self, epochs: int) -> None:
        if self.fast:
            self._run_fast(epochs)
            return
        for _ in range(epochs):
            self.run_epoch()

    def income_series(self, addresses: Sequence[str]) -> Dict[str, List[float]]:
        """Cumulative income per address after each epoch."""
        return self._tracker.income_series(addresses)

    def total_issued_series(self) -> List[float]:
        """Total rewards issued network-wide after each epoch."""
        return list(self._tracker.total_issued_history)

    def ledgers(self, addresses: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
        """Cumulative income and issuance ledgers as arrays."""
        return self._tracker.ledgers(addresses)
