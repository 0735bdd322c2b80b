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

* the inlined loop runs when ``fast=True`` (the default) and every node
  is an exact stock node of one type on one shared oracle (for
  :class:`CPoSNetwork`, every validator an exact
  :class:`~repro.chainsim.c_pos_node.CPoSValidator`).  It replicates
  the stock nodes' methods with per-block constants hoisted and digest
  prefixes pre-hashed through the oracle's batched-prefix interface,
  so a lottery draw costs one hasher ``copy``, one ``update`` and one
  ``digest``.  Ints are encoded by ``hash_oracle.int_chunk``, and
  counting ints (PoW nonces, ML-PoS ticks) keep one ``INT_HEADS`` head
  until their width's boundary.  The PoW and ML-PoS lottery tests
  compare digest bytes with target bytes (``target_bytes``), so only
  a winning digest becomes an int.  The loop keeps income and issuance
  in preallocated NumPy ledgers (:class:`_ArrayIncomeTracker`);
* the reference loop calls the nodes' own methods (for C-PoS, the
  committee's) each round.  It runs any other node set (a subclass,
  mixed types, several oracles) and, under ``fast=False``, every node
  set: it is the differential-test reference.

A network's ``fast`` attribute records that decision, and its
``chainsim.run`` span reports it.
"""

from __future__ import annotations

import math

from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._validation import ensure_positive_float, ensure_positive_int
from ..obs.trace import get_tracer
from .block import Block, fast_block
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


class _IncomeTracker:
    """Cumulative per-round income bookkeeping shared by the engines.

    The dict-of-lists reference implementation, used by the reference
    loops; :class:`_ArrayIncomeTracker` is its bit-identical
    preallocated-NumPy twin.
    """

    def __init__(self, addresses: Sequence[str]) -> None:
        self._addresses = list(addresses)
        self._totals: Dict[str, float] = {a: 0.0 for a in self._addresses}
        self._history: Dict[str, List[float]] = {a: [] for a in self._addresses}
        self.total_issued_history: List[float] = []
        self._total_issued = 0.0

    def reserve(self, rounds: int) -> None:
        """Capacity hint; the list-backed tracker ignores it."""

    def record_round(self, incomes: Dict[str, float]) -> None:
        for address, amount in incomes.items():
            if address in self._totals:
                self._totals[address] += amount
            self._total_issued += amount
        for address in self._addresses:
            self._history[address].append(self._totals[address])
        self.total_issued_history.append(self._total_issued)

    def record_single(self, address: str, amount: float) -> None:
        """Record a round in which one address earned everything."""
        self.record_round({address: amount})

    def record_amounts(self, amounts: Sequence[float]) -> None:
        """Record a round of per-address incomes, in address order."""
        self.record_round(dict(zip(self._addresses, amounts)))

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
    """Preallocated NumPy income/issuance ledgers of the inlined loops.

    Bit-identical to :class:`_IncomeTracker`: every recorded amount is
    added to the same running total with one IEEE double addition, and
    the network-wide issuance accumulates in the same per-address
    order; only the storage (preallocated arrays vs dicts of growing
    lists) differs.
    """

    def __init__(self, addresses: Sequence[str]) -> None:
        self._addresses = list(addresses)
        self._index = {a: i for i, a in enumerate(self._addresses)}
        width = len(self._addresses)
        self._totals = np.zeros(width, dtype=np.float64)
        self._history = np.empty((0, width), dtype=np.float64)
        self._issued = np.empty(0, dtype=np.float64)
        self._rounds = 0
        self._total_issued = 0.0

    def reserve(self, rounds: int) -> None:
        """Ensure capacity for ``rounds`` more recorded rounds."""
        needed = self._rounds + rounds
        capacity = self._issued.shape[0]
        if needed <= capacity:
            return
        capacity = max(needed, 2 * capacity, 64)
        history = np.empty((capacity, self._totals.shape[0]), dtype=np.float64)
        history[: self._rounds] = self._history[: self._rounds]
        issued = np.empty(capacity, dtype=np.float64)
        issued[: self._rounds] = self._issued[: self._rounds]
        self._history = history
        self._issued = issued

    def _commit_row(self) -> None:
        if self._rounds == self._issued.shape[0]:
            self.reserve(1)
        row = self._rounds
        self._history[row] = self._totals
        self._issued[row] = self._total_issued
        self._rounds = row + 1

    def record_single(self, address: str, amount: float) -> None:
        """Record a round in which one address earned everything."""
        index = self._index.get(address)
        if index is not None:
            self._totals[index] += amount
        self._total_issued += amount
        self._commit_row()

    def record_amounts(self, amounts: Sequence[float]) -> None:
        """Record a round of per-address incomes, in address order."""
        totals = self._totals
        total_issued = self._total_issued
        for index, amount in enumerate(amounts):
            totals[index] += amount
            total_issued += amount
        self._total_issued = total_issued
        self._commit_row()

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


def _make_tracker(addresses: Sequence[str], fast: bool):
    return _ArrayIncomeTracker(addresses) if fast else _IncomeTracker(addresses)


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
        self._tracker = _make_tracker([n.address for n in self.nodes], self.fast)

    def _seal_block(
        self, digest: int, winner: MiningNode, trusted: bool = False
    ) -> Block:
        """Shared block assembly: transactions, append, retarget, record.

        ``trusted`` (inlined races only) takes the validation-free append
        when there is no mempool — the block is transaction-less and
        built from the tip, so every checked property holds by
        construction.
        """
        if trusted and self.mempool is None:
            block = fast_block(
                height=self.chain.height + 1,
                parent_hash=self.chain.tip.block_hash,
                block_hash=digest,
                proposer=winner.address,
                timestamp=float(self.tick),
                reward=self.block_reward,
            )
            self.chain.append_trusted(block)
            self.adjuster.observe_block(block.timestamp)
            # No mempool: total_fees is exactly zero, so the recorded
            # income is the bare subsidy.
            self._tracker.record_single(winner.address, self.block_reward)
            return block
        transactions = (
            tuple(self.mempool.take(self.max_txs_per_block))
            if self.mempool is not None
            else ()
        )
        block = Block(
            height=self.chain.height + 1,
            parent_hash=self.chain.tip.block_hash,
            block_hash=digest,
            proposer=winner.address,
            timestamp=float(self.tick),
            reward=self.block_reward,
            transactions=transactions,
        )
        self.chain.append(block)
        self.adjuster.observe_block(block.timestamp)
        self._tracker.record_single(
            winner.address, self.block_reward + block.total_fees
        )
        return block

    def mine_block(self) -> Block:
        """Advance ticks until some node wins the lottery; append the block."""
        if self._race is PoWNode:
            return self._mine_block_pow()
        if self._race is MLPoSNode:
            return self._mine_block_ml_pos()
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

    def _mine_block_pow(self) -> Block:
        """Inlined PoW race for stock nodes on one oracle.

        Difficulty is frozen within a block (it changes only when a
        block seals), so it is read once, and the parent hash is
        encoded once per block; every node then grinds from a prefix it
        hashes once per parent and nonce width, paying one hasher copy,
        one ``update`` and one ``digest`` per nonce, compared as bytes
        (:meth:`PoWNode.grind`).  The candidate race replicates the
        reference loop: lowest digest wins, the earlier node on ties.
        """
        chain = self.chain
        nodes = self.nodes
        difficulty = self.adjuster.difficulty
        parent_chunk = int_chunk(chain.tip.block_hash)
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
            winner: Optional[MiningNode] = None
            for node in nodes:
                digest = node.grind(chain, difficulty, parent_chunk)
                if digest is not None and (
                    best_digest is None or digest < best_digest
                ):
                    best_digest = digest
                    winner = node
            if winner is not None:
                return self._seal_block(best_digest, winner, trusted=True)

    def _mine_block_ml_pos(self) -> Block:
        """Fully inlined ML-PoS race for stock nodes on one oracle.

        Within a block, balances and difficulty are frozen (both change
        only when a block seals), so each node's success threshold is
        hoisted out of the tick loop as target bytes (``target_bytes``)
        and a zero-stake node, whose threshold of 0 no digest beats
        (its ``try_propose`` returns None), leaves the race.  Ticks
        count up, so one ``INT_HEADS`` head serves every tick below the
        next width boundary.  Each tick hashes the shared
        ``key+tick+parent`` prefix in one ``update``; each node then
        pays one hasher copy, one ``update`` of its address chunk and
        one ``digest``, compared as bytes.  Digest values, thresholds
        and the lowest-digest tie-break (the earlier node on ties)
        replicate :meth:`MLPoSNode.try_propose` exactly; only the winner
        is converted to an int.
        """
        chain = self.chain
        difficulty = self.adjuster.difficulty
        if difficulty <= 0.0:
            # The naive loop raises from the first node's try_propose,
            # after the tick has advanced; replicate that state.
            self.tick += 1
            raise ValueError("difficulty must be positive")
        race = []
        for node in self.nodes:
            stake = chain.balance(node.address)
            if stake > 0.0:
                target = target_bytes(min(int(difficulty * stake), HASH_SPACE))
                race.append((target, node._address_chunk, node))
        keyed_copy = self.nodes[0].oracle.prefix().copy
        parent_chunk = int_chunk(chain.tip.block_hash)
        tick = self.tick
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
                for target, address_chunk, node in race:
                    hasher = prefix.copy()
                    hasher.update(address_chunk)
                    digest = hasher.digest()
                    if digest < target and (best is None or digest < best):
                        best = digest
                        winner = node
                if best is not None:
                    self.tick = tick
                    return self._seal_block(
                        int.from_bytes(best, "big"), winner, trusted=True
                    )
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
        self._tracker.reserve(blocks)
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
        if self.fast:
            # Per-node ``key+address`` deadline prefixes and the
            # ``key+"block"`` block-hash prefix, hashed once per network.
            oracle = self.nodes[0].oracle
            self._exponential = race is FSLPoSNode
            self._deadline_prefixes = [
                oracle.prefix(node.address) for node in self.nodes
            ]
            self._block_prefix = oracle.prefix("block")
        self._tracker = _make_tracker([n.address for n in self.nodes], self.fast)

    def _seal_block(
        self,
        deadline: float,
        winner: MiningNode,
        tip_chunk: Optional[bytes] = None,
    ) -> Block:
        """Block assembly: block hash, transactions, append, record.

        The inlined race passes the tip hash's wire encoding
        (``tip_chunk``): the block hash then finishes the cached block
        prefix, and with no mempool the block takes the
        validation-free append (the deadline extends the tip by a
        non-negative wait and there are no transactions, so every
        validated property holds by construction).
        """
        tip_hash = self.chain.tip.block_hash
        if tip_chunk is None:
            tail = winner.oracle.digest("block", winner.address, tip_hash)
        else:
            tail = HashOracle.digest_tail(
                self._block_prefix, winner._address_chunk, tip_chunk
            )
        block_hash = tip_hash + 1 + tail % (1 << 64)
        if tip_chunk is not None and self.mempool is None:
            block = fast_block(
                height=self.chain.height + 1,
                parent_hash=tip_hash,
                block_hash=block_hash,
                proposer=winner.address,
                timestamp=deadline,
                reward=self.block_reward,
            )
            self.chain.append_trusted(block)
            self._tracker.record_single(winner.address, self.block_reward)
            return block
        transactions = (
            tuple(self.mempool.take(self.max_txs_per_block))
            if self.mempool is not None
            else ()
        )
        block = Block(
            height=self.chain.height + 1,
            parent_hash=tip_hash,
            block_hash=block_hash,
            proposer=winner.address,
            timestamp=deadline,
            reward=self.block_reward,
            transactions=transactions,
        )
        self.chain.append(block)
        self._tracker.record_single(
            winner.address, self.block_reward + block.total_fees
        )
        return block

    def _mine_block_deadline_fast(self) -> Block:
        """Inlined deadline race for stock SL or FSL nodes on one oracle.

        Replicates the reference ``min((deadline, address, node))``
        tuple race — strict deadline comparison, address tie-break —
        with the per-node draw reduced to one copy of the node's cached
        ``key+address`` prefix, one ``update`` of the tip's
        ``int_chunk`` and one ``digest``, and the deadline arithmetic
        evaluated in the nodes' exact expression order.
        """
        chain = self.chain
        tip = chain.tip
        tip_timestamp = tip.timestamp
        tip_chunk = int_chunk(tip.block_hash)
        basetime = self.basetime
        exponential = self._exponential
        from_bytes = int.from_bytes
        log1p = math.log1p
        inf = math.inf
        best: Optional[float] = None
        best_address: Optional[str] = None
        winner: Optional[MiningNode] = None
        for node, prefix in zip(self.nodes, self._deadline_prefixes):
            stake = chain.balance(node.address)
            if stake <= 0.0:
                deadline = inf
            else:
                # HashOracle.fraction's 53-bit map, inlined (hot: per
                # node per block).
                hasher = prefix.copy()
                hasher.update(tip_chunk)
                u = (from_bytes(hasher.digest(), "big") >> 203) / 9007199254740992.0
                if exponential:
                    deadline = tip_timestamp + basetime * (-log1p(-u)) / stake
                else:
                    deadline = tip_timestamp + basetime * u / stake
            if (
                winner is None
                or deadline < best
                or (deadline == best and node.address < best_address)
            ):
                best = deadline
                best_address = node.address
                winner = node
        if best == inf:
            raise RuntimeError("no node can propose (all stakes are zero)")
        return self._seal_block(best, winner, tip_chunk)

    def mine_block(self) -> Block:
        """Resolve the deadline race for the next block and append it."""
        if self.fast:
            return self._mine_block_deadline_fast()
        deadlines: List[Tuple[float, str, MiningNode]] = []
        for node in self.nodes:
            deadline = node.proposal_deadline(self.chain, self.basetime)
            deadlines.append((deadline, node.address, node))
        deadline, _, winner = min(deadlines)
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
        self._tracker.reserve(blocks)
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
        # The ``key+"randao"`` and ``key+"block"`` digest prefixes,
        # hashed once per network.
        self._randao_prefix = oracle.prefix("randao")
        self._block_prefix = oracle.prefix("block")
        shards = self.committee.shards
        self._shard_chunks = [int_chunk(shard) for shard in range(shards)]
        # Each shard block's offset into its epoch, evaluated as the
        # reference's ``(shard + 1) * epoch_duration / shards``.
        self._shard_offsets = [
            (shard + 1) * self.epoch_duration / shards for shard in range(shards)
        ]
        self._tracker = _make_tracker(self._addresses, self.fast)

    def run_epoch(self) -> List[str]:
        """Run one epoch: elect shard proposers, append blocks, pay attesters."""
        if self.fast:
            return self._run_epoch_fast()
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

    def _run_epoch_fast(self) -> List[str]:
        """One epoch with shared stake shares, pre-hashed digest
        prefixes and array income ledgers.

        The naive path computes the stake-share dict twice (attester
        rewards, then proposer election) from the same epoch-start
        balances; computing it once yields the identical values.  The
        election's stake CDF is built once per epoch with
        ``itertools.accumulate``, whose running sums are the reference
        walk's bit for bit, so ``bisect_right`` finds the walk's first
        ``u < cumulative`` (clamped to the last validator, the walk's
        fallback when rounding leaves the CDF below ``u``).  Each shard
        pays two draws of one hasher copy, one ``update`` and one
        ``digest``: the RANDAO draw finishes the ``key+"randao"+epoch``
        prefix with the shard and the epoch-start tip (the reference
        elects every proposer before the epoch's first block), and the
        block hash finishes the ``key+"block"+epoch`` prefix with the
        shard and the evolving tip.  Block timestamps add the
        per-shard offsets computed in ``__init__``.  Issuance and
        per-validator income accumulate in the naive loop's order.
        """
        chain = self.chain
        addresses = self._addresses
        last = len(addresses) - 1
        stakes = [chain.balance(address) for address in addresses]
        total = sum(stakes)
        if total <= 0.0:
            raise ValueError("total validator stake must be positive")
        shares = [stake / total for stake in stakes]
        paid = self.inflation_reward * self.vote_participation
        attester_amounts = [paid * share for share in shares]
        cdf = list(accumulate(shares))

        epoch = self.epoch
        tip_hash = chain.tip.block_hash
        # Every shard's RANDAO draw reads the epoch-start tip.
        tip_chunk = int_chunk(tip_hash)
        randao_tails = [chunk + tip_chunk for chunk in self._shard_chunks]
        epoch_chunk = int_chunk(epoch)
        randao_prefix = self._randao_prefix.copy()
        randao_prefix.update(epoch_chunk)
        randao_copy = randao_prefix.copy
        block_prefix = self._block_prefix.copy()
        block_prefix.update(epoch_chunk)
        block_copy = block_prefix.copy
        from_bytes = int.from_bytes
        incomes = [0.0] * len(addresses)
        per_shard_reward = self.proposer_reward / self.committee.shards
        base_time = epoch * self.epoch_duration
        height = chain.height
        proposers: List[str] = []
        for shard_chunk, randao_tail, offset in zip(
            self._shard_chunks, randao_tails, self._shard_offsets
        ):
            hasher = randao_copy()
            hasher.update(randao_tail)
            u = (from_bytes(hasher.digest(), "big") >> 203) / 9007199254740992.0
            index = bisect_right(cdf, u)
            if index > last:
                index = last
            proposer = addresses[index]
            proposers.append(proposer)
            hasher = block_copy()
            hasher.update(shard_chunk + int_chunk(tip_hash))
            height += 1
            block = fast_block(
                height=height,
                parent_hash=tip_hash,
                block_hash=from_bytes(hasher.digest(), "big"),
                proposer=proposer,
                timestamp=base_time + offset,
                reward=per_shard_reward,
            )
            chain.append_trusted(block)
            tip_hash = block.block_hash
            incomes[index] += per_shard_reward
        for index, address in enumerate(addresses):
            chain.credit(address, attester_amounts[index])
            incomes[index] += attester_amounts[index]
        self._tracker.record_amounts(incomes)
        self.epoch += 1
        return proposers

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
        self._tracker.reserve(epochs)
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
