"""PoW mining node: nonce grinding against ``Hash(nonce, ...) < D``.

This is the literal Section 2.1 loop.  A node with hash rate ``r``
checks ``r`` nonces per tick against the network difficulty; the
digest includes the parent hash (so work cannot be precomputed across
blocks) and the node's address (each miner grinds her own nonce
space, standing in for the coinbase field of a real block template).
"""

from __future__ import annotations

from typing import Optional

from .._validation import ensure_positive_int
from .chain import Blockchain
from .hash_oracle import (
    HASH_SPACE,
    INT_HEADS,
    HashOracle,
    int_boundary,
    int_width,
    target_bytes,
)
from .node import MiningNode

__all__ = ["PoWNode"]


class PoWNode(MiningNode):
    """A proof-of-work miner.

    Parameters
    ----------
    address, oracle:
        See :class:`MiningNode`.
    hash_rate:
        Nonces checked per tick — the node's share of total network
        hash rate is its resource share ``a``.
    """

    def __init__(self, address: str, oracle: HashOracle, hash_rate: int) -> None:
        super().__init__(address, oracle)
        self.hash_rate = ensure_positive_int("hash_rate", hash_rate)
        self._nonce = 0
        # grind's caches: the target bytes of the last difficulty, and
        # the prefix hashed for the last parent and nonce width, which
        # serves every nonce below ``_grind_boundary``.
        self._grind_difficulty: Optional[float] = None
        self._grind_target = b""
        self._grind_parent: Optional[int] = None
        self._grind_boundary = 0
        self._grind_width = 0
        self._grind_prefix = None

    def try_propose(
        self, chain: Blockchain, tick: int, difficulty: float
    ) -> Optional[int]:
        """Grind ``hash_rate`` nonces; return the best winning digest."""
        if difficulty <= 0.0:
            raise ValueError("difficulty must be positive")
        target = min(int(difficulty), HASH_SPACE)
        parent_hash = chain.tip.block_hash
        best: Optional[int] = None
        for _ in range(self.hash_rate):
            digest = self.oracle.digest(self.address, parent_hash, self._nonce)
            self._nonce += 1
            if digest < target and (best is None or digest < best):
                best = digest
        return best

    def grind(
        self, chain: Blockchain, difficulty: float, parent_chunk: bytes
    ) -> Optional[int]:
        """:meth:`try_propose` against a pre-hashed prefix;
        ``parent_chunk`` is the tip hash's wire encoding
        (``HashOracle.chunk``).

        The digest fields are ``(address, parent, nonce)``.  A nonce of
        width ``w`` encodes as ``INT_HEADS[w]`` plus its ``w`` bytes,
        and nonces count up, so the key, address, parent and the
        width's head are hashed once per parent and width, and each
        nonce pays one hasher copy, one ``update`` of its bytes and one
        ``digest``.  The lottery test compares digest bytes with the
        target's bytes (``target_bytes``); only the winner is converted
        to an int.  Bit-identical to :meth:`try_propose` by the oracle's
        wire format.
        """
        if difficulty <= 0.0:
            raise ValueError("difficulty must be positive")
        if difficulty != self._grind_difficulty:
            self._grind_target = target_bytes(min(int(difficulty), HASH_SPACE))
            self._grind_difficulty = difficulty
        target = self._grind_target
        parent_hash = chain.tip.block_hash
        if parent_hash != self._grind_parent:
            self._grind_parent = parent_hash
            self._grind_boundary = 0
        best: Optional[bytes] = None
        nonce = self._nonce
        stop = nonce + self.hash_rate
        while nonce < stop:
            if nonce >= self._grind_boundary:
                # Nonces only count up: a new width starts here.
                width = int_width(nonce)
                prefix = self.oracle.prefix()
                prefix.update(self._address_chunk + parent_chunk + INT_HEADS[width])
                self._grind_prefix = prefix
                self._grind_width = width
                self._grind_boundary = int_boundary(width)
            width = self._grind_width
            prefix_copy = self._grind_prefix.copy
            end = min(stop, self._grind_boundary)
            # Nonces are non-negative: below the boundary their unsigned
            # bytes are the signed encoding.
            for value in range(nonce, end):
                hasher = prefix_copy()
                hasher.update(value.to_bytes(width, "big"))
                digest = hasher.digest()
                if digest < target and (best is None or digest < best):
                    best = digest
            nonce = end
        self._nonce = nonce
        return None if best is None else int.from_bytes(best, "big")
