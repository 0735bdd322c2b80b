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
from .hash_oracle import HASH_SPACE, HashOracle
from .node import MiningNode

__all__ = ["PoWNode"]

#: 4-byte big-endian length prefixes (the oracle wire format's field
#: framing, precomputed) for nonce encodings up to 63 bytes — i.e.
#: nonces below ~2^480, far beyond any reachable grind.
_LEN4 = tuple(n.to_bytes(4, "big") for n in range(64))


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
        self._grind_parent: Optional[int] = None
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
        """:meth:`try_propose` against a per-``(address, parent)``
        pre-hashed prefix; ``parent_chunk`` is the tip hash's wire
        encoding (``HashOracle.chunk``).

        The digest fields are ``(address, parent, nonce)``, so the
        whole key+address+parent state is hashed once per block and
        each nonce pays one hasher copy plus its own encoding —
        bit-identical to :meth:`try_propose` by the oracle's wire
        format.
        """
        if difficulty <= 0.0:
            raise ValueError("difficulty must be positive")
        target = min(int(difficulty), HASH_SPACE)
        parent_hash = chain.tip.block_hash
        if parent_hash != self._grind_parent:
            prefix = self.oracle.prefix()
            prefix.update(self._address_chunk)
            prefix.update(parent_chunk)
            self._grind_prefix = prefix
            self._grind_parent = parent_hash
        best: Optional[int] = None
        nonce = self._nonce
        # Local bindings and a length-prefix table keep the innermost
        # loop to the irreducible hashlib calls per nonce.
        prefix_copy = self._grind_prefix.copy
        from_bytes = int.from_bytes
        len4 = _LEN4
        for _ in range(self.hash_rate):
            # Inlined HashOracle.chunk(nonce).
            encoded = b"i" + nonce.to_bytes(
                (nonce.bit_length() + 8) // 8 + 1, "big", signed=True
            )
            hasher = prefix_copy()
            hasher.update(len4[len(encoded)])
            hasher.update(encoded)
            digest = from_bytes(hasher.digest(), "big")
            nonce += 1
            if digest < target and (best is None or digest < best):
                best = digest
        self._nonce = nonce
        return best
