"""Base class for mining nodes.

A node owns an address (its public key, in the paper's notation ``pk``)
and reads its staking power straight from the ledger, so rewards
compound exactly as the protocols prescribe.  Concrete nodes implement
one of two interaction styles:

* **tick mining** (PoW, ML-PoS): the network advances a discrete clock
  and asks every node to try its lottery each tick
  (:meth:`try_propose`);
* **deadline mining** (SL-PoS, FSL-PoS): each new block immediately
  determines every node's next proposal time
  (:meth:`proposal_deadline`), and the earliest deadline wins.
"""

from __future__ import annotations

import abc
from typing import Optional

from .chain import Blockchain
from .hash_oracle import HashOracle

__all__ = ["MiningNode"]


class MiningNode(abc.ABC):
    """A network participant that can propose blocks.

    Parameters
    ----------
    address:
        The node's account address / public key.
    oracle:
        The shared hash oracle (same landscape for every node, keyed
        per experiment repeat).
    """

    def __init__(self, address: str, oracle: HashOracle) -> None:
        if not address:
            raise ValueError("address must be non-empty")
        self.address = address
        self.oracle = oracle
        # Wire encoding of the address, cached for the networks'
        # inlined races (the address appears in every lottery digest).
        self._address_chunk = HashOracle.chunk(address)

    def stake(self, chain: Blockchain) -> float:
        """The node's current staking power: its ledger balance."""
        return chain.balance(self.address)

    # -- tick mining interface ------------------------------------------------

    def try_propose(
        self, chain: Blockchain, tick: int, difficulty: float
    ) -> Optional[int]:
        """Attempt the block lottery at ``tick``.

        Returns the winning digest when the attempt succeeds (used for
        tie-breaking simultaneous winners), or None.  Tick-mining nodes
        must override this.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support tick mining"
        )

    # -- deadline mining interface -----------------------------------------------

    def proposal_deadline(self, chain: Blockchain, basetime: float) -> float:
        """The simulated time at which this node's candidate becomes valid.

        Deadline-mining nodes must override this.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support deadline mining"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(address={self.address!r})"
