"""The "real system experiment" harness.

Mirrors the paper's AWS deployments (Section 5.1): for each repeat, a
fresh two-or-more-node network is stood up with its own hash-oracle
universe, mined for a fixed number of blocks (or epochs), and the
focal miner's cumulative reward fraction is collected at checkpoints.
The repeats aggregate into the same :class:`~repro.core.EnsembleResult`
the Monte Carlo engine produces, so the green "system" bars and the
blue "simulation" bands of Figures 2-6 come from one analysis path.

The node-level simulator stands in for the Geth/Qtum/NXT binaries;
:mod:`repro.chainsim.hash_oracle` states why its hash half preserves
the paper's analysis.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from .._validation import ensure_positive_float, ensure_positive_int
from ..core.miners import Allocation
from ..core.results import EnsembleResult
from ..sim.checkpoints import linear_checkpoints, validate_checkpoints
from ..sim.rng import RandomSource, SeedLike
from .chain import Blockchain
from .c_pos_node import CPoSValidator
from .difficulty import DifficultyAdjuster
from .hash_oracle import HASH_SPACE, HashOracle
from .ml_pos_node import MLPoSNode
from .network import CPoSNetwork, DeadlineMiningNetwork, TickMiningNetwork
from .node import MiningNode
from .pow_node import PoWNode
from .sl_pos_node import FSLPoSNode, SLPoSNode

__all__ = ["SystemExperiment", "SYSTEM_PROTOCOLS"]

#: Protocols the system harness can deploy.
SYSTEM_PROTOCOLS = (
    "pow",
    "ml-pos",
    "sl-pos",
    "fsl-pos",
    "fsl-pos-withhold",
    "c-pos",
)


class SystemExperiment:
    """Repeatable node-level experiment for one protocol.

    Parameters
    ----------
    protocol:
        One of :data:`SYSTEM_PROTOCOLS`.
    allocation:
        Initial resource allocation; miner names become addresses.
    reward:
        Block reward ``w`` (per epoch proposer reward for C-PoS),
        normalised against the initial supply of 1.0.
    inflation_reward:
        C-PoS inflation ``v`` per epoch (ignored elsewhere).
    shards:
        C-PoS shard count ``P``.
    hash_rate_scale:
        PoW only: total network hash rate in nonces/tick; per-node
        rates are the allocation shares of this total (rounded, min 1).
    target_interval:
        Tick networks: desired mean ticks per block for the difficulty
        controller.
    basetime:
        Deadline networks: the SL-PoS ``basetime`` constant.
    vesting_period:
        fsl-pos-withhold only: block height multiple at which pending
        rewards vest (Section 6.3).
    fast:
        Let each network run its inlined loop (the default): pre-hashed
        hash-oracle prefixes and preallocated NumPy income ledgers.
        Every protocol here takes it, since the harness deploys stock
        nodes of one type on one oracle.  ``fast=False`` runs the
        reference per-object loop — bit-identical results, kept as the
        differential-test reference, mirroring the Monte Carlo
        engine's ``kernel="naive"`` escape hatch.  Deliberately
        excluded from cache fingerprints: one cached artifact answers
        both paths.
    """

    #: Attributes outside the content address (bit-identical knobs).
    _fingerprint_exclude_ = frozenset({"fast"})

    def __init__(
        self,
        protocol: str,
        allocation: Allocation,
        *,
        reward: float = 0.01,
        inflation_reward: float = 0.1,
        shards: int = 32,
        hash_rate_scale: int = 50,
        target_interval: float = 20.0,
        basetime: float = 60.0,
        vesting_period: int = 1000,
        fast: bool = True,
    ) -> None:
        if protocol not in SYSTEM_PROTOCOLS:
            raise ValueError(
                f"unknown protocol {protocol!r}; expected one of {SYSTEM_PROTOCOLS}"
            )
        self.protocol = protocol
        self.allocation = allocation
        self.reward = ensure_positive_float("reward", reward)
        self.inflation_reward = float(inflation_reward)
        if self.inflation_reward < 0.0:
            raise ValueError("inflation_reward must be non-negative")
        self.shards = ensure_positive_int("shards", shards)
        self.hash_rate_scale = ensure_positive_int("hash_rate_scale", hash_rate_scale)
        self.target_interval = ensure_positive_float(
            "target_interval", target_interval
        )
        self.basetime = ensure_positive_float("basetime", basetime)
        self.vesting_period = ensure_positive_int("vesting_period", vesting_period)
        self.fast = bool(fast)

    # -- deployment -----------------------------------------------------------

    def _initial_balances(self) -> Dict[str, float]:
        return {
            miner.name: float(share)
            for miner, share in zip(self.allocation.miners, self.allocation.shares)
        }

    def _deploy(self, oracle: HashOracle):
        """Stand up a fresh chain + network for one repeat."""
        chain = Blockchain(self._initial_balances())
        addresses = [m.name for m in self.allocation.miners]
        if self.protocol == "pow":
            rates = [
                max(1, round(share * self.hash_rate_scale))
                for share in self.allocation.shares
            ]
            nodes: List[MiningNode] = [
                PoWNode(address, oracle, rate)
                for address, rate in zip(addresses, rates)
            ]
            total_rate = sum(rates)
            # Success probability per nonce tuned for the target interval.
            per_nonce = 1.0 / (total_rate * self.target_interval)
            adjuster = DifficultyAdjuster(
                per_nonce * HASH_SPACE, self.target_interval
            )
            return (
                TickMiningNetwork(
                    chain, nodes, adjuster, self.reward, fast=self.fast
                ),
                chain,
            )
        if self.protocol == "ml-pos":
            nodes = [MLPoSNode(address, oracle) for address in addresses]
            # Per-unit-stake threshold; total stake starts at 1.0.
            per_tick = 1.0 / self.target_interval
            adjuster = DifficultyAdjuster(per_tick * HASH_SPACE, self.target_interval)
            return (
                TickMiningNetwork(
                    chain, nodes, adjuster, self.reward, fast=self.fast
                ),
                chain,
            )
        if self.protocol in ("sl-pos", "fsl-pos", "fsl-pos-withhold"):
            if self.protocol == "fsl-pos-withhold":
                from .vesting import VestingBlockchain

                chain = VestingBlockchain(
                    self._initial_balances(), self.vesting_period
                )
            node_type = SLPoSNode if self.protocol == "sl-pos" else FSLPoSNode
            nodes = [node_type(address, oracle) for address in addresses]
            return (
                DeadlineMiningNetwork(
                    chain, nodes, self.reward, basetime=self.basetime,
                    fast=self.fast,
                ),
                chain,
            )
        validators = [CPoSValidator(address, oracle) for address in addresses]
        network = CPoSNetwork(
            chain,
            validators,
            oracle,
            proposer_reward=self.reward,
            inflation_reward=self.inflation_reward,
            shards=self.shards,
            fast=self.fast,
        )
        return network, chain

    # -- execution -------------------------------------------------------------

    def run(
        self,
        rounds: int,
        repeats: int = 10,
        *,
        checkpoints: Optional[Sequence[int]] = None,
        seed: SeedLike = None,
    ) -> EnsembleResult:
        """Run ``repeats`` independent deployments of ``rounds`` each.

        ``rounds`` counts blocks for pow/ml-pos/sl-pos/fsl-pos and
        epochs for c-pos, matching the paper's axes.

        The repeats run on the ambient
        :class:`~repro.runtime.ParallelRunner` (the CLI's
        ``--workers``/``--cache`` runner, or a serial, uncached one),
        so the result depends on the seed and the shard plan alone.
        ``rounds`` and ``repeats`` are validated here, before any
        dispatch.
        """
        from ..runtime.context import get_default_runtime

        rounds = ensure_positive_int("rounds", rounds)
        repeats = ensure_positive_int("repeats", repeats)
        return get_default_runtime().run_system(
            self, rounds, repeats, checkpoints=checkpoints, seed=seed
        )

    def _run_serial(
        self,
        rounds: int,
        repeats: int = 10,
        *,
        checkpoints: Optional[Sequence[int]] = None,
        seed: SeedLike = None,
    ) -> EnsembleResult:
        """Run ``repeats`` deployments in-process: one shard's worker body."""
        rounds = ensure_positive_int("rounds", rounds)
        repeats = ensure_positive_int("repeats", repeats)
        if checkpoints is None:
            checkpoint_list = linear_checkpoints(rounds, count=min(20, rounds))
        else:
            checkpoint_list = validate_checkpoints(checkpoints, rounds)
        source = seed if isinstance(seed, RandomSource) else RandomSource(seed)
        addresses = [m.name for m in self.allocation.miners]

        fractions = np.empty((repeats, len(checkpoint_list), len(addresses)))
        terminal = np.empty((repeats, len(addresses)))
        rows = np.asarray(checkpoint_list, dtype=np.intp) - 1
        for repeat, child in enumerate(source.spawn(repeats)):
            oracle_seed = int(child.generator().integers(0, 2**62))
            network, chain = self._deploy(HashOracle(oracle_seed))
            network.run(rounds)
            # One array divide over (checkpoints, miners) — the same
            # scalar divisions the per-checkpoint loop performed.
            history, issued = network.ledgers(addresses)
            np.divide(history[rows], issued[rows][:, None], out=fractions[repeat])
            for m_index, address in enumerate(addresses):
                terminal[repeat, m_index] = chain.balance(address)
        return EnsembleResult(
            protocol_name=f"system:{self.protocol}",
            allocation=self.allocation,
            checkpoints=checkpoint_list,
            reward_fractions=fractions,
            terminal_stakes=terminal,
            round_unit="epoch" if self.protocol == "c-pos" else "block",
        )

    def __repr__(self) -> str:
        return (
            f"SystemExperiment({self.protocol!r}, miners={self.allocation.size}, "
            f"reward={self.reward})"
        )
