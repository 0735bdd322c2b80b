"""Differential golden tests for the chainsim networks' inlined loops.

Each network runs one of two loops: an inlined race (pre-hashed oracle
prefixes, preallocated NumPy income ledgers) when ``fast=True`` and
every node is an exact stock node of one type on one oracle, else the
reference per-object loop, which ``fast=False`` always runs.  The two
promise bit-identical results; these tests pin that promise for every
system protocol across miner counts and checkpoint schedules, for
node sets that fall back to the reference loop, plus the oracle's
batched-prefix interface and the array ledger itself.
"""

import pickle

import numpy as np
import pytest

from repro.chainsim.chain import Blockchain
from repro.chainsim.difficulty import DifficultyAdjuster
from repro.chainsim.harness import SYSTEM_PROTOCOLS, SystemExperiment
from repro.chainsim.hash_oracle import HASH_SPACE, HashOracle
from repro.chainsim.mempool import Mempool
from repro.chainsim.ml_pos_node import MLPoSNode
from repro.chainsim.network import (
    DeadlineMiningNetwork,
    TickMiningNetwork,
    _ArrayIncomeTracker,
    _IncomeTracker,
)
from repro.chainsim.pow_node import PoWNode
from repro.chainsim.sl_pos_node import FSLPoSNode, SLPoSNode
from repro.chainsim.transactions import Transaction
from repro.core.miners import Allocation


def allocation_for(miners: int) -> Allocation:
    if miners == 2:
        return Allocation.two_miners(0.2)
    return Allocation.focal_vs_equal(0.2, miners)


ROUNDS = {"pow": 40, "ml-pos": 80, "c-pos": 40}
CHECKPOINT_SCHEDULES = {
    "default": None,
    "custom": (3, 11, 30),
    "single": (30,),
}


def pow_node(address, oracle):
    return PoWNode(address, oracle, hash_rate={"A": 2, "B": 8}[address])


def pow_or_ml_pos_node(address, oracle):
    if address == "A":
        return pow_node(address, oracle)
    return MLPoSNode(address, oracle)


def run_pair(protocol, miners, checkpoints, seed=13):
    """The same system experiment through the naive and fast paths."""
    rounds = ROUNDS.get(protocol, 120)
    results = []
    for fast in (False, True):
        experiment = SystemExperiment(
            protocol, allocation_for(miners), fast=fast
        )
        results.append(
            experiment.run(rounds, repeats=3, checkpoints=checkpoints, seed=seed)
        )
    return results


class TestDifferentialGolden:
    """fast=True output is bit-identical to fast=False, everywhere."""

    @pytest.mark.parametrize("schedule", sorted(CHECKPOINT_SCHEDULES))
    @pytest.mark.parametrize("miners", [2, 3, 5])
    @pytest.mark.parametrize("protocol", sorted(SYSTEM_PROTOCOLS))
    def test_bit_identical(self, protocol, miners, schedule):
        naive, fast = run_pair(
            protocol, miners, CHECKPOINT_SCHEDULES[schedule]
        )
        np.testing.assert_array_equal(naive.checkpoints, fast.checkpoints)
        np.testing.assert_array_equal(
            naive.reward_fractions, fast.reward_fractions
        )
        np.testing.assert_array_equal(
            naive.terminal_stakes, fast.terminal_stakes
        )

    def test_fast_flag_outside_fingerprint(self, two_miners):
        from repro.runtime.spec import SystemSpec, spec_fingerprint

        keys = {
            spec_fingerprint(
                SystemSpec(
                    experiment=SystemExperiment(
                        "ml-pos", two_miners, fast=fast
                    ),
                    rounds=50,
                    repeats=4,
                    seed=7,
                ),
                shards=2,
            )
            for fast in (False, True)
        }
        assert len(keys) == 1

    def test_run_validates_before_dispatch(self, two_miners):
        experiment = SystemExperiment("ml-pos", two_miners)
        with pytest.raises(ValueError, match="repeats"):
            experiment.run(10, repeats=0)
        with pytest.raises(ValueError, match="rounds"):
            experiment.run(0, repeats=3)


class TestNetworkLevelParity:
    """Network-object parity beyond what the harness exercises."""

    def make_tick(self, fast, node_type=MLPoSNode, mempool=None, seed=5):
        oracle = HashOracle(seed)
        chain = Blockchain({"A": 0.2, "B": 0.8})
        nodes = [node_type("A", oracle), node_type("B", oracle)]
        adjuster = DifficultyAdjuster(HASH_SPACE / 10.0, target_interval=10.0)
        network = TickMiningNetwork(
            chain, nodes, adjuster, 0.01, mempool=mempool, fast=fast
        )
        return network, chain

    def test_tick_network_chain_state_identical(self):
        states = []
        for fast in (False, True):
            network, chain = self.make_tick(fast)
            network.run(40)
            states.append(
                (
                    [ (b.block_hash, b.proposer, b.timestamp) for b in chain.blocks ],
                    chain.balance("A"),
                    chain.balance("B"),
                    network.income_series(["A", "B"]),
                    network.total_issued_series(),
                )
            )
        assert states[0] == states[1]

    def test_tick_network_with_mempool_identical(self):
        # Transactions force the validated append on both paths.
        states = []
        for fast in (False, True):
            mempool = Mempool()
            mempool.add(Transaction("B", "A", amount=0.1, fee=0.01, nonce=0))
            network, chain = self.make_tick(fast, mempool=mempool)
            network.run(10)
            states.append((chain.balance("A"), chain.balance("B"),
                           network.total_issued_series()))
        assert states[0] == states[1]

    @pytest.mark.parametrize("with_mempool", [False, True])
    @pytest.mark.parametrize(
        "make_node", [pow_node, pow_or_ml_pos_node], ids=["pow", "pow+ml-pos"]
    )
    def test_pow_chain_state_identical(self, make_node, with_mempool):
        # Stock PoW nodes take the inlined PoW race (with a mempool, its
        # validated append); a mixed PoW + ML-PoS set the reference loop.
        states = []
        for fast in (False, True):
            mempool = None
            if with_mempool:
                mempool = Mempool()
                for nonce in range(2):
                    mempool.add(
                        Transaction("B", "A", amount=0.1, fee=0.01, nonce=nonce)
                    )
            network, chain = self.make_tick(
                fast, node_type=make_node, mempool=mempool
            )
            assert network.fast == (fast and make_node is pow_node)
            network.run(60)
            states.append(
                (
                    [(b.block_hash, b.proposer, b.timestamp) for b in chain.blocks],
                    chain.balance("A"),
                    chain.balance("B"),
                    network.income_series(["A", "B"]),
                    network.total_issued_series(),
                )
            )
        assert states[0] == states[1]

    def test_custom_node_subclass_falls_back_bit_identically(self):
        # A subclass with different dynamics must not be captured by
        # the exact-type specialized race.
        class BoostedNode(MLPoSNode):
            def try_propose(self, chain, tick, difficulty, *args):
                return super().try_propose(chain, tick, difficulty * 2.0)

        states = []
        for fast in (False, True):
            network, chain = self.make_tick(fast, node_type=BoostedNode)
            network.run(30)
            states.append([b.block_hash for b in chain.blocks])
        assert states[0] == states[1]

    @pytest.mark.parametrize("node_type", [SLPoSNode, FSLPoSNode])
    def test_deadline_network_identical(self, node_type):
        states = []
        for fast in (False, True):
            oracle = HashOracle(11)
            chain = Blockchain({"A": 0.2, "B": 0.8})
            nodes = [node_type("A", oracle), node_type("B", oracle)]
            network = DeadlineMiningNetwork(chain, nodes, 0.01, fast=fast)
            network.run(200)
            states.append(
                (
                    [(b.block_hash, b.proposer, b.timestamp) for b in chain.blocks],
                    network.income_series(["A", "B"]),
                    network.total_issued_series(),
                )
            )
        assert states[0] == states[1]

    def test_deadline_mixed_node_types_identical(self):
        # Mixed SL/FSL nodes run the reference loop under fast=True:
        # the inlined race needs one stock node type.
        states = []
        for fast in (False, True):
            oracle = HashOracle(3)
            chain = Blockchain({"A": 0.5, "B": 0.5})
            nodes = [SLPoSNode("A", oracle), FSLPoSNode("B", oracle)]
            network = DeadlineMiningNetwork(chain, nodes, 0.01, fast=fast)
            network.run(50)
            states.append([b.proposer for b in chain.blocks])
        assert states[0] == states[1]

    def test_cpos_validator_stake_override_falls_back_bit_identically(self):
        # A validator subclass overriding stake() must take the naive
        # epoch body even under fast=True — the inlined loop reads
        # balances straight off the ledger and would silently diverge.
        from repro.chainsim.c_pos_node import CPoSValidator
        from repro.chainsim.network import CPoSNetwork

        class SquaredStake(CPoSValidator):
            def stake(self, chain):
                balance = chain.balance(self.address)
                return balance * balance

        states = []
        for fast in (False, True):
            oracle = HashOracle(6)
            chain = Blockchain({"A": 0.2, "B": 0.8})
            validators = [SquaredStake("A", oracle), SquaredStake("B", oracle)]
            network = CPoSNetwork(
                chain, validators, oracle,
                proposer_reward=0.01, inflation_reward=0.1, shards=8,
                fast=fast,
            )
            network.run(10)
            states.append(
                (
                    chain.balance("A"),
                    chain.balance("B"),
                    network.income_series(["A", "B"]),
                    network.total_issued_series(),
                )
            )
        assert states[0] == states[1]

    def test_all_zero_stakes_raise_on_fast_path(self):
        oracle = HashOracle(1)
        chain = Blockchain({"A": 0.0, "B": 0.0})
        nodes = [SLPoSNode("A", oracle), SLPoSNode("B", oracle)]
        network = DeadlineMiningNetwork(chain, nodes, 0.01, fast=True)
        with pytest.raises(RuntimeError):
            network.mine_block()


class TestBatchedOracleInterface:
    def test_prefix_tail_matches_digest(self):
        oracle = HashOracle(99)
        fields = ("pk-A", 123, 4.5, b"blob")
        for split in range(len(fields) + 1):
            prefix = oracle.prefix(*fields[:split])
            chunks = [HashOracle.chunk(f) for f in fields[split:]]
            assert HashOracle.digest_tail(prefix, *chunks) == oracle.digest(
                *fields
            )

    def test_prefix_is_reusable(self):
        oracle = HashOracle(1)
        prefix = oracle.prefix("head")
        first = HashOracle.digest_tail(prefix, HashOracle.chunk(1))
        second = HashOracle.digest_tail(prefix, HashOracle.chunk(2))
        assert first == oracle.digest("head", 1)
        assert second == oracle.digest("head", 2)

    @pytest.mark.parametrize("seed", [0, 7, -3])
    def test_oracle_pickles_despite_cached_hasher(self, seed):
        oracle = HashOracle(seed)
        clone = pickle.loads(pickle.dumps(oracle))
        assert clone.digest("x", 1) == oracle.digest("x", 1)


class TestArrayIncomeTracker:
    ADDRESSES = ["A", "B", "C"]

    def fill(self, tracker):
        tracker.record_single("A", 0.25)
        tracker.record_single("C", 0.125)
        tracker.record_amounts([0.1, 0.2, 0.3])
        tracker.record_single("B", 0.0625)

    def test_matches_reference_tracker_bitwise(self):
        reference = _IncomeTracker(self.ADDRESSES)
        array = _ArrayIncomeTracker(self.ADDRESSES)
        self.fill(reference)
        self.fill(array)
        assert array.income_series(self.ADDRESSES) == reference.income_series(
            self.ADDRESSES
        )
        assert list(array.total_issued_history) == list(
            reference.total_issued_history
        )
        ref_history, ref_issued = reference.ledgers(["C", "A"])
        arr_history, arr_issued = array.ledgers(["C", "A"])
        np.testing.assert_array_equal(ref_history, arr_history)
        np.testing.assert_array_equal(ref_issued, arr_issued)

    def test_growth_beyond_reserve(self):
        tracker = _ArrayIncomeTracker(["A"])
        tracker.reserve(2)
        for _ in range(150):
            tracker.record_single("A", 1.0)
        assert tracker.total_issued_history[-1] == 150.0
        assert tracker.income_series(["A"])["A"][-1] == 150.0

    def test_unknown_address_amount_counts_toward_issuance(self):
        # record_round credits unknown addresses to issuance only; the
        # single-winner fast path must match.
        reference = _IncomeTracker(["A"])
        array = _ArrayIncomeTracker(["A"])
        reference.record_single("ghost", 0.5)
        array.record_single("ghost", 0.5)
        assert (
            array.total_issued_history == reference.total_issued_history
        )
        assert array.income_series(["A"]) == reference.income_series(["A"])
