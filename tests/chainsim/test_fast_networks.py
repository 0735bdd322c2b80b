"""Differential golden tests for the chainsim networks' inlined loops.

Each network runs one of two loops: an inlined race (pre-hashed oracle
prefixes, preallocated NumPy income ledgers) when ``fast=True``, there
is no mempool and every node is an exact stock node of one type on one
oracle, else the reference per-object loop, which ``fast=False`` always
runs.  The two
promise bit-identical results; these tests pin that promise for every
system protocol across miner counts and checkpoint schedules, for
node sets that fall back to the reference loop, plus the oracle's
batched-prefix interface and the array ledger itself.  The inlined races
seal rows and flush them once per run; the full-state tests compare
every block, balance and ledger that leaves, across repeated runs and
single steps, and the edge tests pin the flush, the C-PoS draw's
non-finite rule and the absence of per-block ``Block`` objects.
"""

import pickle

import numpy as np
import pytest

from repro.chainsim.block import Block
from repro.chainsim.c_pos_node import CPoSValidator
from repro.chainsim.chain import Blockchain
from repro.chainsim.difficulty import DifficultyAdjuster
from repro.chainsim.harness import SYSTEM_PROTOCOLS, SystemExperiment
from repro.chainsim.hash_oracle import HASH_SPACE, HashOracle
from repro.chainsim.mempool import Mempool
from repro.chainsim.ml_pos_node import MLPoSNode
from repro.chainsim.network import (
    CPoSNetwork,
    DeadlineMiningNetwork,
    TickMiningNetwork,
    _ArrayIncomeTracker,
    _IncomeTracker,
)
from repro.chainsim.pow_node import PoWNode
from repro.chainsim.sl_pos_node import FSLPoSNode, SLPoSNode
from repro.chainsim.transactions import Transaction
from repro.chainsim.vesting import VestingBlockchain
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
        # Stock PoW nodes take the inlined PoW race; a mempool, or a
        # mixed PoW + ML-PoS set, the reference loop.
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
            if with_mempool:
                assert network.fast is False
            else:
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
    #: Four rounds: A alone, C alone, everyone, B alone.
    ROUNDS = [
        [0.25, 0.0, 0.0],
        [0.0, 0.0, 0.125],
        [0.1, 0.2, 0.3],
        [0.0, 0.0625, 0.0],
    ]

    def fill_reference(self, tracker):
        tracker.record_round({"A": 0.25})
        tracker.record_round({"C": 0.125})
        tracker.record_round(dict(zip(self.ADDRESSES, self.ROUNDS[2])))
        tracker.record_round({"B": 0.0625})

    def test_matches_reference_tracker_bitwise(self):
        reference = _IncomeTracker(self.ADDRESSES)
        array = _ArrayIncomeTracker(self.ADDRESSES)
        self.fill_reference(reference)
        # Two runs: the second continues from the first's totals.
        array.record_run(np.array(self.ROUNDS[:1]))
        array.record_run(np.array(self.ROUNDS[1:]))
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
        for rounds in (1, 100, 49):
            tracker.record_run(np.ones((rounds, 1)))
        assert tracker.total_issued_history[-1] == 150.0
        assert tracker.income_series(["A"])["A"][-1] == 150.0

    def test_empty_run_records_nothing(self):
        # A race that raises before sealing its first block hands over
        # a zero-round matrix: the ledger keeps what it had.
        tracker = _ArrayIncomeTracker(["A", "B"])
        tracker.record_run(np.array([[0.5, 0.25]]))
        tracker.record_run(np.zeros((0, 2)))
        assert tracker.total_issued_history == [0.75]
        assert tracker.income_series(["B", "A"]) == {"B": [0.25], "A": [0.5]}


#: Every inlined race, and the vesting ledger under the races that run
#: on it: fig6's withholding cell (FSL-PoS), PoW and C-PoS.
RACES = [
    "pow",
    "ml-pos",
    "sl-pos",
    "fsl-pos",
    "c-pos",
    "fsl-pos-vesting",
    "pow-vesting",
    "c-pos-vesting",
]
BALANCES = {"A": 0.2, "B": 0.5, "C": 0.3}


def build_race(
    race, fast, balances=BALANCES, mempool=None, addresses=None, **network_args
):
    """A network running ``race`` with one node per address, by default
    one per balance (rewards vesting every 7 blocks on a ``-vesting``
    race)."""
    oracle = HashOracle(17)
    kind = race.removesuffix("-vesting")
    if race.endswith("-vesting"):
        chain = VestingBlockchain(balances, vesting_period=7)
    else:
        chain = Blockchain(balances)
    addresses = list(balances if addresses is None else addresses)
    if kind == "c-pos":
        validators = [CPoSValidator(a, oracle) for a in addresses]
        network = CPoSNetwork(
            chain, validators, oracle,
            proposer_reward=0.01, inflation_reward=0.1, shards=8, fast=fast,
        )
    elif kind in ("sl-pos", "fsl-pos"):
        node_type = SLPoSNode if kind == "sl-pos" else FSLPoSNode
        nodes = [node_type(a, oracle) for a in addresses]
        network = DeadlineMiningNetwork(
            chain, nodes, 0.01, mempool=mempool, fast=fast, **network_args
        )
    else:
        if kind == "pow":
            nodes = [PoWNode(a, oracle, rate) for a, rate in zip(addresses, (2, 5, 3, 4))]
            adjuster = DifficultyAdjuster(HASH_SPACE / 40.0, 4.0, window=5)
        else:
            nodes = [MLPoSNode(a, oracle) for a in addresses]
            adjuster = DifficultyAdjuster(HASH_SPACE / 10.0, 10.0, window=5)
        network = TickMiningNetwork(
            chain, nodes, adjuster, 0.01, mempool=mempool, fast=fast,
            **network_args,
        )
    assert network.fast == (fast and mempool is None)
    return network, chain


def step(network):
    """One round through the network's public single-round method."""
    if isinstance(network, CPoSNetwork):
        return network.run_epoch()
    return network.mine_block()


def full_state(network, chain, addresses=tuple(BALANCES)):
    """Everything a run leaves behind, as comparable Python values."""
    history, issued = network.ledgers(list(addresses))
    state = {
        "blocks": chain.blocks,
        "tip": chain.tip,
        "height": chain.height,
        "proposer_counts": chain.proposer_counts(),
        "reward_series": chain.reward_series(addresses),
        "block_interval_mean": chain.block_interval_mean(),
        "total_supply": chain.total_supply(),
        "balances": [chain.balance(a) for a in addresses],
        "income_series": network.income_series(addresses),
        "total_issued": network.total_issued_series(),
        "ledgers": (history.tolist(), issued.tolist()),
        "clock": getattr(network, "tick", getattr(network, "epoch", None)),
    }
    if isinstance(chain, VestingBlockchain):
        state["pending"] = [chain.pending(a) for a in addresses]
        state["total_balance"] = [chain.total_balance(a) for a in addresses]
        state["vesting_events"] = chain.vesting_events
    return state


def rounds_for(race):
    """Two run lengths: C-PoS epochs of 8 blocks, else blocks; each
    crosses vesting boundaries within and between the runs."""
    return (3, 2) if race.startswith("c-pos") else (9, 14)


class TestFullStateParity:
    """Every block, balance and ledger the inlined races leave equals
    the reference loop's, across repeated runs and single steps."""

    @pytest.mark.parametrize("race", RACES)
    def test_two_runs(self, race):
        states = []
        for fast in (False, True):
            network, chain = build_race(race, fast)
            for rounds in rounds_for(race):
                network.run(rounds)
            states.append(full_state(network, chain))
        assert states[0] == states[1]
        if race.endswith("-vesting"):
            assert states[1]["vesting_events"] >= 2

    @pytest.mark.parametrize("race", RACES)
    def test_single_steps_between_tip_reads(self, race):
        states = []
        for fast in (False, True):
            network, chain = build_race(race, fast)
            trace = []
            for _ in range(3):
                trace.append(step(network))
                trace.append(chain.tip)
            network.run(rounds_for(race)[0])
            trace.append(chain.tip)
            trace.append(step(network))
            trace.append(chain.height)
            states.append((trace, full_state(network, chain)))
        assert states[0] == states[1]

    @pytest.mark.parametrize("race", ["pow", "ml-pos", "sl-pos", "fsl-pos-vesting"])
    def test_mempool_blocks_appended_validated(self, race):
        # Transactions move balances mid-run: a network with a mempool
        # runs the reference loop, which appends each block validated.
        states = []
        for fast in (False, True):
            mempool = Mempool()
            for nonce in range(3):
                mempool.add(Transaction("B", "A", amount=0.05, fee=0.01, nonce=nonce))
            network, chain = build_race(race, fast, mempool=mempool)
            assert network.fast is False
            network.run(6)
            network.run(5)
            states.append(full_state(network, chain))
        assert states[0] == states[1]
        assert sum(len(b.transactions) for b in states[1]["blocks"]) == 3

    @pytest.mark.parametrize("race", ["pow", "pow-vesting"])
    def test_winners_absent_from_the_ledger(self, race):
        # PoW needs no stake: nodes whose addresses the genesis ledger
        # lacks win blocks, and enter the balances dict in the order
        # the reference credits them, which total_supply() sums in.
        balances = {"X": 1.0}
        states = []
        for fast in (False, True):
            oracle = HashOracle(29)
            chain = (
                VestingBlockchain(balances, vesting_period=4)
                if race.endswith("-vesting")
                else Blockchain(balances)
            )
            nodes = [PoWNode(a, oracle, 3) for a in ("Q", "P", "R")]
            adjuster = DifficultyAdjuster(HASH_SPACE / 20.0, 4.0, window=5)
            network = TickMiningNetwork(chain, nodes, adjuster, 0.3, fast=fast)
            network.run(5)
            network.run(6)
            states.append(
                (
                    list(chain._balances.items()),
                    chain.total_supply(),
                    full_state(network, chain, ("Q", "P", "R")),
                )
            )
        assert states[0] == states[1]
        assert len(states[1][0]) == 4

    @pytest.mark.parametrize("race", ["pow", "ml-pos", "sl-pos", "fsl-pos"])
    def test_nodes_sharing_an_address(self, race):
        # Two nodes mine for "A": they share its balance and its ledger
        # column, and on the deadline races, where they always tie,
        # the first of them wins.
        states = []
        for fast in (False, True):
            network, chain = build_race(race, fast, addresses=("A", "B", "A", "C"))
            for rounds in rounds_for(race):
                network.run(rounds)
            states.append(full_state(network, chain))
        assert states[0] == states[1]
        assert len(states[1]["income_series"]["A"]) == states[1]["height"]


class TestRaceEdges:
    @pytest.mark.parametrize("race, max_ticks", [("pow", 8), ("ml-pos", 12)])
    def test_raise_after_sealed_blocks_leaves_reference_state(self, race, max_ticks):
        # A few blocks seal within max_ticks before one needs more; the
        # run raises there, and the blocks, balances, ledgers and tick
        # it leaves match the reference loop's.
        states = []
        for fast in (False, True):
            network, chain = build_race(race, fast, max_ticks_per_block=max_ticks)
            with pytest.raises(RuntimeError, match="max_ticks_per_block"):
                network.run(40)
            states.append(full_state(network, chain))
        assert states[0] == states[1]
        assert states[1]["height"] >= 2

    def test_cpos_infinite_stake_matches_reference(self):
        # An infinite stake makes the total infinite and its share NaN:
        # no cumulative share is finite, and the reference walk falls
        # back to the last validator for every shard.
        balances = {"A": float("inf"), "B": 0.5, "C": 0.3}
        states = []
        for fast in (False, True):
            network, chain = build_race("c-pos", fast, balances=balances)
            network.run(2)
            network.run(1)
            states.append(repr(full_state(network, chain)))
        assert states[0] == states[1]
        assert "nan" in states[1]

    @pytest.mark.parametrize("race", RACES)
    def test_runs_build_no_block_until_read(self, race, monkeypatch):
        built = []
        original = Block.__post_init__

        def counting(self):
            built.append(self.height)
            original(self)

        network, chain = build_race(race, True)
        monkeypatch.setattr(Block, "__post_init__", counting)
        for rounds in rounds_for(race):
            network.run(rounds)
        assert built == []
        assert chain.height > 0
        blocks = chain.blocks
        assert built == list(range(1, chain.height + 1))
        assert chain.blocks == blocks
        assert len(built) == chain.height
