"""Edge-case parity of the inlined chainsim races with their references.

The inlined races encode counting ints with one wire head per byte
width (``int_chunk``/``INT_HEADS``, changing only at
``int_boundary``) and compare digest bytes with target bytes
(``target_bytes``).  These tests sit on the edges those shortcuts
must get right: int widths on both sides of every ``±2**(8k-1)``, PoW
nonces and ML-PoS ticks crossing a width boundary, lottery targets of
0 and ``HASH_SPACE``, zero-stake nodes, and C-PoS stake CDFs that sum
to less than 1.0.  Each is checked against the reference encoder
(``HashOracle._encode``), the nodes' own methods, or ``fast=False``.
"""

from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chainsim.c_pos_node import CPoSValidator
from repro.chainsim.chain import Blockchain
from repro.chainsim.difficulty import DifficultyAdjuster
from repro.chainsim.hash_oracle import (
    HASH_SPACE,
    HashOracle,
    int_boundary,
    int_chunk,
    int_width,
    target_bytes,
)
from repro.chainsim.ml_pos_node import MLPoSNode
from repro.chainsim.network import CPoSNetwork, TickMiningNetwork
from repro.chainsim.pow_node import PoWNode


def reference_chunk(value):
    """The wire chunk built from the reference encoder ``_encode``."""
    encoded = HashOracle._encode(value)
    return len(encoded).to_bytes(4, "big") + encoded


#: Ints on both sides of every width boundary ``±2**(8k-1)`` up to
#: 71-byte encodings, past the 63-byte reach of the head table.
around_boundaries = st.builds(
    lambda k, sign, offset: sign * (1 << (8 * k - 1)) + offset,
    st.integers(min_value=1, max_value=70),
    st.sampled_from([1, -1]),
    st.integers(min_value=-2, max_value=2),
)


class TestIntChunk:
    @settings(max_examples=400, deadline=None)
    @given(value=st.one_of(st.integers(), around_boundaries))
    @example(value=0)
    @example(value=-1)
    @example(value=127)
    @example(value=128)
    @example(value=-128)
    @example(value=-129)
    @example(value=32767)
    @example(value=32768)
    @example(value=HASH_SPACE - 1)
    def test_matches_reference_encoding(self, value):
        assert int_chunk(value) == reference_chunk(value)
        assert HashOracle.chunk(value) == reference_chunk(value)

    @pytest.mark.parametrize("start", [0, 100, 32700, (1 << 23) - 50])
    def test_width_holds_until_the_boundary(self, start):
        # The counting loops reuse one width from a value up to
        # int_boundary(width) - 1; the next value is one byte wider.
        width = int_width(start)
        boundary = int_boundary(width)
        for value in (start, boundary - 1):
            assert len(int_chunk(value)) == 4 + 1 + width
            assert int_chunk(value)[5:] == value.to_bytes(width, "big")
        assert int_width(boundary) == width + 1

    def test_chunk_keeps_the_type_dispatch_for_other_fields(self):
        for field in ("pk", b"raw", 2.5):
            assert HashOracle.chunk(field) == reference_chunk(field)
        with pytest.raises(TypeError):
            HashOracle.chunk(True)


class TestTargetBytes:
    @settings(max_examples=300, deadline=None)
    @given(
        digest=st.binary(min_size=32, max_size=32),
        target=st.integers(min_value=0, max_value=HASH_SPACE),
    )
    @example(digest=b"\xff" * 32, target=HASH_SPACE)
    @example(digest=b"\xff" * 32, target=HASH_SPACE - 1)
    @example(digest=b"\x00" * 32, target=0)
    @example(digest=b"\x00" * 32, target=1)
    @example(digest=b"\x00" * 31 + b"\x01", target=1)
    def test_byte_order_is_integer_order(self, digest, target):
        assert (digest < target_bytes(target)) == (
            int.from_bytes(digest, "big") < target
        )


def pow_pair(start_nonce):
    """Two identical PoW nodes on one oracle, both at ``start_nonce``."""
    oracle = HashOracle(21)
    nodes = [PoWNode("A", oracle, hash_rate=40) for _ in range(2)]
    for node in nodes:
        node._nonce = start_nonce
    return nodes


class TestGrindAcrossWidths:
    @pytest.mark.parametrize(
        "difficulty",
        [0.5, HASH_SPACE / 3.0, float(HASH_SPACE), 4.0 * HASH_SPACE],
        ids=["target-0", "target-third", "target-hash-space", "above-hash-space"],
    )
    @pytest.mark.parametrize("start", [124, 32764], ids=["127-128", "32767-32768"])
    def test_grind_matches_try_propose(self, start, difficulty):
        reference, inlined = pow_pair(start)
        chain = Blockchain({"A": 1.0})
        parent_chunk = int_chunk(chain.tip.block_hash)
        # The first call of 40 nonces crosses the boundary 4 nonces in.
        for _ in range(2):
            expected = reference.try_propose(chain, 0, difficulty)
            assert inlined.grind(chain, difficulty, parent_chunk) == expected
            assert inlined._nonce == reference._nonce
        if difficulty >= HASH_SPACE:
            assert expected is not None
        if difficulty < 1.0:
            assert expected is None


def chain_state(network, chain, addresses):
    return (
        [(b.block_hash, b.proposer, b.timestamp) for b in chain.blocks],
        [chain.balance(a) for a in addresses],
        network.income_series(addresses),
        network.total_issued_series(),
    )


class TestMLPoSRaceEdges:
    def run_both(self, balances, difficulty, blocks, start_tick=0):
        states = []
        for fast in (False, True):
            oracle = HashOracle(8)
            chain = Blockchain(balances)
            nodes = [MLPoSNode(address, oracle) for address in balances]
            network = TickMiningNetwork(
                chain, nodes, DifficultyAdjuster(difficulty, 10.0), 0.01, fast=fast
            )
            assert network.fast == fast
            network.tick = start_tick
            network.run(blocks)
            states.append((network.tick, chain_state(network, chain, list(balances))))
        assert states[0] == states[1]
        return states[1]

    def test_race_crosses_the_32767_tick_boundary(self):
        tick, _ = self.run_both({"A": 0.3, "B": 0.7}, HASH_SPACE / 10.0, 20, 32760)
        assert tick > 32768

    def test_zero_stake_node(self):
        _, (blocks, balances, _, _) = self.run_both(
            {"A": 0.0, "B": 0.6, "C": 0.4}, HASH_SPACE / 10.0, 30, 120
        )
        assert balances[0] == 0.0
        assert "A" not in {proposer for _, proposer, _ in blocks}

    def test_target_at_hash_space(self):
        # difficulty * stake >= HASH_SPACE: every digest wins, so the
        # lowest digest of the tick takes each block, one per tick.
        tick, (blocks, _, _, _) = self.run_both(
            {"A": 0.5, "B": 0.5}, 4.0 * HASH_SPACE, 20, 125
        )
        assert tick == 145
        assert [timestamp for _, _, timestamp in blocks[1:]] == [
            float(t) for t in range(126, 146)
        ]


class TestCPoSEpochEdges:
    def run_both(self, balances, epochs=12):
        states = []
        for fast in (False, True):
            oracle = HashOracle(4)
            chain = Blockchain(balances)
            validators = [CPoSValidator(address, oracle) for address in balances]
            network = CPoSNetwork(
                chain, validators, oracle,
                proposer_reward=0.01, inflation_reward=0.1, shards=16, fast=fast,
            )
            assert network.fast == fast
            network.run(epochs)
            states.append(chain_state(network, chain, list(balances)))
        assert states[0] == states[1]
        return states[1]

    def test_zero_stake_validator(self):
        blocks, _, _, _ = self.run_both({"A": 0.0, "B": 0.25, "C": 0.75})
        assert "A" not in {proposer for _, proposer, _ in blocks}

    @pytest.mark.parametrize(
        "stakes", [(0.56, 0.87, 0.27), (0.95, 0.93, 0.45, 0.92)], ids=["3", "4"]
    )
    def test_cdf_ending_below_one(self, stakes):
        balances = dict(zip("ABCD", stakes))
        total = sum(balances.values())
        cdf = list(accumulate(stake / total for stake in balances.values()))
        assert cdf[-1] < 1.0
        blocks, _, _, _ = self.run_both(balances)
        assert len({proposer for _, proposer, _ in blocks[1:]}) == len(balances)
