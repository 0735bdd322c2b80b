"""Tests for repro.sim.kernels — fused batched advance kernels.

The load-bearing guarantee is *bit-identity*: for every protocol, any
event/checkpoint schedule and any chunking, the batched kernels must
produce exactly the arrays (and leave the generator at exactly the
stream position) of the naive per-round loop.  The differential golden
tests below enforce it protocol by protocol; a hypothesis property
fuzzes the chunk size.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.miners import Allocation
from repro.experiments._common import build_protocol
from repro.experiments.section64 import Section64Config, _protocol_zoo
from repro.protocols import (
    AlgorandPoS,
    BlockGranularCompoundPoS,
    CompoundPoS,
    EOSDelegatedPoS,
    FairSingleLotteryPoS,
    FilecoinStorage,
    MultiLotteryPoS,
    NeoPoS,
    ProofOfWork,
    RewardWithholding,
    SingleLotteryPoS,
    VixifyPoS,
    WavePoS,
)
from repro.core.results import EnsembleResult
from repro.sim.engine import MonteCarloEngine, simulate
from repro.sim.events import (
    MinerOutage,
    MinerRecovery,
    StakeTopUp,
    StakeWithdrawal,
)
from repro.protocols.base import binomial_from_uniforms
from repro.sim import kernels
from repro.sim.kernels import (
    DEFAULT_CHUNK_ROUNDS,
    KERNEL_MODES,
    ScratchBuffers,
    batched_advance,
    ensure_kernel_mode,
    find_kernel,
)
from repro.obs.trace import Tracer, using_tracer
from repro.sim.rng import RandomSource

TRIALS = 48
HORIZON = 60

#: Every incentive model in the library, keyed for test ids.  The
#: differential tests sweep all of them — the seven core models plus
#: the Section 6.4 extensions and the withholding wrapper over each
#: distinct inner sampler.
PROTOCOL_FACTORIES = {
    "pow": lambda: ProofOfWork(0.01),
    "ml-pos": lambda: MultiLotteryPoS(0.01),
    "ml-pos-exact": lambda: MultiLotteryPoS(0.02, exact_race=True),
    "sl-pos": lambda: SingleLotteryPoS(0.01),
    "fsl-pos": lambda: FairSingleLotteryPoS(0.01),
    "c-pos": lambda: CompoundPoS(0.01, 0.1, shards=4),
    "c-pos-block": lambda: BlockGranularCompoundPoS(0.01, 0.1, shards=4),
    "algorand": lambda: AlgorandPoS(0.05),
    "eos": lambda: EOSDelegatedPoS(0.01, 0.05),
    "neo": lambda: NeoPoS(0.01),
    "wave": lambda: WavePoS(0.01),
    "vixify": lambda: VixifyPoS(0.01),
    "filecoin": lambda: FilecoinStorage(0.01, storage_weight=0.5),
    "withhold-ml": lambda: RewardWithholding(
        MultiLotteryPoS(0.05), vesting_period=7
    ),
    "withhold-sl": lambda: RewardWithholding(
        SingleLotteryPoS(0.05), vesting_period=7
    ),
    "withhold-fsl": lambda: RewardWithholding(
        FairSingleLotteryPoS(0.05), vesting_period=7
    ),
    "withhold-pow": lambda: RewardWithholding(
        ProofOfWork(0.05), vesting_period=7
    ),
}

#: (checkpoints, events) schedules the differential sweep runs under.
SCENARIOS = {
    "default": dict(checkpoints=None, events=()),
    "custom-checkpoints": dict(checkpoints=(7, 13, 40, HORIZON), events=()),
    "events": dict(
        checkpoints=(10, 30, HORIZON),
        events=(
            StakeTopUp(round_index=9, miner=1, amount=0.3),
            StakeWithdrawal(round_index=31, miner=0, fraction=0.5),
        ),
    ),
}


def allocation_for(miners: int) -> Allocation:
    if miners == 2:
        return Allocation.two_miners(0.2)
    return Allocation.focal_vs_equal(0.2, miners)


def run_pair(factory, miners, scenario, seed=13):
    """The same simulation through the naive and the batched kernels."""
    kwargs = SCENARIOS[scenario]
    naive = simulate(
        factory(), allocation_for(miners), HORIZON,
        trials=TRIALS, seed=seed, kernel="naive", **kwargs,
    )
    batched = simulate(
        factory(), allocation_for(miners), HORIZON,
        trials=TRIALS, seed=seed, kernel="batched", **kwargs,
    )
    return naive, batched


class TestDifferentialGolden:
    """Batched output is bit-identical to naive for every protocol."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("miners", [2, 5])
    @pytest.mark.parametrize("name", sorted(PROTOCOL_FACTORIES))
    def test_bit_identical(self, name, miners, scenario):
        if name == "ml-pos-exact" and miners != 2:
            pytest.skip("exact_race is only defined for two-miner games")
        factory = PROTOCOL_FACTORIES[name]
        naive, batched = run_pair(factory, miners, scenario)
        np.testing.assert_array_equal(
            naive.reward_fractions, batched.reward_fractions
        )
        np.testing.assert_array_equal(
            naive.terminal_stakes, batched.terminal_stakes
        )

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize(
        "name",
        ["ml-pos", "sl-pos", "fsl-pos", "c-pos", "eos", "filecoin",
         "withhold-ml"],
    )
    def test_bit_identical_at_ten_miners(self, name, scenario):
        """The 10-miner grids drive the transposed scatter-credit
        many-miner paths (miners > 2) the two-miner sweep never hits,
        and per-trial stake totals that NumPy sums pairwise (8 or more
        miners) — C-PoS and EOS pay rewards proportional to them."""
        naive, batched = run_pair(PROTOCOL_FACTORIES[name], 10, scenario)
        np.testing.assert_array_equal(
            naive.reward_fractions, batched.reward_fractions
        )
        np.testing.assert_array_equal(
            naive.terminal_stakes, batched.terminal_stakes
        )

    @pytest.mark.parametrize("name", ["ml-pos", "filecoin"])
    def test_bit_identical_past_255_miners(self, name):
        """These kernels count each trial's winner as the true entries
        of a (miners, trials) table, a byte per entry and at most 255
        rows a pass: 300 miners take two passes."""
        naive, batched = run_pair(PROTOCOL_FACTORIES[name], 300, "default")
        np.testing.assert_array_equal(
            naive.reward_fractions, batched.reward_fractions
        )
        np.testing.assert_array_equal(
            naive.terminal_stakes, batched.terminal_stakes
        )

    @pytest.mark.parametrize("miners", [7, 8, 9, 17, 130, 300])
    def test_eos_bit_identical_at_any_miner_count(self, miners):
        """EOS pays rewards proportional to the per-trial stake total,
        so it must add each trial's stakes in NumPy's pairwise order:
        one running sum under 8 miners, eight partial sums up to 128,
        split halves above."""
        naive, batched = run_pair(PROTOCOL_FACTORIES["eos"], miners, "default")
        np.testing.assert_array_equal(
            naive.reward_fractions, batched.reward_fractions
        )
        np.testing.assert_array_equal(
            naive.terminal_stakes, batched.terminal_stakes
        )

    @pytest.mark.parametrize("name", ["ml-pos", "sl-pos", "c-pos", "c-pos-block"])
    def test_generator_position_identical(self, name):
        # Both paths must consume the stream identically, so a draw
        # *after* the advance agrees too.
        factory = PROTOCOL_FACTORIES[name]
        allocation = allocation_for(2)
        outcomes = []
        for kernel in KERNEL_MODES:
            protocol = factory()
            state = protocol.make_state(allocation, TRIALS)
            rng = np.random.default_rng(99)
            if kernel == "batched":
                batched_advance(protocol, state, HORIZON, rng)
            else:
                protocol.advance_many(state, HORIZON, rng)
            outcomes.append((state.rewards.copy(), rng.random(4)))
        np.testing.assert_array_equal(outcomes[0][0], outcomes[1][0])
        np.testing.assert_array_equal(outcomes[0][1], outcomes[1][1])

    @pytest.mark.parametrize(
        "shards, share",
        [(4, 0.7), (32, 0.2), (128, 0.4), (128, 0.7), (1, 0.3)],
        ids=[
            "p-above-half",
            "figures-shard-count",
            "past-numpy-inversion",
            "past-numpy-inversion-p-above-half",
            "one-shard",
        ],
    )
    def test_c_pos_two_miner_kernel_matches_naive(self, shards, share):
        """Both paths invert the same uniforms at any shard count,
        including 128 shards, where NumPy's own sampler leaves
        inversion for BTPE rejection."""
        allocation = Allocation.two_miners(share)
        outcomes = []
        for kernel in KERNEL_MODES:
            protocol = CompoundPoS(0.01, 0.1, shards=shards)
            state = protocol.make_state(allocation, TRIALS)
            rng = np.random.default_rng(23)
            if kernel == "batched":
                batched_advance(protocol, state, HORIZON, rng)
            else:
                protocol.advance_many(state, HORIZON, rng)
            outcomes.append((state.rewards, state.stakes, rng.random(4)))
        for naive, batched in zip(*outcomes):
            np.testing.assert_array_equal(naive, batched)

    @pytest.mark.parametrize("share", [0.3, 0.7])
    @pytest.mark.parametrize("shards", [1, 4, 32])
    def test_c_pos_two_miner_draws_match_multinomial(self, shards, share):
        """The figures keep their bits: at ``P * min(share, 1 - share)
        <= 30`` both paths equal a loop that draws the proposer wins
        with ``rng.multinomial(P, shares)`` every epoch, as C-PoS did
        before its inversion draw — in every array and in generator
        position."""
        allocation = Allocation.two_miners(share)
        protocol = CompoundPoS(0.01, 0.1, shards=shards)
        expected = protocol.make_state(allocation, TRIALS)
        rng = np.random.default_rng(31)
        for _ in range(HORIZON):
            shares = expected.stake_shares()
            wins = rng.multinomial(shards, shares)
            income = (
                protocol.proposer_reward * wins / shards
                + protocol.inflation_reward * shares
            )
            expected.rewards += income
            expected.stakes += income
        expected_next = rng.random(4)
        for kernel in KERNEL_MODES:
            state = protocol.make_state(allocation, TRIALS)
            rng = np.random.default_rng(31)
            if kernel == "batched":
                batched_advance(protocol, state, HORIZON, rng)
            else:
                protocol.advance_many(state, HORIZON, rng)
            np.testing.assert_array_equal(state.rewards, expected.rewards)
            np.testing.assert_array_equal(state.stakes, expected.stakes)
            np.testing.assert_array_equal(rng.random(4), expected_next)

    def test_withholding_pending_identical(self):
        # The wrapper's vesting buffer is part of the dynamics; it must
        # match exactly (vesting_period 7 leaves a mid-period residue).
        # FSL-PoS is the inner fig6 runs, and a fused one.
        allocation = allocation_for(2)
        states = []
        for kernel in KERNEL_MODES:
            protocol = RewardWithholding(
                FairSingleLotteryPoS(0.05), vesting_period=7
            )
            state = protocol.make_state(allocation, TRIALS)
            rng = np.random.default_rng(3)
            if kernel == "batched":
                batched_advance(protocol, state, 40, rng)
            else:
                protocol.advance_many(state, 40, rng)
            states.append(state)
        np.testing.assert_array_equal(
            states[0].extra["pending"], states[1].extra["pending"]
        )
        np.testing.assert_array_equal(states[0].stakes, states[1].stakes)

    def test_segmented_advance_matches_single_advance(self):
        # Splitting the horizon into many fused segments (as the engine
        # does at checkpoints) must not change the bits either.
        allocation = allocation_for(2)
        protocol = MultiLotteryPoS(0.01)
        whole = protocol.make_state(allocation, TRIALS)
        rng = np.random.default_rng(5)
        batched_advance(protocol, whole, HORIZON, rng)
        pieces = protocol.make_state(allocation, TRIALS)
        rng = np.random.default_rng(5)
        for gap in (13, 7, 20, HORIZON - 40):
            batched_advance(protocol, pieces, gap, rng)
        np.testing.assert_array_equal(whole.rewards, pieces.rewards)
        np.testing.assert_array_equal(whole.stakes, pieces.stakes)


#: Fused member widths: uneven, with a one-trial member.
FUSED_TRIALS = (5, 1, 11)


def fused_allocations(miners):
    """One allocation per fused member, all with ``miners`` miners."""
    if miners == 2:
        return [Allocation.two_miners(share) for share in (0.2, 0.5, 0.35)]
    return [
        Allocation.focal_vs_equal(share, miners) for share in (0.2, 0.5, 0.35)
    ]


def assert_same_part(got, expected):
    """Byte equality of two EnsembleResults or two StatsSummaries."""
    assert type(got) is type(expected)
    if isinstance(expected, EnsembleResult):
        assert got.allocation == expected.allocation
        assert got.reward_fractions.tobytes() == expected.reward_fractions.tobytes()
        if expected.terminal_stakes is None:
            assert got.terminal_stakes is None
        else:
            assert (
                got.terminal_stakes.tobytes() == expected.terminal_stakes.tobytes()
            )
        return
    assert got.state_meta() == expected.state_meta()
    arrays = expected.state_arrays()
    assert set(got.state_arrays()) == set(arrays)
    for name, array in arrays.items():
        assert got.state_arrays()[name].tobytes() == array.tobytes(), name


def run_fused(factory, miners, scenario, kernel, reduce, seed=29):
    """Each member fused, and each member run on its own."""
    members = [
        (allocation, trials, seed + index)
        for index, (allocation, trials) in enumerate(
            zip(fused_allocations(miners), FUSED_TRIALS)
        )
    ]
    kwargs = dict(SCENARIOS[scenario], reduce=reduce)
    fused = MonteCarloEngine.fused(factory(), members, kernel=kernel).run(
        HORIZON, **kwargs
    )
    alone = [
        MonteCarloEngine(
            factory(), allocation, trials=trials, seed=seed, kernel=kernel
        ).run(HORIZON, **kwargs)
        for allocation, trials, seed in members
    ]
    return fused, alone


class TestFusedMembers:
    """Every member of a fused engine is bit-identical to its own run:
    one ensemble state carries them all, and each draws from its own
    stream through a TrialSplitGenerator."""

    @pytest.mark.parametrize("reduce", ["full", "stats"])
    @pytest.mark.parametrize("kernel", KERNEL_MODES)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("miners", [2, 5])
    @pytest.mark.parametrize("name", sorted(PROTOCOL_FACTORIES))
    def test_members_match_their_own_runs(
        self, name, miners, scenario, kernel, reduce
    ):
        if name == "ml-pos-exact" and miners != 2:
            pytest.skip("exact_race is only defined for two-miner games")
        fused, alone = run_fused(
            PROTOCOL_FACTORIES[name], miners, scenario, kernel, reduce
        )
        assert len(fused) == len(alone)
        for got, expected in zip(fused, alone):
            assert_same_part(got, expected)

    @pytest.mark.parametrize(
        "name",
        ["ml-pos", "sl-pos", "fsl-pos", "c-pos", "eos", "filecoin",
         "withhold-ml"],
    )
    def test_members_match_at_ten_miners(self, name):
        # The many-miner transposed paths and pairwise stake totals.
        fused, alone = run_fused(
            PROTOCOL_FACTORIES[name], 10, "events", "batched", "full"
        )
        for got, expected in zip(fused, alone):
            assert_same_part(got, expected)

    def test_outage_events_restore_each_members_stakes(self):
        # MinerOutage parks per-trial stakes in state.extra; a fused
        # state parks and restores every member's rows.
        events = (
            MinerOutage(round_index=10, miner=0),
            MinerRecovery(round_index=30, miner=0),
        )
        members = [
            (allocation, trials, 3 + index)
            for index, (allocation, trials) in enumerate(
                zip(fused_allocations(2), FUSED_TRIALS)
            )
        ]
        fused = MonteCarloEngine.fused(MultiLotteryPoS(0.01), members).run(
            HORIZON, events=events
        )
        for got, (allocation, trials, seed) in zip(fused, members):
            alone = MonteCarloEngine(
                MultiLotteryPoS(0.01), allocation, trials=trials, seed=seed
            ).run(HORIZON, events=events)
            assert_same_part(got, alone)

    def test_one_member_returns_a_list_of_the_plain_run(self, two_miners):
        (fused,) = MonteCarloEngine.fused(
            MultiLotteryPoS(0.01), [(two_miners, 8, 4)]
        ).run(HORIZON)
        alone = MonteCarloEngine(
            MultiLotteryPoS(0.01), two_miners, trials=8, seed=4
        ).run(HORIZON)
        assert_same_part(fused, alone)

    @pytest.mark.parametrize("trials", [(8,), FUSED_TRIALS])
    def test_generator_seeds_are_drawn_from_once(self, trials):
        # Wrapping a Generator in a RandomSource draws from it, so each
        # member's generator must be wrapped exactly once, as the plain
        # engine wraps it.
        allocations = fused_allocations(2)
        members = [
            (allocation, width, np.random.default_rng(40 + index))
            for index, (allocation, width) in enumerate(
                zip(allocations, trials)
            )
        ]
        fused = MonteCarloEngine.fused(MultiLotteryPoS(0.01), members).run(
            HORIZON
        )
        for index, (got, (allocation, width, seed)) in enumerate(
            zip(fused, members)
        ):
            alone = MonteCarloEngine(
                MultiLotteryPoS(0.01), allocation, trials=width,
                seed=np.random.default_rng(40 + index),
            ).run(HORIZON)
            assert_same_part(got, alone)
            # Both wrappings left their generator at the same position.
            fresh = np.random.default_rng(40 + index)
            RandomSource(fresh)
            assert seed.random(4).tobytes() == fresh.random(4).tobytes()

    def test_members_must_share_a_miner_count(self):
        members = [(allocation_for(2), 4, 1), (allocation_for(5), 4, 2)]
        with pytest.raises(ValueError, match="miner count"):
            MonteCarloEngine.fused(MultiLotteryPoS(0.01), members)

    def test_needs_a_member(self):
        with pytest.raises(ValueError, match="at least one member"):
            MonteCarloEngine.fused(MultiLotteryPoS(0.01), [])


class TestChunking:
    @given(chunk=st.integers(min_value=1, max_value=97))
    @settings(max_examples=25, deadline=None)
    def test_chunk_size_never_changes_results(self, chunk):
        # Property: the pre-drawn block length is an implementation
        # detail — any chunking consumes the stream identically.
        allocation = allocation_for(3)
        protocol = MultiLotteryPoS(0.01)
        reference = protocol.make_state(allocation, 16)
        rng = np.random.default_rng(11)
        protocol.advance_many(reference, 45, rng)
        chunked = protocol.make_state(allocation, 16)
        rng = np.random.default_rng(11)
        with mock.patch.object(kernels, "DEFAULT_CHUNK_ROUNDS", chunk):
            batched_advance(protocol, chunked, 45, rng)
        np.testing.assert_array_equal(reference.rewards, chunked.rewards)
        np.testing.assert_array_equal(reference.stakes, chunked.stakes)

    @given(chunk=st.integers(min_value=1, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_chunk_property_deadline_protocol(self, chunk):
        allocation = allocation_for(2)
        protocol = SingleLotteryPoS(0.01)
        reference = protocol.make_state(allocation, 12)
        rng = np.random.default_rng(17)
        protocol.advance_many(reference, 30, rng)
        chunked = protocol.make_state(allocation, 12)
        rng = np.random.default_rng(17)
        with mock.patch.object(kernels, "DEFAULT_CHUNK_ROUNDS", chunk):
            batched_advance(protocol, chunked, 30, rng)
        np.testing.assert_array_equal(reference.rewards, chunked.rewards)

    def test_memory_budget_caps_block(self):
        # At large trial counts the pre-drawn block must stay within
        # the byte budget rather than jump to DEFAULT_CHUNK_ROUNDS.
        from repro.sim.kernels import (
            DEFAULT_CHUNK_BUDGET_BYTES,
            _chunk_size,
        )

        rounds = 10 * DEFAULT_CHUNK_ROUNDS
        assert _chunk_size(rounds, 100) == DEFAULT_CHUNK_ROUNDS
        capped = _chunk_size(rounds, 100_000)
        assert 1 <= capped < DEFAULT_CHUNK_ROUNDS
        assert capped * 100_000 * 8 <= DEFAULT_CHUNK_BUDGET_BYTES
        # Blocks are clamped to the round count.
        assert _chunk_size(5, 100) == 5


class TestScratchBuffers:
    def test_same_request_reuses_buffer(self):
        scratch = ScratchBuffers()
        first = scratch.get("buf", (4, 3))
        second = scratch.get("buf", (4, 3))
        assert first is second

    def test_shape_change_reallocates(self):
        scratch = ScratchBuffers()
        first = scratch.get("buf", (4, 3))
        second = scratch.get("buf", (5, 3))
        assert first is not second
        assert second.shape == (5, 3)

    def test_dtype_change_reallocates(self):
        scratch = ScratchBuffers()
        floats = scratch.get("buf", (4,))
        bools = scratch.get("buf", (4,), np.bool_)
        assert bools.dtype == np.bool_
        assert floats is not bools

    def test_nbytes_and_len(self):
        scratch = ScratchBuffers()
        scratch.get("a", (10,))
        scratch.get("b", (5,), np.bool_)
        assert len(scratch) == 2
        assert scratch.nbytes == 10 * 8 + 5

    def test_zeroed_allocates_zeros_and_keeps_contents(self):
        scratch = ScratchBuffers()
        flags = scratch.get("flags", (6,), np.bool_, zeroed=True)
        assert not flags.any()
        flags[2] = True
        again = scratch.get("flags", (6,), np.bool_, zeroed=True)
        assert again is flags and again[2]

    def test_attached_to_state_and_reused_across_advances(self):
        protocol = MultiLotteryPoS(0.01)
        state = protocol.make_state(allocation_for(2), 8)
        assert state.scratch is None
        rng = np.random.default_rng(1)
        batched_advance(protocol, state, 10, rng)
        scratch = state.scratch
        assert isinstance(scratch, ScratchBuffers)
        before = len(scratch)
        batched_advance(protocol, state, 10, rng)
        assert state.scratch is scratch
        assert len(scratch) == before  # steady state allocates nothing new


def lookup_draws(n, p, u, scratch=None):
    out = np.empty(len(p), np.int64)
    if scratch is None:
        scratch = ScratchBuffers()
    kernels._binomial_by_lookup(n, p, u, out, scratch)
    return out


class TestBinomialLookup:
    """The two-miner C-PoS kernel reads its draws from a lookup table;
    every row must get exactly :func:`binomial_from_uniforms`'s draw."""

    @pytest.mark.parametrize("n", [1, 2, 4, 32, 128, 1000])
    def test_equals_the_helper_on_and_beside_every_step(self, n):
        rng = np.random.default_rng(600 + n)
        cells = 2 * kernels._LOOKUP_CELLS
        p = np.concatenate([
            rng.random(3000),
            rng.integers(0, cells + 1, 1000) / cells,  # cell edges
            [0.0, 1.0, 0.5, 0.5, 1.0 - 2**-53],
        ])
        # Uniforms exactly on a CDF step of the row's own law (the
        # helper's recurrence, so F is its float value), a few ulps
        # either side, and anywhere.
        low = np.minimum(p, 1.0 - p)
        cdf = kernels._binomial_cdf(n, low, n)
        step = cdf[rng.integers(0, n, len(p)), np.arange(len(p))]
        below = np.nextafter(step, 0.0)
        above = np.nextafter(step, 1.0)
        for u in (step, below, np.nextafter(below, 0.0), above, rng.random(len(p))):
            u = np.minimum(u, 1.0 - 2**-53)
            np.testing.assert_array_equal(
                lookup_draws(n, p, u), binomial_from_uniforms(n, p, u)
            )

    @given(rows=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0, exclude_max=True)),
        min_size=1, max_size=40,
    ), n=st.sampled_from([1, 4, 32, 128]))
    @settings(max_examples=60, deadline=None)
    def test_any_rows(self, rows, n):
        p, u = (np.array(column) for column in zip(*rows))
        np.testing.assert_array_equal(
            lookup_draws(n, p, u), binomial_from_uniforms(n, p, u)
        )

    def test_builds_each_block_once_per_scratch(self, monkeypatch):
        built = []
        build = kernels._build_lookup

        def recording(n, table, block):
            built.append((n, block))
            build(n, table, block)

        monkeypatch.setattr(kernels, "_build_lookup", recording)
        scratch = ScratchBuffers()
        u = np.random.default_rng(3).random(200)

        def block(share):
            cell = int(share * 2 * kernels._LOOKUP_CELLS)
            return cell // kernels._LOOKUP_BLOCK

        lookup_draws(32, np.full(200, 0.2), u, scratch)
        lookup_draws(32, np.full(200, 0.2), u, scratch)
        assert built == [(32, block(0.2))]
        lookup_draws(32, np.linspace(0.2, 0.3, 200), u, scratch)
        assert built[1:] == [
            (32, b) for b in range(block(0.2) + 1, block(0.3) + 1)
        ]
        # A different shard count is a different table.
        lookup_draws(4, np.full(200, 0.2), u, scratch)
        assert built[-1] == (4, block(0.2))

    def test_most_rows_read_the_table(self):
        # The point of the table: at the figures' 32 shards nearly every
        # row resolves without the helper.
        scratch = ScratchBuffers()
        rng = np.random.default_rng(5)
        lookup_draws(32, rng.uniform(0.1, 0.9, 10_000), rng.random(10_000), scratch)
        entries = scratch._arrays["cpos2_entry"]
        assert entries.dtype == np.int8  # entries fit a byte at 32 shards
        assert (entries < 0).mean() < 0.05


def figure_protocols():
    """Every protocol the figures, Table 1 and Section 6.4 run, built
    as the experiments build them."""
    protocols = [
        build_protocol(key, reward=0.01)
        for key in ("PoW", "ML-PoS", "SL-PoS", "C-PoS", "FSL-PoS")
    ]
    protocols.append(RewardWithholding(FairSingleLotteryPoS(0.01), 1000))
    protocols.extend(protocol for protocol, _, _ in _protocol_zoo(Section64Config()))
    return protocols


def runs_own_loop(protocol) -> bool:
    """Whether :func:`batched_advance` hands ``protocol`` to its own
    per-round ``advance_many``."""
    calls = []
    protocol.advance_many = lambda state, rounds, rng: calls.append(rounds)
    state = protocol.make_state(allocation_for(2), 4)
    batched_advance(protocol, state, 3, np.random.default_rng(0))
    return bool(calls)


class TestRegistry:
    def test_kernels_serve_exactly_what_the_figures_run(self):
        protocols = figure_protocols()
        assert len({protocol.name for protocol in protocols}) == 12
        for protocol in protocols:
            assert find_kernel(protocol) is not None, protocol.name
            # PoW, NEO and Algorand's kernel is their closed-form jump.
            if type(protocol) not in (ProofOfWork, NeoPoS, AlgorandPoS):
                assert not runs_own_loop(protocol), protocol.name
        assert find_kernel(BlockGranularCompoundPoS(0.01, 0.1, shards=4)) is None

    @pytest.mark.parametrize(
        "name", ["c-pos-block", "ml-pos-exact", "withhold-ml", "withhold-pow"]
    )
    def test_configurations_no_figure_runs_take_their_own_loop(self, name):
        # The differential sweep pins these against the naive loop; here,
        # that the batched path is that loop, and that the trace says so.
        assert find_kernel(PROTOCOL_FACTORIES[name]()) is None
        assert runs_own_loop(PROTOCOL_FACTORIES[name]())
        protocol = PROTOCOL_FACTORIES[name]()
        state = protocol.make_state(allocation_for(2), 4)
        tracer = Tracer()
        with using_tracer(tracer):
            batched_advance(protocol, state, 3, np.random.default_rng(0))
        modes = [
            (span["attrs"]["mode"], span["attrs"]["miners"])
            for span in tracer.spans
            if span["name"] == "kernel.advance"
        ]
        assert modes == [("naive", 2)]

    def test_exact_type_lookup_ignores_subclasses(self):
        # A subclass may override step(); the fused parent recurrence
        # would silently diverge, so lookup must miss and fall back.
        class CustomML(MultiLotteryPoS):
            pass

        assert find_kernel(CustomML(0.01)) is None

    def test_unregistered_protocol_falls_back_to_naive(self):
        class CustomML(MultiLotteryPoS):
            pass

        reference = CustomML(0.01).make_state(allocation_for(2), 8)
        rng = np.random.default_rng(2)
        CustomML(0.01).advance_many(reference, 20, rng)

        state = CustomML(0.01).make_state(allocation_for(2), 8)
        rng = np.random.default_rng(2)
        batched_advance(CustomML(0.01), state, 20, rng)
        np.testing.assert_array_equal(reference.rewards, state.rewards)

    def test_ensure_kernel_mode(self):
        assert ensure_kernel_mode("batched") == "batched"
        assert ensure_kernel_mode("naive") == "naive"
        with pytest.raises(ValueError, match="kernel"):
            ensure_kernel_mode("fused")


class TestEngineKnob:
    def test_engine_rejects_unknown_kernel(self, two_miners):
        with pytest.raises(ValueError, match="kernel"):
            MonteCarloEngine(ProofOfWork(0.01), two_miners, kernel="fast")

    def test_engine_repr_shows_kernel(self, two_miners):
        engine = MonteCarloEngine(
            ProofOfWork(0.01), two_miners, trials=5, kernel="naive"
        )
        assert "naive" in repr(engine)

    def test_simulate_kernel_knob_round_trips(self, two_miners):
        naive = simulate(
            MultiLotteryPoS(0.01), two_miners, 50,
            trials=20, seed=3, kernel="naive",
        )
        batched = simulate(
            MultiLotteryPoS(0.01), two_miners, 50,
            trials=20, seed=3, kernel="batched",
        )
        np.testing.assert_array_equal(
            naive.reward_fractions, batched.reward_fractions
        )
