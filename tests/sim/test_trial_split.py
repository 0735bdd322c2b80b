"""Tests for repro.sim.rng.TrialSplitGenerator.

A fused ensemble concatenates several members along its trial axis,
and each member must draw exactly what its own generator would draw
alone — the same values, and the generator left at the same stream
position, which a following ``random(4)`` pins.
"""

import numpy as np
import pytest

from repro.sim.rng import TrialSplitGenerator

#: Member widths: uneven, with a one-trial member.
SIZES = (3, 1, 4)
SEEDS = (11, 12, 13)


def members():
    return [np.random.default_rng(seed) for seed in SEEDS]


def split():
    return TrialSplitGenerator(members(), SIZES)


def rows():
    bounds = np.cumsum((0,) + SIZES)
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def assert_same_positions(adapter_generators, alone_generators):
    for fused, alone in zip(adapter_generators, alone_generators):
        np.testing.assert_array_equal(fused.random(4), alone.random(4))


class TestRandom:
    @pytest.mark.parametrize("round_shape", [(), (2,)], ids=["trial", "trial-miner"])
    def test_out_block_in_a_wider_array(self, round_shape):
        # The kernels fill ``block[:count]`` of a larger scratch block:
        # the member rows are strided column blocks of a view.
        generators = members()
        adapter = TrialSplitGenerator(generators, SIZES)
        wide = np.full((9, sum(SIZES)) + round_shape, -1.0)
        view = wide[:5]
        assert adapter.random(out=view) is view
        alone = members()
        for generator, member in zip(alone, rows()):
            expected = generator.random((5, member.stop - member.start) + round_shape)
            np.testing.assert_array_equal(view[:, member], expected)
        assert (wide[5:] == -1.0).all()  # nothing written past the view
        assert_same_positions(generators, alone)

    def test_repeated_blocks_continue_each_stream(self):
        # Consecutive blocks (and a smaller last block) continue every
        # member's stream, as one member's own blocks would.
        generators = members()
        adapter = TrialSplitGenerator(generators, SIZES)
        first = adapter.random(out=np.empty((4, sum(SIZES)))).copy()
        second = adapter.random(out=np.empty((2, sum(SIZES))))
        alone = members()
        for generator, member in zip(alone, rows()):
            width = member.stop - member.start
            expected = generator.random((6, width))
            np.testing.assert_array_equal(first[:, member], expected[:4])
            np.testing.assert_array_equal(second[:, member], expected[4:])
        assert_same_positions(generators, alone)

    @pytest.mark.parametrize("size", [8, (8,), (8, 3)])
    def test_size_splits_axis_zero(self, size):
        generators = members()
        drawn = TrialSplitGenerator(generators, SIZES).random(size)
        alone = members()
        tail = tuple(np.atleast_1d(size))[1:]
        expected = np.concatenate([
            generator.random((member.stop - member.start,) + tail)
            for generator, member in zip(alone, rows())
        ])
        np.testing.assert_array_equal(drawn, expected)
        assert_same_positions(generators, alone)

    def test_scalar_draw_cannot_be_split(self):
        with pytest.raises(ValueError, match="no trial axis"):
            split().random()

    def test_wrong_trial_count_raises(self):
        with pytest.raises(ValueError, match="axis 1"):
            split().random(out=np.empty((2, 7)))
        with pytest.raises(ValueError, match="trials"):
            split().random((7,))


class TestMultinomial:
    def test_stacked_laws_split_by_trial(self):
        laws = np.random.default_rng(0).dirichlet(np.ones(3), size=sum(SIZES))
        generators = members()
        drawn = TrialSplitGenerator(generators, SIZES).multinomial(16, laws)
        alone = members()
        expected = np.concatenate([
            generator.multinomial(16, laws[member])
            for generator, member in zip(alone, rows())
        ])
        np.testing.assert_array_equal(drawn, expected)
        assert_same_positions(generators, alone)

    def test_array_trials_split_too(self):
        # Per-trial counts carry the trial axis beside the stacked laws.
        n = np.arange(1, sum(SIZES) + 1) * 10
        laws = np.random.default_rng(1).dirichlet(np.ones(3), size=sum(SIZES))
        generators = members()
        drawn = TrialSplitGenerator(generators, SIZES).multinomial(n, laws)
        alone = members()
        expected = np.concatenate([
            generator.multinomial(n[member], laws[member])
            for generator, member in zip(alone, rows())
        ])
        np.testing.assert_array_equal(drawn, expected)
        assert_same_positions(generators, alone)

    def test_one_law_with_size(self):
        # A 1-D law is one distribution over categories, not per trial:
        # only ``size`` carries the trial axis.
        law = np.array([0.2, 0.3, 0.5])
        generators = members()
        drawn = TrialSplitGenerator(generators, SIZES).multinomial(
            16, law, size=sum(SIZES)
        )
        alone = members()
        expected = np.concatenate([
            generator.multinomial(16, law, size=member.stop - member.start)
            for generator, member in zip(alone, rows())
        ])
        np.testing.assert_array_equal(drawn, expected)
        assert_same_positions(generators, alone)

    def test_one_law_without_size_raises(self):
        with pytest.raises(ValueError, match="no trial axis"):
            split().multinomial(16, [0.5, 0.5])


class TestConstruction:
    def test_counts_must_match_generators(self):
        with pytest.raises(ValueError, match="3 generators for 2 members"):
            TrialSplitGenerator(members(), (1, 2))

    def test_rejects_empty_members(self):
        with pytest.raises(ValueError):
            TrialSplitGenerator(members(), (3, 0, 4))

    def test_total_trials(self):
        assert split().trials == sum(SIZES)
