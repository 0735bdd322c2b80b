"""Tests for repro.runtime.sharding — deterministic shard plans."""

import numpy as np
import pytest

from repro.runtime.sharding import (
    DEFAULT_SHARD_COUNT,
    MIN_SHARD_REPEATS,
    MIN_SHARD_TRIALS,
    Shard,
    ShardPlan,
    default_shard_count,
    plan_shards,
    split_evenly,
)


class TestSplitEvenly:
    def test_exact_division(self):
        assert split_evenly(100, 4) == [25, 25, 25, 25]

    def test_remainder_spread_over_leading_chunks(self):
        assert split_evenly(10, 3) == [4, 3, 3]

    def test_single_part(self):
        assert split_evenly(7, 1) == [7]

    def test_each_part_at_least_one(self):
        assert split_evenly(5, 5) == [1, 1, 1, 1, 1]

    def test_rejects_more_parts_than_items(self):
        with pytest.raises(ValueError, match="cannot split"):
            split_evenly(3, 4)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            split_evenly(0, 1)
        with pytest.raises(ValueError):
            split_evenly(10, 0)


class TestDefaultShardCount:
    @pytest.mark.parametrize(
        "trials, count",
        [(1, 1), (300, 1), (999, 1), (1000, 2), (2000, 4), (4000, 8),
         (10000, 8)],
    )
    def test_simulation_shards_hold_at_least_min_trials(self, trials, count):
        assert default_shard_count(trials, MIN_SHARD_TRIALS) == count

    def test_two_thousand_trials_plan_four_shards_of_500(self):
        count = default_shard_count(2000, MIN_SHARD_TRIALS)
        plan = plan_shards(2000, np.random.SeedSequence(1), count)
        assert [s.trials for s in plan] == [500] * 4

    @pytest.mark.parametrize("repeats, count", [(1, 1), (3, 3), (8, 8), (50, 8)])
    def test_system_repeats_get_min_of_eight_and_repeats(self, repeats, count):
        assert default_shard_count(repeats, MIN_SHARD_REPEATS) == count

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            default_shard_count(0, MIN_SHARD_TRIALS)
        with pytest.raises(ValueError):
            default_shard_count(10, 0)


class TestPlanShards:
    def test_default_count_is_workers_independent_constant(self):
        # Without a count, plan_shards applies the repeat rule: capped
        # at DEFAULT_SHARD_COUNT, a function of the total alone.
        plan = plan_shards(1000, np.random.SeedSequence(1))
        assert len(plan) == DEFAULT_SHARD_COUNT
        assert len(plan) == default_shard_count(1000, MIN_SHARD_REPEATS)

    def test_default_count_clamped_to_trials(self):
        plan = plan_shards(3, np.random.SeedSequence(1))
        assert len(plan) == 3

    def test_trials_sum_to_total(self):
        plan = plan_shards(103, np.random.SeedSequence(5), 4)
        assert sum(s.trials for s in plan) == 103

    def test_plan_is_pure_function_of_inputs(self):
        # Planning twice from the *same* SeedSequence object must give
        # identical shard seeds (SeedSequence.spawn alone is stateful).
        sequence = np.random.SeedSequence(9)
        first = plan_shards(100, sequence, 4)
        second = plan_shards(100, sequence, 4)
        for a, b in zip(first, second):
            assert a.seed.spawn_key == b.seed.spawn_key
            assert a.seed.entropy == b.seed.entropy
            assert a.trials == b.trials

    def test_shard_seeds_are_distinct_children(self):
        plan = plan_shards(100, np.random.SeedSequence(9), 4)
        keys = {s.seed.spawn_key for s in plan}
        assert len(keys) == 4
        assert all(s.seed.entropy == 9 for s in plan)

    def test_shards_indexed_in_order(self):
        plan = plan_shards(100, np.random.SeedSequence(9), 4)
        assert [s.index for s in plan] == [0, 1, 2, 3]

    def test_rejects_non_seed_sequence(self):
        with pytest.raises(TypeError, match="SeedSequence"):
            plan_shards(100, 42, 4)

    def test_rejects_count_above_total(self):
        with pytest.raises(ValueError, match="cannot split"):
            plan_shards(2, np.random.SeedSequence(1), 3)


class TestShardPlanValidation:
    def test_rejects_inconsistent_total(self):
        shard = Shard(index=0, trials=5, seed=np.random.SeedSequence(1))
        with pytest.raises(ValueError, match="sum"):
            ShardPlan(shards=(shard,), total=6)

    def test_iteration_and_len(self):
        plan = plan_shards(10, np.random.SeedSequence(0), 2)
        assert len(plan) == 2
        assert [s.trials for s in plan] == [5, 5]
