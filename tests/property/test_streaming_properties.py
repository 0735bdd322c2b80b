"""Property-based tests for the streaming merge machinery.

Three algebraic guarantees behind ``ParallelRunner``'s streaming fold:

* **Order restoration** — pushing a dispatch's completions through the
  :class:`ReorderBuffer` in *any* completion order releases them in
  plan order, each exactly once; folding the released sequence through
  a :class:`MergeAccumulator` is byte-identical to
  :meth:`EnsembleResult.merge` of the full list.
* **Identity** — an accumulator fed a single shard reproduces that
  shard byte-for-byte.
* **Associativity** — folding chunk-merged parts equals folding the
  parts directly equals the batch merge: chunking the fold never
  changes bits, so any grouping of shards along the way is safe.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.miners import Allocation
from repro.core.results import EnsembleResult, MergeAccumulator
from repro.runtime import ReorderBuffer

LIGHT_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CHECKPOINTS = (10, 20, 40)
MINERS = 2


def synthetic_part(seed: int, trials: int) -> EnsembleResult:
    """A cheap, deterministic shard-shaped result (no simulation)."""
    rng = np.random.default_rng(seed)
    fractions = rng.random((trials, len(CHECKPOINTS), MINERS))
    terminal = rng.random((trials, MINERS)) + 0.1
    return EnsembleResult(
        protocol_name="ML-PoS",
        allocation=Allocation.two_miners(0.2),
        checkpoints=CHECKPOINTS,
        reward_fractions=fractions,
        terminal_stakes=terminal,
    )


def parts_and_total(sizes):
    parts = [
        synthetic_part(seed=100 + index, trials=size)
        for index, size in enumerate(sizes)
    ]
    return parts, sum(sizes)


def assert_byte_equal(a: EnsembleResult, b: EnsembleResult) -> None:
    assert a.reward_fractions.tobytes() == b.reward_fractions.tobytes()
    assert a.terminal_stakes.tobytes() == b.terminal_stakes.tobytes()
    assert a.checkpoints.tobytes() == b.checkpoints.tobytes()


@LIGHT_SETTINGS
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=8),
    order_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_any_completion_order_folds_to_the_batch_merge(sizes, order_seed):
    parts, total = parts_and_total(sizes)
    completion_order = np.random.default_rng(order_seed).permutation(len(parts))
    buffer = ReorderBuffer(len(parts))
    accumulator = MergeAccumulator(expected_trials=total)
    released_indices = []
    for index in completion_order:
        for plan_index, part in buffer.push(int(index), parts[index]):
            released_indices.append(plan_index)
            accumulator.add(part)
    assert buffer.complete
    assert released_indices == list(range(len(parts)))
    assert_byte_equal(accumulator.result(), EnsembleResult.merge(parts))


@LIGHT_SETTINGS
@given(
    total=st.integers(min_value=1, max_value=40),
    order_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_reorder_buffer_releases_every_index_once_in_order(total, order_seed):
    order = np.random.default_rng(order_seed).permutation(total)
    buffer = ReorderBuffer(total)
    released = []
    for index in order:
        batch = buffer.push(int(index), f"item-{index}")
        released.extend(batch)
        # Staging never exceeds what has been pushed but not released.
        assert buffer.staged <= total - len(released)
    assert buffer.complete
    assert [index for index, _ in released] == list(range(total))
    assert [item for _, item in released] == [f"item-{i}" for i in range(total)]


@LIGHT_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    trials=st.integers(min_value=1, max_value=20),
    preallocate=st.booleans(),
)
def test_accumulator_of_one_shard_is_that_shard(seed, trials, preallocate):
    part = synthetic_part(seed=seed, trials=trials)
    accumulator = MergeAccumulator(
        expected_trials=trials if preallocate else None
    )
    folded = part.merge_into(accumulator).result()
    assert folded.trials == part.trials
    assert_byte_equal(folded, EnsembleResult.merge([part]))
    # Clipping is idempotent on already-valid data, so the single-shard
    # fold reproduces the shard's own arrays bit-for-bit too.
    assert folded.reward_fractions.tobytes() == part.reward_fractions.tobytes()
    assert folded.terminal_stakes.tobytes() == part.terminal_stakes.tobytes()


@LIGHT_SETTINGS
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=10),
    data=st.data(),
)
def test_chunked_folds_compose_associatively(sizes, data):
    parts, total = parts_and_total(sizes)
    cut = data.draw(
        st.integers(min_value=1, max_value=len(parts) - 1), label="cut"
    )
    chunks = [parts[:cut], parts[cut:]]
    # Fold pre-merged chunks...
    chunked = MergeAccumulator(expected_trials=total)
    for chunk in chunks:
        chunked.add(EnsembleResult.merge(chunk))
    # ...fold the parts one by one...
    flat = MergeAccumulator(expected_trials=total)
    for part in parts:
        flat.add(part)
    # ...and batch-merge everything: all three agree bit-for-bit.
    reference = EnsembleResult.merge(parts)
    assert_byte_equal(chunked.result(), reference)
    assert_byte_equal(flat.result(), reference)


class TestReorderBufferEdges:
    def test_rejects_out_of_range_index(self):
        buffer = ReorderBuffer(2)
        with pytest.raises(IndexError, match="out of range"):
            buffer.push(2, "x")
        with pytest.raises(IndexError, match="out of range"):
            buffer.push(-1, "x")

    def test_rejects_duplicate_pushes(self):
        buffer = ReorderBuffer(3)
        buffer.push(1, "staged")  # held, not yet released
        with pytest.raises(ValueError, match="already pushed"):
            buffer.push(1, "again")
        buffer.push(0, "released")  # releases 0 and 1
        with pytest.raises(ValueError, match="already pushed"):
            buffer.push(0, "again")

    def test_rejects_negative_total(self):
        with pytest.raises(ValueError, match="non-negative"):
            ReorderBuffer(-1)

    def test_empty_buffer_is_complete(self):
        assert ReorderBuffer(0).complete
