"""Property-based tests for the streaming merge machinery.

Three algebraic guarantees behind ``ParallelRunner``'s streaming fold:

* **Order restoration** — whatever order the executor yields a grid's
  completions in, with or without resumed checkpoints, each spec's
  result is byte-identical to ``merge_parts`` of its shard bodies in
  plan order.
* **Identity** — an accumulator fed a single shard reproduces that
  shard byte-for-byte.
* **Associativity** — folding chunk-merged parts equals folding the
  parts directly equals the batch merge: chunking the fold never
  changes bits, so any grouping of shards along the way is safe.
"""

import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.miners import Allocation
from repro.core.results import EnsembleResult, MergeAccumulator, merge_parts
from repro.core.stats import StatsSummary
from repro.protocols import MultiLotteryPoS
from repro.runtime import (
    ParallelRunner,
    ResultCache,
    SimulationSpec,
    checkpoint_key,
    plan_shards,
    spec_fingerprint,
)
from repro.runtime.executor import SerialExecutor
from repro.runtime.runner import _simulation_shard_body

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


class PermutedExecutor(SerialExecutor):
    """Reports ``workers`` slots (the runner's task width), runs every
    task, then yields the completions in a drawn order."""

    def __init__(self, data, workers):
        self.data = data
        self.workers = workers

    def stream(self, fn, tasks, *, window=None):
        items = list(super().stream(fn, tasks, window=window))
        order = self.data.draw(
            st.permutations(range(len(items))), label="order"
        )
        for index in order:
            yield items[index]


SHARDS = 3


def grid_spec(trials, seed, reduce):
    return SimulationSpec(
        protocol=MultiLotteryPoS(0.01),
        allocation=Allocation.two_miners(0.2),
        trials=trials,
        horizon=20,
        checkpoints=(5, 10, 20),
        seed=seed,
        reduce=reduce,
    )


def shard_bodies(spec):
    plan = plan_shards(
        spec.trials, spec.seed_sequence, min(spec.trials, SHARDS)
    )
    return [_simulation_shard_body(spec, shard) for shard in plan]


def assert_same_artifact(got, expected):
    assert type(got) is type(expected)
    if isinstance(expected, StatsSummary):
        arrays = expected.state_arrays()
        assert got.state_meta() == expected.state_meta()
        assert set(got.state_arrays()) == set(arrays)
        for name, array in arrays.items():
            assert got.state_arrays()[name].tobytes() == array.tobytes()
        assert got.checkpoints.tobytes() == expected.checkpoints.tobytes()
    else:
        assert_byte_equal(got, expected)


# Trials 2..7 over 3 shards: uneven splits, and 2-trial specs whose
# plan clamps to 2 shards.
GRID = st.lists(
    st.tuples(st.integers(min_value=2, max_value=7), st.booleans()),
    min_size=1,
    max_size=3,
)


@settings(max_examples=20, deadline=None)
@given(grid=GRID, data=st.data())
def test_any_completion_order_folds_to_the_batch_merge(grid, data):
    specs = [
        grid_spec(trials, seed=40 + index, reduce="stats" if stats else "full")
        for index, (trials, stats) in enumerate(grid)
    ]
    bodies = [shard_bodies(spec) for spec in specs]
    with tempfile.TemporaryDirectory() as directory:
        cache = ResultCache(directory)
        # Optionally checkpoint some shards, as an interrupted run would
        # have: the resumed dispatch folds them as preloads.
        preloaded = 0
        for spec, parts in zip(specs, bodies):
            key = spec_fingerprint(spec, shards=len(parts))
            for ordinal, part in enumerate(parts):
                if data.draw(st.booleans(), label="checkpointed"):
                    cache.put(checkpoint_key(key, ordinal), part)
                    preloaded += 1
        workers = data.draw(st.integers(1, 4), label="workers")
        runner = ParallelRunner(
            executor=PermutedExecutor(data, workers), cache=cache,
            resume=True,
        )
        results = runner.run_many(specs, shards=SHARDS)
    assert runner.shards_resumed == preloaded
    for result, parts in zip(results, bodies):
        assert_same_artifact(result, merge_parts(parts))


@LIGHT_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    trials=st.integers(min_value=1, max_value=20),
)
def test_accumulator_of_one_shard_is_that_shard(seed, trials):
    part = synthetic_part(seed=seed, trials=trials)
    folded = MergeAccumulator(expected_trials=trials).add(part).result()
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
