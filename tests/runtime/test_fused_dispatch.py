"""Differential tests: fused tasks vs per-shard runs.

The runner runs uncached simulation shards that share a kernel
signature as one fused engine per task.  That is execution, not
physics: every spec's artifact must equal ``merge_parts`` of its shards
run one at a time, byte for byte, whatever the task cut — one task per
signature group on one worker, groups strided over the workers of a
pool — and the checkpoints, the cache and the failure report must
still see shards.
"""

import time

import pytest

from repro.core.miners import Allocation
from repro.core.results import EnsembleResult, merge_parts
from repro.obs.report import render_summary, summarize_spans
from repro.obs.trace import Tracer, using_tracer
from repro.protocols import CompoundPoS, MultiLotteryPoS
from repro.runtime import (
    ParallelRunner,
    ResultCache,
    RetryPolicy,
    ShardExecutionError,
    SimulationSpec,
    checkpoint_key,
    make_executor,
    plan_shards,
    spec_fingerprint,
)
from repro.runtime.executor import SerialExecutor
from repro.runtime.faults import TransientShardError
from repro.runtime.runner import (
    STATS_TASK_TRIALS,
    _simulation_shard_body,
    _strided,
)
from repro.runtime.sharding import MIN_SHARD_TRIALS, Shard
from repro.runtime.spec import kernel_signature

SHARDS = 3


class WideSerialExecutor(SerialExecutor):
    """Runs tasks in-process but reports ``workers`` slots, so the
    runner cuts each signature group as a pool that wide would."""

    def __init__(self, workers):
        self.workers = workers


EXECUTORS = [
    pytest.param(lambda: make_executor(1), id="1-serial"),
    pytest.param(lambda: make_executor(2), id="2-processes"),
    pytest.param(lambda: make_executor(3), id="3-processes"),
    pytest.param(lambda: WideSerialExecutor(16), id="16-wide"),
]


def grid(reduce):
    """Two signature groups of mixed spec and shard sizes (a 2-trial
    spec plans only 2 shards), plus a one-spec group."""
    specs = [
        SimulationSpec(
            MultiLotteryPoS(0.01), Allocation.two_miners(share),
            trials=trials, horizon=40, checkpoints=(10, 25, 40),
            seed=seed, reduce=reduce,
        )
        for seed, (share, trials) in enumerate(
            [(0.1, 7), (0.2, 12), (0.3, 2), (0.4, 9)]
        )
    ]
    specs += [
        SimulationSpec(
            CompoundPoS(0.01, 0.1, shards=8), Allocation.two_miners(share),
            trials=trials, horizon=30, seed=10 + index, reduce=reduce,
        )
        for index, (share, trials) in enumerate([(0.2, 6), (0.45, 10)])
    ]
    specs.append(
        SimulationSpec(
            MultiLotteryPoS(0.01), Allocation.two_miners(0.2),
            trials=5, horizon=41, seed=20, reduce=reduce,
        )
    )
    return specs


def shard_parts(spec):
    plan = plan_shards(spec.trials, spec.seed_sequence, min(spec.trials, SHARDS))
    return [_simulation_shard_body(spec, shard) for shard in plan]


def reference(spec):
    """The spec's shards run one at a time, then merged at once."""
    return merge_parts(shard_parts(spec))


def assert_same_artifact(got, expected):
    assert type(got) is type(expected)
    if isinstance(expected, EnsembleResult):
        assert got.reward_fractions.tobytes() == expected.reward_fractions.tobytes()
        assert got.terminal_stakes.tobytes() == expected.terminal_stakes.tobytes()
        assert got.checkpoints.tobytes() == expected.checkpoints.tobytes()
        return
    assert got.state_meta() == expected.state_meta()
    arrays = expected.state_arrays()
    assert set(got.state_arrays()) == set(arrays)
    for name, array in arrays.items():
        assert got.state_arrays()[name].tobytes() == array.tobytes(), name


def traced_root(tracer):
    (root,) = [s for s in tracer.spans if s["name"] == "runner.run_many"]
    return root["attrs"]


class TestSignature:
    def test_allocation_trials_and_seed_stay_out(self):
        specs = grid("full")
        assert len({kernel_signature(spec) for spec in specs[:4]}) == 1

    def test_every_other_field_enters(self):
        base = grid("full")[0]
        variants = [
            dict(horizon=41),
            dict(checkpoints=(10, 40)),
            dict(record_terminal_stakes=False),
            dict(kernel="naive"),
            dict(reduce="stats"),
            dict(protocol=MultiLotteryPoS(0.02)),
            dict(allocation=Allocation.focal_vs_equal(0.2, 3)),
        ]
        fields = dict(
            protocol=base.protocol, allocation=base.allocation,
            trials=base.trials, horizon=base.horizon,
            checkpoints=base.checkpoints, seed=base.seed,
        )
        for change in variants:
            other = SimulationSpec(**dict(fields, **change))
            assert kernel_signature(other) != kernel_signature(base), change

    def test_protocol_type_is_exact(self):
        class Custom(MultiLotteryPoS):
            pass

        base = grid("full")[0]
        custom = SimulationSpec(
            Custom(0.01), base.allocation, trials=base.trials,
            horizon=base.horizon, checkpoints=base.checkpoints,
        )
        assert kernel_signature(custom) != kernel_signature(base)


class TestStridedCut:
    @staticmethod
    def units(*trials):
        return [
            (None, Shard(index, count, None), None)
            for index, count in enumerate(trials)
        ]

    @staticmethod
    def indices(tasks):
        return [[shard.index for _, shard, _ in task] for task in tasks]

    @pytest.mark.parametrize(
        "ways, expected",
        [
            (1, [[0, 1, 2, 3, 4, 5, 6]]),
            (2, [[0, 2, 4, 6], [1, 3, 5]]),
            (3, [[0, 3, 6], [1, 4], [2, 5]]),
            (16, [[0], [1], [2], [3], [4], [5], [6]]),
        ],
    )
    def test_member_i_goes_to_task_i_mod_k(self, ways, expected):
        tasks = _strided(self.units(*[10] * 7), ways, cap=MIN_SHARD_TRIALS)
        assert self.indices(tasks) == expected

    def test_tasks_stay_under_the_cap(self):
        # Seven 100-trial shards do not fit one 500-trial task; striding
        # over two tasks carries 400 and 300.
        tasks = _strided(self.units(*[100] * 7), 1, cap=MIN_SHARD_TRIALS)
        assert self.indices(tasks) == [[0, 2, 4, 6], [1, 3, 5]]

    def test_a_shard_above_the_cap_runs_alone(self):
        tasks = _strided(self.units(600, 600, 600), 1, cap=MIN_SHARD_TRIALS)
        assert self.indices(tasks) == [[0], [1], [2]]

    def test_stats_cap_fits_a_fig3_default_group(self):
        # fig3 `default` strides each protocol's twenty 500-trial
        # shards over two workers: two tasks of 5,000 trials.
        tasks = _strided(self.units(*[500] * 20), 2, cap=STATS_TASK_TRIALS)
        assert [len(task) for task in tasks] == [10, 10]


class TestFusedEqualsPerShard:
    @pytest.mark.parametrize("reduce", ["full", "stats"])
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_grid_equals_per_shard_merge(self, executor, reduce):
        specs = grid(reduce)
        runner = ParallelRunner(executor=executor())
        results = runner.run_many(specs, shards=SHARDS)
        for result, spec in zip(results, specs):
            assert_same_artifact(result, reference(spec))

    @pytest.mark.parametrize(
        "workers, tasks",
        # One task per signature group on one worker; a group of n
        # shards strides over min(workers, n) tasks on a pool.
        [(1, 3), (2, 6), (3, 9), (16, 20)],
    )
    def test_task_cut_follows_the_worker_count(self, workers, tasks):
        specs = grid("stats")
        tracer = Tracer()
        with using_tracer(tracer):
            ParallelRunner(executor=WideSerialExecutor(workers)).run_many(
                specs, shards=SHARDS
            )
        root = traced_root(tracer)
        assert root["shards"] == 20  # 11 + 6 + 3
        assert root["tasks"] == tasks

    @pytest.mark.parametrize(
        "executor, tasks",
        # A pool strides four 500-trial shards into two 1,000-trial
        # tasks; one worker, whose fused engine runs beside the fold,
        # keeps a full-mode task to one 500-trial shard.
        [
            pytest.param(lambda: WideSerialExecutor(2), 2, id="2-wide"),
            pytest.param(lambda: make_executor(1), 4, id="1-serial"),
        ],
    )
    def test_full_mode_task_cap_binds_only_on_one_worker(self, executor, tasks):
        spec = SimulationSpec(
            MultiLotteryPoS(0.01), Allocation.two_miners(0.2),
            trials=4 * MIN_SHARD_TRIALS, horizon=20, seed=40,
        )
        tracer = Tracer()
        with using_tracer(tracer):
            (result,) = ParallelRunner(executor=executor()).run_many([spec])
        root = traced_root(tracer)
        assert (root["shards"], root["tasks"]) == (4, tasks)
        plan = plan_shards(spec.trials, spec.seed_sequence, 4)
        assert_same_artifact(
            result,
            merge_parts([_simulation_shard_body(spec, shard) for shard in plan]),
        )

    def test_group_partly_restored_from_checkpoints(self, tmp_path):
        specs = grid("full")
        cache = ResultCache(tmp_path / "cache")
        # An interrupted run checkpointed shard 0 of spec 0, shard 2 of
        # spec 1 and every shard of spec 4.
        checkpointed = {0: [0], 1: [2], 4: [0, 1, 2]}
        for position, ordinals in checkpointed.items():
            spec = specs[position]
            key = spec_fingerprint(spec, shards=SHARDS)
            parts = shard_parts(spec)
            for ordinal in ordinals:
                cache.put(checkpoint_key(key, ordinal), parts[ordinal])
        runner = ParallelRunner(workers=1, cache=cache, resume=True)
        tracer = Tracer()
        with using_tracer(tracer):
            results = runner.run_many(specs, shards=SHARDS)
        assert runner.shards_resumed == 5
        root = traced_root(tracer)
        assert root["shards"] == 20 - 5
        assert root["tasks"] == 3  # the rest of each group still fuses
        for result, spec in zip(results, specs):
            assert_same_artifact(result, reference(spec))


class RaisingPoS(MultiLotteryPoS):
    """Fails to build the state of a 30% allocation."""

    def make_state(self, allocation, trials):
        if allocation.shares[0] == 0.3:
            raise RuntimeError("no state for a 30% miner")
        return super().make_state(allocation, trials)


class SlowPoS(MultiLotteryPoS):
    """Spends ``delay`` seconds building each member's state."""

    delay = 0.3

    def make_state(self, allocation, trials):
        time.sleep(self.delay)
        return super().make_state(allocation, trials)


class FlakyPoS(MultiLotteryPoS):
    """Fails once, mid-run, after every member's stream has spawned."""

    advances = 0

    def advance_many(self, state, rounds, rng):
        FlakyPoS.advances += 1
        if FlakyPoS.advances == 2:
            raise TransientShardError("lost mid-run")
        super().advance_many(state, rounds, rng)


def one_shard_specs(protocol, shares, trials=20):
    return [
        SimulationSpec(
            protocol, Allocation.two_miners(share), trials=trials,
            horizon=20, checkpoints=(10, 20), seed=30 + index,
        )
        for index, share in enumerate(shares)
    ]


class TestFusedFaults:
    def test_raising_member_fails_its_whole_task(self, tmp_path):
        # Two workers stride four one-shard specs into tasks {0, 2} and
        # {1, 3}: spec 2 raises, so spec 0 fails beside it, while
        # specs 1 and 3 completed in the other task and are cached.
        specs = one_shard_specs(RaisingPoS(0.01), (0.1, 0.2, 0.3, 0.4))
        runner = ParallelRunner(workers=2, cache=tmp_path)
        with pytest.raises(ShardExecutionError) as excinfo:
            runner.run_many(specs)
        failures = excinfo.value.failures
        assert [shard for shard, _, _ in failures] == [(0, 0), (2, 0)]
        message = str(excinfo.value)
        assert "spec 0 shard 0" in message and "spec 2 shard 0" in message
        assert message.count("no state for a 30% miner\n") == 1  # one traceback
        cached = [
            runner.cache.get(spec_fingerprint(spec, shards=1)) is not None
            for spec in specs
        ]
        assert cached == [False, True, False, True]

    def test_deadline_scales_with_the_shards_of_a_task(self):
        # Six one-shard specs over two workers are two tasks of three
        # shards, each shard about 0.6 of the deadline: a task takes
        # 1.8 deadlines' worth of one shard, within its three.
        specs = one_shard_specs(
            SlowPoS(0.01), (0.1, 0.2, 0.3, 0.4, 0.45, 0.5), trials=4
        )
        runner = ParallelRunner(workers=2, timeout=SlowPoS.delay / 0.6)
        tracer = Tracer()
        with using_tracer(tracer):
            results = runner.run_many(specs)
        assert traced_root(tracer)["tasks"] == 2
        assert runner.shards_retried == 0
        assert [result.trials for result in results] == [4] * 6

    def test_retried_fused_task_is_bit_identical(self):
        # A serial retry reruns the task object that failed after its
        # members' streams spawned: each member must spawn afresh.
        specs = one_shard_specs(FlakyPoS(0.01), (0.1, 0.2, 0.3))
        FlakyPoS.advances = -1000  # no failure in the clean run
        clean = ParallelRunner(workers=1).run_many(specs)
        FlakyPoS.advances = 0
        policy = RetryPolicy(max_attempts=2, base_delay=0.0)
        runner = ParallelRunner(workers=1, retry=policy)
        retried = runner.run_many(specs)
        assert runner.shards_retried == 3  # one retry of a 3-shard task
        for got, expected in zip(retried, clean):
            assert_same_artifact(got, expected)


class TestTraceShowsWidth:
    def test_summary_prints_tasks_and_shards(self):
        tracer = Tracer()
        with using_tracer(tracer):
            ParallelRunner(workers=1).run_many(grid("stats"), shards=SHARDS)
        runs = [s for s in tracer.spans if s["name"] == "shard.run"]
        assert [(s["attrs"]["shards"], s["attrs"]["trials"]) for s in runs] == [
            (11, 30), (6, 16), (3, 5),
        ]
        text = render_summary(summarize_spans(tracer.spans))
        assert "shards=20" in text and "tasks=3" in text

    def test_phase_section_counts_tasks_not_shards(self):
        tracer = Tracer()
        with using_tracer(tracer):
            ParallelRunner(workers=1).run_many(grid("stats"), shards=SHARDS)
        summary = summarize_spans(tracer.spans)
        (run,) = summary["runs"]
        assert (run["attrs"]["shards"], run["attrs"]["tasks"]) == (20, 3)
        assert "shards" not in summary
        section = summary["tasks"]
        assert (section["submitted"], section["completed"]) == (3, 3)
        assert section["wall"]["count"] == 3
        assert "\ntasks\n  submitted=3 completed=3 " in render_summary(summary)
