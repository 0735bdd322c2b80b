"""Differential tests: chaos-injected runs vs fault-free runs.

The whole fault-tolerance layer rests on one claim: shards are
idempotent pure functions of the plan, so a run that survives injected
failures, delays, corrupt payloads, hangs and worker crashes produces
the *same bytes* — and the same cache artifacts — as a run that never
saw a fault.  These tests inject deterministic chaos schedules through
:class:`ChaosExecutor` on every backend and protocol and assert
bit-identity against the serial fault-free reference.
"""

import os

import pytest

from repro.core.miners import Allocation
from repro.experiments._common import build_protocol
from repro.runtime import (
    ChaosExecutor,
    ChaosSchedule,
    ParallelRunner,
    RetryPolicy,
    ShardExecutionError,
    SimulationSpec,
    make_executor,
)
from repro.runtime.chaos import ChaosCorruption, ChaosFault, _ChaosCall

ALL_PROTOCOLS = ("PoW", "ML-PoS", "SL-PoS", "C-PoS", "FSL-PoS")

BACKENDS = [
    pytest.param(1, id="serial"),
    pytest.param(3, id="processes"),
]

#: Converges for any schedule with max_faults_per_task=2.
POLICY = RetryPolicy(max_attempts=4, base_delay=0.001, max_delay=0.01)


def make_spec(name="ML-PoS", trials=24, horizon=60, seed=7):
    return SimulationSpec(
        protocol=build_protocol(name, reward=0.01),
        allocation=Allocation.two_miners(0.2),
        trials=trials,
        horizon=horizon,
        seed=seed,
    )


def assert_byte_equal(left, right):
    assert left.reward_fractions.tobytes() == right.reward_fractions.tobytes()
    assert left.checkpoints.tobytes() == right.checkpoints.tobytes()
    if right.terminal_stakes is None:
        assert left.terminal_stakes is None
    else:
        assert (
            left.terminal_stakes.tobytes() == right.terminal_stakes.tobytes()
        )
    assert left.protocol_name == right.protocol_name
    assert left.allocation == right.allocation
    assert left.round_unit == right.round_unit


def chaos_runner(tmp_path, tag, workers, cache=None, **rates):
    schedule = ChaosSchedule(
        seed=11,
        state_dir=str(tmp_path / f"state-{tag}"),
        delay=0.001,
        hang=1.0,
        max_faults_per_task=2,
        **rates,
    )
    inner = make_executor(
        workers, retry=POLICY,
        timeout=0.4 if rates.get("hang_rate") or rates.get("crash_rate")
        else None,
    )
    return ParallelRunner(executor=ChaosExecutor(inner, schedule), cache=cache)


class TestScheduleDeterminism:
    def test_draw_is_pure(self):
        schedule = ChaosSchedule(seed=3, state_dir="unused")
        assert schedule.draw(1, 2, "fail") == schedule.draw(1, 2, "fail")
        assert schedule.draw(1, 2, "fail") != schedule.draw(1, 3, "fail")

    def test_faults_stop_after_the_cap(self):
        schedule = ChaosSchedule(seed=3, state_dir="unused", fail_rate=1.0,
                                 max_faults_per_task=2)
        assert schedule.fault_for(0, 1) == "fail"
        assert schedule.fault_for(0, 2) == "fail"
        assert schedule.fault_for(0, 3) is None

    def test_claim_attempt_counts_across_calls(self, tmp_path):
        schedule = ChaosSchedule(seed=3, state_dir=str(tmp_path))
        assert [schedule.claim_attempt(5) for _ in range(3)] == [1, 2, 3]
        assert schedule.claim_attempt(6) == 1

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ChaosSchedule(seed=1, state_dir="x", fail_rate=1.5)
        with pytest.raises(ValueError):
            ChaosSchedule(seed=1, state_dir="x", delay=-1)

    def test_injected_faults_are_transient(self, tmp_path):
        schedule = ChaosSchedule(seed=3, state_dir=str(tmp_path),
                                 fail_rate=1.0, max_faults_per_task=1)
        call = _ChaosCall(lambda x: x, schedule, os.getpid())
        with pytest.raises(ChaosFault):
            call((0, "task"))
        assert POLICY.is_retryable(ChaosFault("x"))
        assert POLICY.is_retryable(ChaosCorruption("x"))

    def test_in_process_crash_downgrades_to_fault(self, tmp_path):
        schedule = ChaosSchedule(seed=3, state_dir=str(tmp_path),
                                 crash_rate=1.0, max_faults_per_task=1)
        call = _ChaosCall(lambda x: x, schedule, os.getpid())
        with pytest.raises(ChaosFault, match="in-process downgrade"):
            call((0, "task"))


class TestChaosDifferential:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    @pytest.mark.parametrize("workers", BACKENDS)
    def test_chaos_run_is_bit_identical(self, protocol, workers, tmp_path):
        # Four horizons are four kernel signatures, so even one worker,
        # which fuses each signature's shards into one task, runs four
        # tasks for the schedule to sabotage.
        specs = [make_spec(protocol, horizon=60 + cell) for cell in range(4)]
        reference = ParallelRunner(workers=1).run_many(specs, shards=4)
        runner = chaos_runner(
            tmp_path, f"{protocol}-{workers}", workers,
            fail_rate=0.4, corrupt_rate=0.3, delay_rate=0.3,
        )
        chaotic = runner.run_many(specs, shards=4)
        for result, expected in zip(chaotic, reference):
            assert_byte_equal(result, expected)
        assert runner.shards_retried > 0

    @pytest.mark.parametrize("workers", BACKENDS)
    def test_chaos_run_shares_cache_artifacts(self, workers, tmp_path):
        spec = make_spec()
        clean_dir = tmp_path / "clean-cache"
        chaos_dir = tmp_path / "chaos-cache"
        ParallelRunner(workers=1, cache=clean_dir).run(spec, shards=4)
        runner = chaos_runner(
            tmp_path, f"cache-{workers}", workers,
            cache=chaos_dir, fail_rate=0.4, corrupt_rate=0.3,
        )
        runner.run(spec, shards=4)
        clean = sorted(p.name for p in clean_dir.glob("*.npz"))
        chaotic = sorted(p.name for p in chaos_dir.glob("*.npz"))
        # Doctrine: retry knobs and injected faults never enter cache
        # fingerprints, so both runs store the identical artifact set.
        assert clean == chaotic and clean

    def test_hang_under_timeout_respawns_and_stays_identical(self, tmp_path):
        spec = make_spec(trials=16, horizon=40)
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        runner = chaos_runner(
            tmp_path, "hang", 3, hang_rate=0.5,
        )
        assert_byte_equal(runner.run(spec, shards=4), reference)

    def test_worker_crashes_are_survived_bit_identically(self, tmp_path):
        spec = make_spec(trials=16, horizon=40)
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        runner = chaos_runner(
            tmp_path, "crash", 3, crash_rate=0.5,
        )
        assert_byte_equal(runner.run(spec, shards=4), reference)

    def test_without_retries_chaos_surfaces_as_shard_failures(self, tmp_path):
        spec = make_spec(trials=16, horizon=40)
        schedule = ChaosSchedule(seed=11, state_dir=str(tmp_path / "state"),
                                 fail_rate=1.0, max_faults_per_task=1)
        runner = ParallelRunner(
            executor=ChaosExecutor(make_executor(1), schedule)
        )
        with pytest.raises(ShardExecutionError) as excinfo:
            runner.run(spec, shards=4)
        assert "ChaosFault" in str(excinfo.value)
