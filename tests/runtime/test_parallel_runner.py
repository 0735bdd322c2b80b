"""Tests for repro.runtime.runner and the wiring into game/experiments."""

import numpy as np
import pytest

from repro.chainsim.harness import SystemExperiment
from repro.core.game import MiningGame
from repro.core.miners import Allocation
from repro.protocols import MultiLotteryPoS, ProofOfWork
from repro.runtime import (
    ParallelRunner,
    ResultCache,
    SimulationSpec,
    get_default_runtime,
    set_default_runtime,
    using_runtime,
)
from repro.sim.engine import MonteCarloEngine
from repro.sim.events import StakeTopUp


def make_spec(trials=60, horizon=120, seed=42, **overrides):
    defaults = dict(
        protocol=MultiLotteryPoS(0.01),
        allocation=Allocation.two_miners(0.2),
        trials=trials,
        horizon=horizon,
        seed=seed,
    )
    defaults.update(overrides)
    return SimulationSpec(**defaults)


class TestRunSimulation:
    def test_serial_run_produces_full_ensemble(self):
        result = ParallelRunner(workers=1).run(make_spec(), shards=4)
        assert result.trials == 60
        assert result.protocol_name == "ML-PoS"

    def test_workers_do_not_change_merged_bits(self):
        spec = make_spec()
        serial = ParallelRunner(workers=1).run(spec, shards=4)
        parallel = ParallelRunner(workers=3).run(spec, shards=4)
        np.testing.assert_array_equal(
            serial.reward_fractions, parallel.reward_fractions
        )
        np.testing.assert_array_equal(
            serial.terminal_stakes, parallel.terminal_stakes
        )

    def test_events_forwarded_to_shards(self):
        spec = make_spec(
            protocol=ProofOfWork(0.01),
            events=(StakeTopUp(10, 0, amount=0.5),),
        )
        result = ParallelRunner(workers=2).run(spec, shards=2)
        # The top-up raises A's hash share, so A's mean final fraction
        # must exceed the no-event run's.
        plain = ParallelRunner(workers=2).run(
            make_spec(protocol=ProofOfWork(0.01)), shards=2
        )
        assert result.final_fractions().mean() > plain.final_fractions().mean()

    def test_record_terminal_stakes_respected(self):
        spec = make_spec(record_terminal_stakes=False)
        result = ParallelRunner(workers=1).run(spec, shards=2)
        assert result.terminal_stakes is None

    def test_kernel_knob_does_not_change_merged_bits(self):
        # The spec's kernel selects the advance path per shard; results
        # (and hence cache addresses) are bit-identical either way.
        from repro.runtime.spec import spec_fingerprint

        naive_spec = make_spec(kernel="naive")
        batched_spec = make_spec(kernel="batched")
        naive = ParallelRunner(workers=1).run(naive_spec, shards=3)
        batched = ParallelRunner(workers=1).run(batched_spec, shards=3)
        np.testing.assert_array_equal(
            naive.reward_fractions, batched.reward_fractions
        )
        assert spec_fingerprint(naive_spec, shards=3) == spec_fingerprint(
            batched_spec, shards=3
        )

    def test_spec_rejects_unknown_kernel(self):
        with pytest.raises(ValueError, match="kernel"):
            make_spec(kernel="fused")

    def test_default_shard_plan_is_workers_independent(self):
        spec = make_spec()
        one = ParallelRunner(workers=1).run(spec)
        two = ParallelRunner(workers=2).run(spec)
        np.testing.assert_array_equal(one.reward_fractions, two.reward_fractions)

    def test_large_pools_get_one_shard_per_worker(self):
        seen = []
        runner = ParallelRunner(
            workers=12, progress=lambda done, total: seen.append(total)
        )
        runner.run(make_spec(trials=24))
        assert seen[0] == 12  # default plan scales past DEFAULT_SHARD_COUNT

    def test_progress_reports_every_shard(self):
        seen = []
        runner = ParallelRunner(
            workers=1, progress=lambda done, total: seen.append((done, total))
        )
        runner.run(make_spec(), shards=3)
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_rejects_non_spec(self):
        with pytest.raises(TypeError, match="SimulationSpec"):
            ParallelRunner().run("fig2")

    def test_explicit_shards_clamped_to_trials(self):
        # Regression: shards=16 on a 4-trial spec used to raise
        # "ValueError: cannot split 4 items into 16 shards"; now both
        # the constructor default and the per-run argument clamp like
        # the default plan, so the merged bits match shards=4.
        spec = make_spec(trials=4)
        constructor = ParallelRunner(shards=16).run(spec)
        per_run = ParallelRunner().run(spec, shards=16)
        reference = ParallelRunner().run(spec, shards=4)
        np.testing.assert_array_equal(
            constructor.reward_fractions, reference.reward_fractions
        )
        np.testing.assert_array_equal(
            per_run.reward_fractions, reference.reward_fractions
        )

    def test_clamped_shards_share_cache_entry_with_exact_count(self, tmp_path):
        runner = ParallelRunner(cache=tmp_path)
        spec = make_spec(trials=4)
        runner.run(spec, shards=16)
        runner.run(spec, shards=4)
        assert runner.cache.hits == 1
        assert len(runner.cache) == 1

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError, match="shards"):
            ParallelRunner().run(make_spec(), shards=0)


class _ExplodingExperiment:
    """A SystemSpec experiment whose every shard fails."""

    def __init__(self):
        self.tag = "boom"

    def _run_serial(self, rounds, repeats, checkpoints=None, seed=None):
        raise RuntimeError("boom")


class TestRunMany:
    def grid(self):
        return [
            make_spec(seed=1),
            make_spec(protocol=ProofOfWork(0.01), seed=2),
            make_spec(trials=30, seed=3),
        ]

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_matches_per_spec_run_bit_for_bit(self, backend):
        workers = 1 if backend == "serial" else 3
        batched = ParallelRunner(workers=workers).run_many(
            self.grid(), shards=4
        )
        reference = [
            ParallelRunner(workers=1).run(spec, shards=4)
            for spec in self.grid()
        ]
        assert len(batched) == 3
        for got, expected in zip(batched, reference):
            np.testing.assert_array_equal(
                got.reward_fractions, expected.reward_fractions
            )
            np.testing.assert_array_equal(
                got.terminal_stakes, expected.terminal_stakes
            )

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_mixed_cache_hit_miss_grid(self, backend, tmp_path):
        workers = 1 if backend == "serial" else 2
        warmup = ParallelRunner(workers=1, cache=tmp_path)
        cached_result = warmup.run(self.grid()[1], shards=4)

        runner = ParallelRunner(workers=workers, cache=tmp_path)
        batched = runner.run_many(self.grid(), shards=4)
        assert runner.cache.hits == 1  # spec 1 loaded, specs 0/2 simulated
        np.testing.assert_array_equal(
            batched[1].reward_fractions, cached_result.reward_fractions
        )
        reference = [
            ParallelRunner(workers=1).run(spec, shards=4)
            for spec in self.grid()
        ]
        for got, expected in zip(batched, reference):
            np.testing.assert_array_equal(
                got.reward_fractions, expected.reward_fractions
            )
        # The batched run populated the cache for the misses too.
        rerun = ParallelRunner(workers=1, cache=tmp_path)
        rerun.run_many(self.grid(), shards=4)
        assert rerun.cache.hits == 3

    def test_single_dispatch_progress_spans_grid(self):
        seen = []
        runner = ParallelRunner(
            workers=1, progress=lambda done, total: seen.append((done, total))
        )
        runner.run_many(self.grid(), shards=4)
        # One dispatch of 3 specs x 4 shards: totals stay at 12.
        assert seen == [(i + 1, 12) for i in range(12)]

    def test_fully_cached_grid_skips_dispatch(self, tmp_path):
        runner = ParallelRunner(workers=1, cache=tmp_path)
        runner.run_many(self.grid(), shards=2)
        seen = []
        warm = ParallelRunner(
            workers=1,
            cache=tmp_path,
            progress=lambda done, total: seen.append((done, total)),
        )
        warm.run_many(self.grid(), shards=2)
        assert warm.cache.hits == 3
        assert seen == []

    def test_empty_grid(self):
        assert ParallelRunner().run_many([]) == []

    def test_accepts_iterator_of_specs(self):
        results = ParallelRunner().run_many(
            make_spec(seed=s) for s in (1, 2)
        )
        assert [r.trials for r in results] == [60, 60]

    def test_duplicate_specs_in_cached_grid_compute_once(self, tmp_path):
        seen = []
        runner = ParallelRunner(
            workers=1,
            cache=tmp_path,
            progress=lambda done, total: seen.append(total),
        )
        a, b = runner.run_many([make_spec(seed=11), make_spec(seed=11)],
                               shards=4)
        assert seen[0] == 4  # one copy dispatched, not two
        assert len(runner.cache) == 1
        # Counter parity with the per-cell loop: one cold miss for the
        # first copy, one hit when the duplicate loads it back.
        assert runner.cache.hits == 1
        assert runner.cache.misses == 1
        np.testing.assert_array_equal(a.reward_fractions, b.reward_fractions)

    def test_failing_spec_does_not_discard_completed_caches(
        self, tmp_path, two_miners
    ):
        from repro.runtime import ShardExecutionError, SystemSpec

        good = SystemSpec(SystemExperiment("ml-pos", two_miners), 30, 4, seed=3)
        bad = SystemSpec(_ExplodingExperiment(), 30, 4, seed=4)
        runner = ParallelRunner(workers=1, cache=tmp_path)
        with pytest.raises(ShardExecutionError, match="boom"):
            runner.run_system_many([good, bad], shards=2)
        # The good spec completed every shard, so its merged result was
        # salvaged into the cache before the error propagated.
        rerun = ParallelRunner(workers=1, cache=tmp_path)
        rerun.run_system(good.experiment, 30, 4, seed=good.seed, shards=2)
        assert rerun.cache.hits == 1

    def test_rejects_non_spec_in_grid(self):
        with pytest.raises(TypeError, match="SimulationSpec"):
            ParallelRunner().run_many([make_spec(), "fig2"])

    def test_run_system_many_matches_per_spec(self, two_miners):
        from repro.runtime import SystemSpec

        specs = [
            SystemSpec(SystemExperiment("ml-pos", two_miners), 40, 6, seed=7),
            SystemSpec(SystemExperiment("pow", two_miners), 30, 4, seed=9),
        ]
        batched = ParallelRunner(workers=2).run_system_many(specs, shards=2)
        reference = [
            ParallelRunner(workers=1).run_system(
                spec.experiment, spec.rounds, spec.repeats,
                seed=spec.seed, shards=2,
            )
            for spec in specs
        ]
        for got, expected in zip(batched, reference):
            np.testing.assert_array_equal(
                got.reward_fractions, expected.reward_fractions
            )

    def test_run_system_many_rejects_simulation_spec(self):
        with pytest.raises(TypeError, match="SystemSpec"):
            ParallelRunner().run_system_many([make_spec()])


class TestRunSystem:
    def test_system_repeats_sharded_and_merged(self, two_miners):
        experiment = SystemExperiment("ml-pos", two_miners)
        serial = ParallelRunner(workers=1).run_system(
            experiment, 40, 6, seed=7, shards=3
        )
        parallel = ParallelRunner(workers=2).run_system(
            experiment, 40, 6, seed=7, shards=3
        )
        assert serial.trials == 6
        np.testing.assert_array_equal(
            serial.reward_fractions, parallel.reward_fractions
        )

    def test_harness_routes_through_ambient_runtime(self, two_miners):
        experiment = SystemExperiment("ml-pos", two_miners)
        runner = ParallelRunner(workers=1)
        with using_runtime(runner):
            routed = experiment.run(40, 6, seed=7)
        direct = runner.run_system(experiment, 40, 6, seed=7)
        np.testing.assert_array_equal(
            routed.reward_fractions, direct.reward_fractions
        )

    def test_explicit_shards_clamp_like_simulation_specs(self, tmp_path, two_miners):
        # shards=16 on a 4-repeat system spec must clamp to 4 — same
        # rule and same cache-entry sharing as simulation specs.
        experiment = SystemExperiment("ml-pos", two_miners)
        cache = tmp_path / "cache"
        runner = ParallelRunner(cache=cache)
        clamped = runner.run_system(experiment, 30, 4, seed=9, shards=16)
        exact = runner.run_system(experiment, 30, 4, seed=9, shards=4)
        np.testing.assert_array_equal(
            clamped.reward_fractions, exact.reward_fractions
        )
        assert runner.cache.hits == 1
        assert len(runner.cache) == 1

    def test_repeats_validated_identically_with_and_without_runtime(
        self, two_miners
    ):
        experiment = SystemExperiment("ml-pos", two_miners)
        with pytest.raises(ValueError, match="repeats"):
            experiment.run(10, repeats=0)
        with using_runtime(ParallelRunner(workers=1)):
            with pytest.raises(ValueError, match="repeats"):
                experiment.run(10, repeats=0)


class TestRunSystemMany:
    def grid(self, two_miners, seed=17):
        from repro.runtime import SystemSpec

        protocols = ("ml-pos", "sl-pos", "fsl-pos")
        return [
            SystemSpec(
                experiment=SystemExperiment(protocol, two_miners),
                rounds=30,
                repeats=4,
                seed=seed + index,
            )
            for index, protocol in enumerate(protocols)
        ]

    @pytest.mark.parametrize("workers", [
        pytest.param(1, id="1-processes"), pytest.param(2, id="2-processes"),
    ])
    def test_mixed_cached_uncached_grid(self, tmp_path, two_miners, workers):
        # Warm exactly one cell, then run the whole grid: the warm cell
        # must load, the cold cells compute, and every result must be
        # bit-identical to the per-spec path — on every backend.
        specs = self.grid(two_miners)
        reference = [
            ParallelRunner(workers=1).run_system(
                spec.experiment, spec.rounds, spec.repeats, seed=spec.seed,
                shards=2,
            )
            for spec in specs
        ]
        cache = tmp_path / f"cache-{workers}"
        ParallelRunner(workers=1, cache=cache).run_system_many(
            [specs[1]], shards=2
        )
        runner = ParallelRunner(workers=workers, cache=cache)
        batched = runner.run_system_many(specs, shards=2)
        assert runner.cache.hits == 1
        assert runner.cache.misses == 2
        for expected, actual in zip(reference, batched):
            np.testing.assert_array_equal(
                expected.reward_fractions, actual.reward_fractions
            )
            np.testing.assert_array_equal(
                expected.terminal_stakes, actual.terminal_stakes
            )

    def test_batched_matches_per_spec_without_cache(self, two_miners):
        specs = self.grid(two_miners, seed=23)
        runner = ParallelRunner(workers=1)
        per_spec = [
            runner.run_system(
                spec.experiment, spec.rounds, spec.repeats, seed=spec.seed,
                shards=2,
            )
            for spec in specs
        ]
        batched = ParallelRunner(workers=1).run_system_many(specs, shards=2)
        for expected, actual in zip(per_spec, batched):
            np.testing.assert_array_equal(
                expected.reward_fractions, actual.reward_fractions
            )

    def test_fast_and_naive_specs_share_cache_entries(
        self, tmp_path, two_miners
    ):
        from repro.runtime import SystemSpec

        runner = ParallelRunner(workers=1, cache=tmp_path / "cache")
        naive_spec = SystemSpec(
            experiment=SystemExperiment("ml-pos", two_miners, fast=False),
            rounds=30, repeats=3, seed=5,
        )
        fast_spec = SystemSpec(
            experiment=SystemExperiment("ml-pos", two_miners, fast=True),
            rounds=30, repeats=3, seed=5,
        )
        cold = runner.run_system_many([naive_spec], shards=2)[0]
        warm = runner.run_system_many([fast_spec], shards=2)[0]
        assert runner.cache.hits == 1
        np.testing.assert_array_equal(
            cold.reward_fractions, warm.reward_fractions
        )


class TestCacheIntegration:
    def test_second_run_is_a_cache_hit(self, tmp_path):
        runner = ParallelRunner(workers=1, cache=tmp_path / "cache")
        spec = make_spec()
        cold = runner.run(spec, shards=4)
        warm = runner.run(spec, shards=4)
        assert runner.cache.hits == 1
        assert cold.reward_fractions.tobytes() == warm.reward_fractions.tobytes()

    def test_cache_shared_across_runner_instances(self, tmp_path):
        spec = make_spec()
        ParallelRunner(workers=1, cache=tmp_path).run(spec, shards=4)
        second = ParallelRunner(workers=2, cache=tmp_path)
        second.run(spec, shards=4)
        assert second.cache.hits == 1

    def test_different_shard_plans_do_not_collide(self, tmp_path):
        runner = ParallelRunner(workers=1, cache=tmp_path)
        spec = make_spec()
        runner.run(spec, shards=2)
        runner.run(spec, shards=3)
        assert runner.cache.hits == 0
        assert len(runner.cache) == 2

    def test_accepts_prebuilt_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(cache=cache)
        assert runner.cache is cache

    def test_system_results_cached(self, tmp_path, two_miners):
        runner = ParallelRunner(workers=1, cache=tmp_path)
        experiment = SystemExperiment("ml-pos", two_miners)
        runner.run_system(experiment, 30, 4, seed=3, shards=2)
        runner.run_system(experiment, 30, 4, seed=3, shards=2)
        assert runner.cache.hits == 1

    def test_single_repeat_system_run_cached_via_ambient_runtime(
        self, tmp_path, two_miners
    ):
        runner = ParallelRunner(workers=1, cache=tmp_path)
        experiment = SystemExperiment("ml-pos", two_miners)
        with using_runtime(runner):
            experiment.run(30, 1, seed=3)
            experiment.run(30, 1, seed=3)
        assert runner.cache.hits == 1


class TestAmbientContext:
    def test_default_is_none(self):
        assert get_default_runtime() is None

    def test_using_runtime_scopes_and_restores(self):
        runner = ParallelRunner()
        with using_runtime(runner):
            assert get_default_runtime() is runner
            inner = ParallelRunner()
            with using_runtime(inner):
                assert get_default_runtime() is inner
            assert get_default_runtime() is runner
        assert get_default_runtime() is None

    def test_set_returns_previous(self):
        runner = ParallelRunner()
        assert set_default_runtime(runner) is None
        assert set_default_runtime(None) is runner


class TestMiningGameWiring:
    def test_workers_and_direct_runner_agree(self):
        game = MiningGame(MultiLotteryPoS(0.01), Allocation.two_miners(0.2))
        via_game = game.simulate(120, trials=60, seed=42, workers=2)
        spec = make_spec()
        via_runner = ParallelRunner(workers=1).run(spec)
        np.testing.assert_array_equal(
            via_game.reward_fractions, via_runner.reward_fractions
        )

    def test_play_with_cache(self, tmp_path):
        game = MiningGame(ProofOfWork(0.01), Allocation.two_miners(0.2))
        first = game.play(200, trials=80, seed=5, cache=tmp_path)
        second = game.play(200, trials=80, seed=5, cache=tmp_path)
        assert first.expectational.sample_mean == second.expectational.sample_mean

    def test_serial_path_unchanged_without_runtime_args(self):
        game = MiningGame(MultiLotteryPoS(0.01), Allocation.two_miners(0.2))
        via_game = game.simulate(120, trials=60, seed=42)
        engine = MonteCarloEngine(
            game.protocol, game.allocation, trials=60, seed=42
        )
        direct = engine.run(120)
        np.testing.assert_array_equal(
            via_game.reward_fractions, direct.reward_fractions
        )


class TestExperimentLayerWiring:
    def test_run_simulation_respects_ambient_runtime(self, tmp_path, two_miners):
        from repro.experiments._common import run_simulation
        from repro.sim.rng import RandomSource

        runner = ParallelRunner(workers=1, cache=tmp_path)
        with using_runtime(runner):
            run_simulation(
                MultiLotteryPoS(0.01), two_miners, 100, 40, RandomSource(7)
            )
            run_simulation(
                MultiLotteryPoS(0.01), two_miners, 100, 40, RandomSource(7)
            )
        assert runner.cache.hits == 1

    def test_cli_workers_and_cache_flags(self, tmp_path, capsys):
        from repro.experiments.runner import main

        cache_dir = tmp_path / "cache"
        code = main(
            ["fig2", "--preset", "ci", "--workers", "2", "--cache", str(cache_dir)]
        )
        assert code == 0
        assert "Figure 2" in capsys.readouterr().out
        assert get_default_runtime() is None  # context restored
        assert len(list(cache_dir.glob("*.npz"))) > 0

    def test_cli_rejects_bad_workers(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["fig2", "--preset", "ci", "--workers", "0"])

    def test_registry_runtime_parameter(self, tmp_path):
        from repro.experiments.config import CI
        from repro.experiments.registry import run_experiment

        runner = ParallelRunner(workers=1, cache=tmp_path)
        run_experiment("fig2", CI, seed=1, runtime=runner)
        assert len(runner.cache) > 0
        assert get_default_runtime() is None
