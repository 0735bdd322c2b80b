"""Integration tests: the instrumented runtime under a live tracer.

The hard doctrine from the telemetry design is pinned here:

* traced and untraced runs are **bit-identical** (tracing never touches
  random state);
* telemetry is provably absent from **cache fingerprints**;
* a traced ``run_many`` grid on the processes backend produces a valid
  JSONL trace covering submit/run/complete/merge for every shard plus
  cache and kernel spans;
* worker telemetry survives **pickling** across the process boundary;
* the CLI progress line is newline-terminated on both success and
  failure paths.
"""

import io
import pickle

import numpy as np
import pytest

from repro.core.miners import Allocation
from repro.obs import (
    MetricsRegistry,
    ShardEnvelope,
    Tracer,
    ingest_envelope,
    read_trace,
    using_metrics,
    using_tracer,
    validate_trace,
)
from repro.protocols import MultiLotteryPoS, ProofOfWork
from repro.runtime import (
    ParallelRunner,
    ShardExecutionError,
    SimulationSpec,
    SystemSpec,
    spec_fingerprint,
)
from repro.chainsim.harness import SystemExperiment


#: Worker counts of the two backends, under their backend ids.
BACKENDS = [pytest.param(2, id="processes"), pytest.param(1, id="serial")]


def make_specs(seeds=(5, 6)):
    return [
        SimulationSpec(
            MultiLotteryPoS(0.01),
            Allocation.two_miners(0.2),
            trials=48,
            horizon=60,
            seed=seed,
        )
        for seed in seeds
    ]


class TestBitIdentityNeutrality:
    @pytest.mark.parametrize("workers", BACKENDS)
    def test_traced_run_matches_untraced(self, workers):
        specs = make_specs()
        baseline = ParallelRunner(workers=workers).run_many(specs, shards=4)
        with using_tracer(Tracer()), using_metrics(MetricsRegistry()):
            traced = ParallelRunner(workers=workers).run_many(
                specs, shards=4
            )
        for base, trace in zip(baseline, traced):
            np.testing.assert_array_equal(
                base.reward_fractions, trace.reward_fractions
            )

    def test_traced_and_untraced_share_cache_entries(self, tmp_path):
        spec = make_specs()[0]
        untraced = ParallelRunner(workers=1, cache=tmp_path)
        untraced.run(spec, shards=4)
        traced = ParallelRunner(workers=1, cache=tmp_path)
        with using_tracer(Tracer()):
            traced.run(spec, shards=4)
        assert traced.cache.hits == 1  # the traced run loaded, not re-ran


class TestFingerprintDoctrine:
    def test_fingerprint_identical_with_tracer_on_and_off(self):
        spec = make_specs()[0]
        cold = spec_fingerprint(spec, shards=4)
        with using_tracer(Tracer()), using_metrics(MetricsRegistry()):
            hot = spec_fingerprint(spec, shards=4)
        assert cold == hot

    def test_system_fingerprint_identical_with_tracer_on_and_off(
        self, two_miners
    ):
        spec = SystemSpec(
            SystemExperiment("ml-pos", two_miners), 30, 4, seed=3
        )
        cold = spec_fingerprint(spec, shards=2)
        with using_tracer(Tracer()):
            hot = spec_fingerprint(spec, shards=2)
        assert cold == hot


class TestTracedGridCoverage:
    @pytest.mark.parametrize("workers", BACKENDS)
    def test_streamed_grid_covers_every_shard_phase(self, tmp_path, workers):
        specs = make_specs()
        shard_count = 4
        tracer = Tracer()
        with using_tracer(tracer):
            ParallelRunner(workers=workers, cache=tmp_path / "cache").run_many(
                specs, shards=shard_count
            )
        path = tracer.write(tmp_path / "trace.jsonl")
        assert validate_trace(path) == []
        _, spans = read_trace(path)
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        total_tasks = len(specs) * shard_count
        for phase in ("shard.submit", "shard.run", "shard.complete",
                      "shard.merge"):
            tasks = sorted(s["attrs"]["task"] for s in by_name[phase])
            assert tasks == list(range(total_tasks)), phase
        # One planning-time get (miss) and one store per spec.
        assert len(by_name["cache.get"]) == len(specs)
        assert all(not s["attrs"]["hit"] for s in by_name["cache.get"])
        assert len(by_name["cache.put"]) == len(specs)
        # Kernel spans from inside the workers made it home.
        assert by_name["kernel.advance"]
        assert all(
            s["attrs"]["mode"] == "batched" for s in by_name["kernel.advance"]
        )
        (root,) = by_name["runner.run_many"]
        assert root["attrs"]["tasks"] == total_tasks

    def test_naive_kernel_spans_report_naive_mode(self):
        spec = SimulationSpec(
            ProofOfWork(0.01),
            Allocation.two_miners(0.2),
            trials=16,
            horizon=40,
            seed=2,
            kernel="naive",
        )
        tracer = Tracer()
        with using_tracer(tracer):
            ParallelRunner(workers=1).run(spec, shards=2)
        kernel_spans = [
            s for s in tracer.spans if s["name"] == "kernel.advance"
        ]
        assert kernel_spans
        assert all(s["attrs"]["mode"] == "naive" for s in kernel_spans)

    def test_system_grid_records_chainsim_spans(self, two_miners):
        spec = SystemSpec(
            SystemExperiment("ml-pos", two_miners), 25, 4, seed=3
        )
        tracer = Tracer()
        with using_tracer(tracer):
            ParallelRunner(workers=2).run_system_many([spec], shards=2)
        chain_spans = [
            s for s in tracer.spans if s["name"] == "chainsim.run"
        ]
        assert chain_spans
        assert {"network", "rounds", "fast"} <= set(
            chain_spans[0]["attrs"]
        )
        (root,) = [
            s for s in tracer.spans if s["name"] == "runner.run_system_many"
        ]
        assert root["attrs"]["specs"] == 1

    def test_cache_hit_recorded_on_warm_run(self, tmp_path):
        spec = make_specs()[0]
        ParallelRunner(workers=1, cache=tmp_path).run(spec, shards=2)
        tracer = Tracer()
        with using_tracer(tracer):
            ParallelRunner(workers=1, cache=tmp_path).run(spec, shards=2)
        (get,) = [s for s in tracer.spans if s["name"] == "cache.get"]
        assert get["attrs"]["hit"] is True

    def test_untraced_dispatch_records_nothing(self):
        tracer = Tracer()
        ParallelRunner(workers=1).run(make_specs()[0], shards=2)
        assert tracer.spans == []


class TestEnvelopeTransport:
    def test_envelope_pickle_roundtrip(self):
        tracer = Tracer()
        with tracer.span("shard.run", task=0):
            pass
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        envelope = ShardEnvelope("payload", tracer.drain(), registry.snapshot())
        clone = pickle.loads(pickle.dumps(envelope))
        assert clone.payload == "payload"
        assert clone.spans[0]["name"] == "shard.run"
        assert clone.metrics["counters"] == {"c": 2}

    def test_ingest_envelope_folds_into_ambient_telemetry(self):
        worker = Tracer()
        with worker.span("shard.run", task=0):
            pass
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        envelope = ShardEnvelope(42, worker.drain(), registry.snapshot())
        parent_tracer, parent_metrics = Tracer(), MetricsRegistry()
        with using_tracer(parent_tracer), using_metrics(parent_metrics):
            assert ingest_envelope(envelope) == 42
        assert [s["name"] for s in parent_tracer.spans] == ["shard.run"]
        assert parent_metrics.counter("c").value == 3

    def test_ingest_envelope_passes_bare_payloads_through(self):
        assert ingest_envelope("bare") == "bare"
        assert ingest_envelope(None) is None

    def test_worker_spans_carry_worker_pids_on_processes(self, tmp_path):
        import os

        tracer = Tracer()
        with using_tracer(tracer):
            ParallelRunner(workers=2).run_many(make_specs(), shards=4)
        run_pids = {
            s["pid"] for s in tracer.spans if s["name"] == "shard.run"
        }
        event_pids = {
            s["pid"] for s in tracer.spans if s["name"] == "shard.submit"
        }
        assert event_pids == {os.getpid()}
        # Forked workers stamp their own pids on shard.run spans.
        assert run_pids - {os.getpid()}


class _ExplodingExperiment:
    def __init__(self):
        self.tag = "boom"

    def _run_serial(self, rounds, repeats, checkpoints=None, seed=None):
        raise RuntimeError("boom")


class TestProgressLineTermination:
    def _progress(self):
        from repro.experiments.runner import _ShardProgress

        stream = io.StringIO()
        return _ShardProgress(stream), stream

    def test_success_path_ends_with_newline(self):
        progress, stream = self._progress()
        runner = ParallelRunner(workers=1, progress=progress)
        runner.run(make_specs()[0], shards=2)
        assert stream.getvalue().endswith("[shards 2/2]\n")

    def test_failure_path_ends_with_newline(self, two_miners):
        progress, stream = self._progress()
        good = SystemSpec(
            SystemExperiment("ml-pos", two_miners), 20, 4, seed=3
        )
        bad = SystemSpec(_ExplodingExperiment(), 20, 4, seed=4)
        runner = ParallelRunner(workers=1, progress=progress)
        with pytest.raises(ShardExecutionError, match="boom"):
            runner.run_system_many([good, bad], shards=2)
        output = stream.getvalue()
        # Mid-grid failure: the ticker stopped short of N/N, but the
        # line was still terminated so the traceback starts cleanly.
        assert output.endswith("\n")
        assert "[shards 4/4]" in output

    def test_close_is_idempotent(self):
        progress, stream = self._progress()
        progress(1, 4)
        progress.close()
        progress.close()
        assert stream.getvalue() == "\r[shards 1/4]\n"

    def test_close_without_output_writes_nothing(self):
        progress, stream = self._progress()
        progress.close()
        assert stream.getvalue() == ""
