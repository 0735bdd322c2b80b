"""Tests for the reporting layer and the repro-trace CLI."""

import json

import pytest

from repro.obs.report import (
    main,
    metric_counters,
    percentile,
    render_cache_stats,
    render_metrics,
    render_summary,
    summarize_spans,
)
from repro.obs.trace import TRACE_SCHEMA, Tracer, using_tracer


def _span(name, ts=0.0, dur=0.0, **attrs):
    _span.counter += 1
    return {
        "name": name,
        "span_id": _span.counter,
        "parent_id": None,
        "ts": ts,
        "dur": dur,
        "pid": 1,
        "tid": 1,
        "attrs": attrs,
    }


_span.counter = 0


def _shard_phase_spans():
    """Two shards with known submit/run/complete/merge timings."""
    spans = []
    for task, (submit, start, wall) in enumerate([(0.0, 1.0, 2.0),
                                                  (0.5, 1.5, 3.0)]):
        spans.append(_span("shard.submit", ts=submit, task=task))
        spans.append(_span("shard.run", ts=start, dur=wall, task=task))
        spans.append(
            _span("shard.complete", ts=start + wall, task=task, ok=True)
        )
        spans.append(
            _span("shard.merge", ts=start + wall + 0.25, task=task)
        )
    return spans


class TestPercentile:
    def test_median_of_odd_list(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_interpolates(self):
        assert percentile([0.0, 10.0], 0.25) == 2.5

    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 5.0

    def test_single_value(self):
        assert percentile([7.0], 0.9) == 7.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="quantile"):
            percentile([1.0], 2.0)


class TestSummarizeSpans:
    def test_empty_trace(self):
        summary = summarize_spans([])
        assert summary == {"spans": 0}

    def test_shard_phases_join_on_task(self):
        summary = summarize_spans(_shard_phase_spans())
        section = summary["tasks"]
        assert section["submitted"] == 2
        assert section["completed"] == 2
        assert section["failed"] == 0
        assert section["wall"]["count"] == 2
        assert section["wall"]["max"] == 3.0
        # queue wait = run.ts - submit.ts = 1.0 for both shards
        assert section["queue_wait"]["p50"] == pytest.approx(1.0)
        # merge lag = merge.ts - (run.ts + run.dur) = 0.25 for both
        assert section["merge_lag"]["max"] == pytest.approx(0.25)

    def test_failed_shards_counted(self):
        spans = [
            _span("shard.complete", task=0, ok=False),
            _span("shard.complete", task=1, ok=True),
        ]
        assert summarize_spans(spans)["tasks"]["failed"] == 1

    def test_retried_shards_tally_without_double_counting(self):
        # Shard 0 is submitted twice (a retry) but must count once in
        # submitted/completed; the retry lands in its own tally.
        spans = [
            _span("shard.submit", ts=0.0, task=0, attempt=1),
            _span("shard.complete", ts=1.0, task=0, ok=False),
            _span("shard.retry", ts=1.0, task=0, attempt=1),
            _span("shard.submit", ts=1.1, task=0, attempt=2),
            _span("shard.complete", ts=2.0, task=0, ok=True),
            _span("shard.submit", ts=0.0, task=1, attempt=1),
            _span("shard.complete", ts=1.0, task=1, ok=True),
        ]
        section = summarize_spans(spans)["tasks"]
        assert section["submitted"] == 2
        assert section["completed"] == 2
        assert section["retries"] == 1

    def test_negative_cross_process_deltas_clamp_to_zero(self):
        spans = [
            _span("shard.submit", ts=5.0, task=0),
            _span("shard.run", ts=4.9, dur=1.0, task=0),  # skewed clock
        ]
        section = summarize_spans(spans)["tasks"]
        assert section["queue_wait"]["p50"] == 0.0

    def test_cache_section(self):
        spans = [
            _span("cache.get", dur=0.01, hit=True),
            _span("cache.get", dur=0.02, hit=False),
            _span("cache.put", dur=0.05, bytes=1000),
            _span("cache.evict", bytes=400),
        ]
        cache = summarize_spans(spans)["cache"]
        assert cache["gets"] == 2
        assert cache["hits"] == 1
        assert cache["misses"] == 1
        assert cache["puts"] == 1
        assert cache["put_bytes"] == 1000
        assert cache["evictions"] == 1
        assert cache["evicted_bytes"] == 400

    def test_cache_puts_count_only_stored_artifacts(self):
        spans = [
            _span("cache.put", dur=0.05, bytes=1000),
            _span("cache.put", dur=0.01),  # a degraded cache stored nothing
        ]
        cache = summarize_spans(spans)["cache"]
        assert (cache["puts"], cache["put_bytes"]) == (1, 1000)

    def test_kernel_split_by_mode(self):
        spans = [
            _span("kernel.advance", dur=1.0, mode="batched", rounds=100),
            _span("kernel.advance", dur=0.5, mode="batched", rounds=50),
            _span("kernel.advance", dur=2.0, mode="naive", rounds=100),
        ]
        kernel = summarize_spans(spans)["kernel"]
        assert kernel["batched"]["calls"] == 2
        assert kernel["batched"]["rounds"] == 150
        assert kernel["batched"]["seconds"] == pytest.approx(1.5)
        assert kernel["naive"]["seconds"] == pytest.approx(2.0)

    def test_kernel_split_by_protocol_and_miners(self):
        spans = [
            _span("kernel.advance", dur=1.0, mode="batched", protocol="C-PoS",
                  miners=3, rounds=100, trials=10),
            _span("kernel.advance", dur=0.5, mode="batched", protocol="C-PoS",
                  miners=3, rounds=50, trials=20),
            _span("kernel.advance", dur=2.0, mode="naive", protocol="C-PoS",
                  miners=10, rounds=100, trials=10),
            _span("kernel.advance", dur=0.25, mode="batched", protocol="PoW",
                  miners=3, rounds=10, trials=10),
            # A span from a trace that predates the attribute.
            _span("kernel.advance", dur=4.0, mode="batched", protocol="PoW",
                  rounds=10, trials=10),
        ]
        summary = summarize_spans(spans)
        assert summary["kernel"]["batched"]["calls"] == 4
        by_miners = summary["kernel_miners"]
        assert set(by_miners) == {"C-PoS", "PoW"}
        assert set(by_miners["C-PoS"]) == {"3", "10"}
        assert by_miners["C-PoS"]["3"]["calls"] == 2
        assert by_miners["C-PoS"]["3"]["trial_rounds"] == 2000
        assert by_miners["C-PoS"]["3"]["seconds"] == pytest.approx(1.5)
        assert by_miners["C-PoS"]["10"]["seconds"] == pytest.approx(2.0)
        assert by_miners["PoW"] == {
            "3": {"calls": 1, "trial_rounds": 100, "seconds": 0.25}
        }

    def test_kernel_split_by_miners_needs_the_attribute(self):
        spans = [_span("kernel.advance", dur=1.0, mode="batched", rounds=1)]
        assert "kernel_miners" not in summarize_spans(spans)

    def test_chainsim_split_by_fast_flag(self):
        spans = [
            _span("chainsim.run", dur=1.0, fast=True, rounds=500),
            _span("chainsim.run", dur=4.0, fast=False, rounds=500),
        ]
        chain = summarize_spans(spans)["chainsim"]
        assert chain["fast"]["calls"] == 1
        assert chain["naive"]["seconds"] == pytest.approx(4.0)

    def test_runner_roots_listed(self):
        spans = [_span("runner.run_many", dur=3.0, specs=4)]
        (run,) = summarize_spans(spans)["runs"]
        assert run["dur"] == 3.0
        assert run["attrs"]["specs"] == 4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_phases_join_per_dispatch(self, workers, two_miners):
        # Task indices restart at 0 in every dispatch: two run_many
        # grids of 4 and 3 shards under one tracer run one fused task
        # each on one worker (2 tasks, not 1) and two each on two.
        tasks = {1: 2, 2: 4}[workers]
        from repro.protocols import MultiLotteryPoS
        from repro.runtime import ParallelRunner, SimulationSpec

        runner = ParallelRunner(workers=workers)
        tracer = Tracer()
        with using_tracer(tracer):
            for seed, shards in ((1, 4), (2, 3)):
                spec = SimulationSpec(
                    MultiLotteryPoS(0.01), two_miners,
                    trials=12, horizon=20, seed=seed,
                )
                runner.run_many([spec], shards=shards)
        summary = summarize_spans(tracer.spans)
        assert [run["attrs"]["shards"] for run in summary["runs"]] == [4, 3]
        section = summary["tasks"]
        assert section["submitted"] == tasks
        assert section["completed"] == tasks
        assert section["wall"]["count"] == tasks
        assert section["queue_wait"]["count"] == tasks
        assert section["merge_lag"]["count"] == tasks


class TestMetricCounters:
    def test_every_row_reads_its_records(self):
        spans = [
            _span("runner.run_many", dur=2.0, specs=3, shards=5, tasks=2),
            _span("runner.run_system_many", dur=1.0, specs=1, shards=2),
            _span("shards.retried", task=0, shards=3),
            _span("shards.resumed", key="k", shards=2),
            _span("shards.failed", task=1, shards=3),
            _span("shard.retry", task=0, attempt=1),
            _span("shard.complete", task=1, ok=False, timeout=True),
            _span("shard.complete", task=1, ok=False, crashed=True),
            _span("pool.respawn", crashed=False, expired=1),
            _span("pool.degraded", reason="hung worker", remaining=1),
            _span("cache.get", hit=True),
            _span("cache.get", hit=False),
            _span("cache.get", hit=False),
            _span("cache.put", bytes=100),
            _span("cache.put"),  # a degraded cache stored nothing
            _span("cache.put_skipped"),
            _span("cache.evict", bytes=40),
            _span("cache.quarantine", bytes=7),
            _span("cache.quarantine"),  # unbudgeted: bytes not measured
            _span("cache.degraded"),
            _span("cache.sum_adopted"),
            _span("cache.io_error"),
            _span("storage.os_error", component="cache", op="fsync"),
            _span("storage.os_error", component="cache", op="fsync"),
            _span("storage.os_error", component="fsck", op="digest"),
            _span("shard.run", dur=1.0, task=0),  # counted by no row
        ]
        assert metric_counters(spans) == {
            "runner.specs": 4,
            "runner.shards_dispatched": 7,
            "runner.shards_retried": 3,
            "runner.shards_resumed": 2,
            "runner.shards_failed": 3,
            "executor.retries": 1,
            "executor.timeouts": 1,
            "executor.respawns": 1,
            "executor.degraded": 1,
            "cache.hits": 1,
            "cache.misses": 2,
            "cache.puts": 1,
            "cache.put_bytes": 100,
            "cache.puts_skipped_degraded": 1,
            "cache.evictions": 1,
            "cache.evicted_bytes": 40,
            "cache.quarantined": 2,
            "cache.quarantined_bytes": 7,
            "cache.degraded": 1,
            "cache.sums_adopted": 1,
            "cache.io_errors": 1,
            "cache.os_errors.fsync": 2,
            "fsck.os_errors.digest": 1,
        }

    def test_a_dispatch_with_nothing_to_run_keeps_its_rows(self):
        spans = [_span("runner.run_many", specs=2, shards=0, tasks=0)]
        assert metric_counters(spans) == {
            "runner.specs": 2, "runner.shards_dispatched": 0,
        }

    def test_no_records_no_rows(self):
        assert metric_counters([]) == {}


class TestRendering:
    def test_render_summary_contains_sections(self):
        spans = _shard_phase_spans() + [
            _span("runner.run_many", dur=3.0, specs=2),
            _span("cache.get", dur=0.01, hit=False),
            _span("cache.put", dur=0.05, bytes=1000),
            _span("kernel.advance", dur=1.0, mode="batched", rounds=100),
        ]
        text = render_summary(summarize_spans(spans))
        for token in ("runner.run_many", "tasks", "wall", "queue_wait",
                      "cache", "kernel", "batched"):
            assert token in text

    def test_render_summary_orders_miner_counts_numerically(self):
        spans = [
            _span("kernel.advance", dur=1.0, mode="batched", protocol="C-PoS",
                  miners=miners, rounds=1000, trials=1000)
            for miners in (10, 2, 3)
        ]
        lines = render_summary(summarize_spans(spans)).splitlines()
        start = lines.index("kernel by miners")
        assert lines[start + 1].split() == [
            "protocol", "miners", "calls", "time", "ns/trial-round"
        ]
        rows = [line.split() for line in lines[start + 2:]]
        assert [row[1] for row in rows] == ["2", "3", "10"]
        assert all(row[-1] == "1000" for row in rows)

    def test_render_summary_shows_the_retry_tally(self):
        spans = _shard_phase_spans() + [
            _span("shard.retry", task=0, attempt=1),
            _span("shard.retry", task=0, attempt=2),
        ]
        text = render_summary(summarize_spans(spans))
        assert "retries=2" in text

    def test_render_metrics_lists_counters_in_name_order(self):
        text = render_metrics({"runner.specs": 4, "cache.hits": 3})
        assert text.splitlines() == [
            "metrics",
            "  counter       value",
            "  cache.hits    3",
            "  runner.specs  4",
        ]

    def test_render_metrics_empty(self):
        assert "(empty)" in render_metrics({})

    def test_render_cache_stats(self):
        text = render_cache_stats({
            "hits": 5, "misses": 2, "evictions": 1,
            "entries": 4, "bytes": 2048, "max_bytes": 1 << 20,
        })
        for token in ("entries", "2.0KiB", "1.0MiB"):
            assert token in text
        # A fresh cache object's hit and eviction counts are always zero.
        for gone in ("hits", "misses", "evictions"):
            assert gone not in text


class TestCLI:
    def _write_trace(self, tmp_path):
        tracer = Tracer()
        with tracer.span("runner.run_many", specs=1):
            tracer.event("shard.submit", task=0)
        return tracer.write(tmp_path / "trace.jsonl")

    def test_summarize_prints_table(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert main(["summarize", str(path)]) == 0
        output = capsys.readouterr().out
        assert "trace summary" in output
        assert "runner.run_many" in output

    def test_summarize_check_ok(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert main(["summarize", str(path), "--check"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_summarize_check_fails_on_invalid(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("garbage\n")
        assert main(["summarize", str(path), "--check"]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_summarize_json_output(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert main(["summarize", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"] == 2

    def test_summarize_json_splits_kernel_time_by_miners(
        self, tmp_path, capsys
    ):
        tracer = Tracer()
        with tracer.span("kernel.advance", mode="batched", protocol="C-PoS",
                         miners=4, rounds=10, trials=100):
            pass
        path = tracer.write(tmp_path / "trace.jsonl")
        assert main(["summarize", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        entry = payload["kernel_miners"]["C-PoS"]["4"]
        assert (entry["calls"], entry["trial_rounds"]) == (1, 1000)
        assert main(["summarize", str(path)]) == 0
        assert "kernel by miners" in capsys.readouterr().out

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_header_schema_is_stable(self, tmp_path):
        # The CI trace-smoke step greps for this literal tag; moving it
        # is a schema version bump, not a refactor.
        assert TRACE_SCHEMA == "repro-trace/v1"
