"""Tests for the registry and the repro-experiments CLI."""

import json

import pytest

from repro.experiments.config import CI
from repro.experiments.registry import (
    EXPERIMENTS,
    get_experiment,
    run_experiment,
)
from repro.experiments.runner import build_parser, main


class TestRegistry:
    def test_all_paper_artefacts_registered(self):
        assert set(EXPERIMENTS) == {
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "tab1", "sec64",
        }

    def test_lookup(self):
        assert get_experiment("fig1").artefact == "Figure 1"
        with pytest.raises(ValueError, match="unknown experiment"):
            get_experiment("fig9")

    def test_run_experiment_fig1(self):
        result = run_experiment("fig1", CI)
        assert hasattr(result, "render")

    def test_run_with_preset_and_seed(self):
        result = get_experiment("fig2").run_with_preset(CI, seed=99)
        assert result.config.seed == 99
        assert result.config.preset is CI


class TestCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig1"])
        assert args.preset == "default"
        assert args.experiment == "fig1"

    def test_parser_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9"])

    def test_main_fig1(self, capsys):
        assert main(["fig1", "--preset", "ci"]) == 0
        output = capsys.readouterr().out
        assert "Figure 1" in output
        assert "stable" in output

    def test_main_writes_json(self, tmp_path, capsys):
        assert main(["fig1", "--preset", "ci", "--json", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "fig1.json").read_text())
        assert "zeros" in payload

    def test_main_no_system_flag(self, capsys):
        # fig6 at CI preset with --no-system stays simulation-only.
        assert main(["fig6", "--preset", "ci", "--no-system", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "node-level" not in output

    def test_cache_budget_requires_cache(self):
        with pytest.raises(SystemExit, match="requires --cache"):
            main(["fig1", "--preset", "ci", "--cache-budget", "1M"])

    def test_cache_budget_rejects_garbage(self, tmp_path):
        with pytest.raises(SystemExit, match="cache-budget"):
            main([
                "fig1", "--preset", "ci",
                "--cache", str(tmp_path), "--cache-budget", "lots",
            ])

    def test_cache_budget_parses_suffixes(self):
        from repro.experiments.runner import _parse_bytes

        assert _parse_bytes("1024") == 1024
        assert _parse_bytes("2K") == 2048
        assert _parse_bytes("3MB") == 3 * (1 << 20)
        assert _parse_bytes("1g") == 1 << 30

    def test_cache_budget_rejects_non_positive(self, tmp_path):
        # A clean usage error, not a ResultCache traceback.
        for bad in ("--cache-budget=0", "--cache-budget=-5K"):
            with pytest.raises(SystemExit, match="must be positive"):
                main(["fig1", "--preset", "ci", "--cache", str(tmp_path), bad])

    def test_cache_budget_flows_into_runtime_cache(self, tmp_path, capsys):
        from repro.experiments.runner import _build_runtime

        args = build_parser().parse_args([
            "fig1", "--preset", "ci",
            "--cache", str(tmp_path / "cache"), "--cache-budget", "64M",
        ])
        runtime = _build_runtime(args)
        assert runtime.cache.max_bytes == 64 << 20
        code = main([
            "fig1", "--preset", "ci",
            "--cache", str(tmp_path / "cache"), "--cache-budget", "64M",
        ])
        assert code == 0
        capsys.readouterr()


class TestFaultToleranceCLI:
    def test_retry_and_timeout_flags_flow_into_the_runner(self, tmp_path):
        from repro.experiments.runner import _build_runtime

        args = build_parser().parse_args([
            "fig1", "--preset", "ci", "--workers", "2",
            "--retries", "4", "--shard-timeout", "2.5",
        ])
        runner = _build_runtime(args)
        assert runner.executor.retry.max_attempts == 4
        assert runner.executor.timeout == 2.5

    def test_retries_at_one_worker_timeout_refused(self):
        from repro.experiments.runner import _build_runtime
        from repro.runtime import SerialExecutor

        args = build_parser().parse_args([
            "fig1", "--preset", "ci", "--workers", "1", "--retries", "3",
        ])
        runner = _build_runtime(args)
        assert isinstance(runner.executor, SerialExecutor)
        assert runner.executor.retry.max_attempts == 3
        with pytest.raises(SystemExit, match="requires --workers above 1"):
            main(["fig1", "--preset", "ci", "--workers", "1",
                  "--shard-timeout", "5"])

    def test_timeout_with_cache_at_one_worker_refused(self, tmp_path):
        # A serial executor cannot enforce the deadline, so a cache
        # must not smuggle the flag past the worker-count check.
        with pytest.raises(SystemExit, match="requires --workers above 1"):
            main(["fig1", "--preset", "ci", "--workers", "1",
                  "--cache", str(tmp_path), "--shard-timeout", "5"])

    def test_fault_flag_validation(self, tmp_path):
        with pytest.raises(SystemExit, match="--retries must be"):
            main(["fig1", "--preset", "ci", "--workers", "2",
                  "--retries", "0"])
        with pytest.raises(SystemExit, match="--shard-timeout must be"):
            main(["fig1", "--preset", "ci", "--workers", "2",
                  "--shard-timeout", "-1"])

    def test_resume_requires_cache(self):
        with pytest.raises(SystemExit, match="--resume requires --cache"):
            main(["fig1", "--preset", "ci", "--workers", "2", "--resume"])

    def test_resume_builds_a_resuming_runner(self, tmp_path):
        from repro.experiments.runner import _build_runtime

        cache_dir = tmp_path / "cache"
        args = build_parser().parse_args([
            "fig1", "--preset", "ci", "--cache", str(cache_dir), "--resume",
        ])
        runner = _build_runtime(args)
        assert runner.resume is True
        assert runner.cache.directory == cache_dir
        args = build_parser().parse_args(
            ["fig1", "--preset", "ci", "--cache", str(cache_dir)]
        )
        assert _build_runtime(args).resume is False

    def test_main_runs_with_retries_and_resume(self, tmp_path, capsys):
        code = main([
            "fig2", "--preset", "ci", "--workers", "2",
            "--cache", str(tmp_path / "cache"), "--retries", "3", "--resume",
        ])
        assert code == 0
        assert "Figure 2" in capsys.readouterr().out
        # Every spec finished, so no shard checkpoint is left.
        assert list((tmp_path / "cache").glob("*.*.npz")) == []
        assert len(list((tmp_path / "cache").glob("*.npz"))) == 4

    def test_shard_progress_renders_a_retry_tally(self):
        import io

        from repro.experiments.runner import _ShardProgress

        sink = io.StringIO()
        progress = _ShardProgress(stream=sink)
        progress(1, 4)
        assert "[shards 1/4]" in sink.getvalue()
        progress.retry(0, 1)
        progress.retry(2, 1)
        progress(2, 4)
        progress(3, 4)
        progress(4, 4)
        lines = sink.getvalue().split("\r")
        # The tally appears once retries happen, and the completion
        # count never double-counts a retried shard.
        assert lines[-1] == "[shards 4/4, retries 2]\n"
        assert "[shards 5/4" not in sink.getvalue()

    def test_shard_progress_without_retries_keeps_the_old_line(self):
        import io

        from repro.experiments.runner import _ShardProgress

        sink = io.StringIO()
        progress = _ShardProgress(stream=sink)
        progress(1, 2)
        progress(2, 2)
        assert "retries" not in sink.getvalue()
        assert sink.getvalue().endswith("[shards 2/2]\n")


class TestTelemetryCLI:
    def test_trace_writes_valid_jsonl_and_prints_summary(
        self, tmp_path, capsys
    ):
        from repro.obs import validate_trace

        trace_path = tmp_path / "run.jsonl"
        code = main([
            "fig2", "--preset", "ci", "--workers", "2",
            "--trace", str(trace_path),
        ])
        assert code == 0
        assert validate_trace(trace_path) == []
        output = capsys.readouterr().out
        assert "trace summary" in output
        assert "runner.run_many" in output

    def test_metrics_prints_registry(self, tmp_path, capsys):
        code = main([
            "fig2", "--preset", "ci", "--workers", "2",
            "--cache", str(tmp_path / "cache"), "--metrics",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "metrics" in output
        assert "runner.shards_dispatched" in output

    def test_trace_does_not_change_cache_keys(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main([
            "fig2", "--preset", "ci", "--cache", str(cache),
        ]) == 0
        entries = sorted(p.name for p in cache.glob("*.npz"))
        assert main([
            "fig2", "--preset", "ci", "--cache", str(cache),
            "--trace", str(tmp_path / "t.jsonl"),
        ]) == 0
        assert sorted(p.name for p in cache.glob("*.npz")) == entries
        capsys.readouterr()

    def test_telemetry_is_not_ambient_after_main_returns(self, tmp_path):
        from repro.obs import NULL_TRACER, get_tracer

        assert main([
            "fig2", "--preset", "ci",
            "--trace", str(tmp_path / "t.jsonl"), "--metrics",
        ]) == 0
        assert get_tracer() is NULL_TRACER


class TestCacheStatsCLI:
    def test_cache_stats_requires_cache(self):
        with pytest.raises(SystemExit, match="requires --cache"):
            main(["cache-stats"])

    def test_cache_stats_reports_entries_and_bytes(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["fig2", "--preset", "ci", "--cache", str(cache)]) == 0
        capsys.readouterr()
        assert main(["cache-stats", "--cache", str(cache)]) == 0
        output = capsys.readouterr().out
        assert "cache stats" in output
        assert "entries" in output
        # Hit and eviction counts belong to the run's --metrics table: a
        # fresh process reading the directory could only print zeros.
        assert "hits" not in output
        assert "evictions" not in output
        # fig2's grid stores one artifact per spec.
        entry_line = next(
            line for line in output.splitlines() if "entries" in line
        )
        assert int(entry_line.split()[-1]) > 0

    def test_cache_stats_on_empty_directory(self, tmp_path, capsys):
        assert main(["cache-stats", "--cache", str(tmp_path / "fresh")]) == 0
        output = capsys.readouterr().out
        assert "entries" in output


class TestFlagIndependence:
    """Execution flags change how a figure runs, never its numbers."""

    @pytest.mark.parametrize("experiment", ["fig2", "fig3", "sec64"])
    def test_json_is_byte_identical_across_flags(
        self, experiment, tmp_path, capsys
    ):
        flag_sets = {
            "none": [],
            "workers1": ["--workers", "1"],
            "workers2": ["--workers", "2"],
            "cache": ["--cache", str(tmp_path / "cache-a")],
            "resume": ["--workers", "2", "--cache", str(tmp_path / "cache-b"),
                       "--resume"],
            "metrics": ["--workers", "2", "--metrics"],
        }
        outputs = {}
        for name, flags in flag_sets.items():
            json_dir = tmp_path / name
            argv = [experiment, "--preset", "ci", "--json", str(json_dir)]
            assert main(argv + flags) == 0
            outputs[name] = (json_dir / f"{experiment}.json").read_bytes()
        capsys.readouterr()
        reference = outputs.pop("none")
        for name, payload in outputs.items():
            assert payload == reference, name
