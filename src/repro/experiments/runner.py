"""Command-line entry point: ``repro-experiments``.

Examples
--------
Run one experiment at CI scale::

    repro-experiments fig2 --preset ci

Run everything at paper scale, saving JSON series next to the text::

    repro-experiments all --preset paper --json results/

"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
from typing import List, Optional

from ..obs import (
    Tracer,
    metric_counters,
    render_cache_stats,
    render_metrics,
    render_summary,
    summarize_spans,
    using_tracer,
)
from ..runtime import ParallelRunner, using_runtime
from .config import get_preset
from .registry import EXPERIMENTS, get_experiment

__all__ = ["main", "build_parser"]


def _usable_cpus() -> int:
    """The number of CPUs this process may run on.

    The scheduler affinity mask where the platform reports one (it
    honours ``taskset`` and container CPU sets), else the machine's
    CPU count.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the figures and tables of 'Do the Rich Get Richer? "
            "Fairness Analysis for Blockchain Incentives' (SIGMOD 2021)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "cache-stats"],
        help="experiment id, 'all', or 'cache-stats' (print the "
        "entries and bytes a --cache directory holds and exit)",
    )
    parser.add_argument(
        "--preset",
        default="default",
        choices=["paper", "default", "ci"],
        help="Monte Carlo scale preset (default: default)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the experiment seed"
    )
    parser.add_argument(
        "--no-system",
        action="store_true",
        help="skip the node-level chainsim runs",
    )
    parser.add_argument(
        "--json",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="also write <experiment>.json series into DIR",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=_usable_cpus(),
        metavar="N",
        help="fan Monte Carlo / system ensembles out over N processes; "
        "1 runs every shard in this process (default: the CPUs this "
        "process may use).  Each ensemble splits into at most 8 "
        "shards, Monte Carlo shards of at least 500 trials, whatever "
        "N, so the numbers are identical for any N",
    )
    parser.add_argument(
        "--cache",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="content-addressed result cache; reruns of an identical "
        "spec load instead of simulating.  Each experiment decides "
        "what it stores: a grid that prints only unfair-trial counts "
        "and moments (fig3, fig5, tab1, sec64) keeps those (counts "
        "exact, moments equal to full mode's to float tolerance), "
        "the others whole trajectories",
    )
    parser.add_argument(
        "--cache-budget",
        default=None,
        metavar="BYTES",
        help="size budget for --cache (accepts K/M/G suffixes, e.g. "
        "500M); least-recently-used artifacts are evicted once a "
        "write exceeds it",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip SHA-256 digest verification on cache reads (on by "
        "default: artifacts whose bytes no longer match their recorded "
        "digest are quarantined and recomputed).  Requires --cache; "
        "never changes results or cache keys",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retry each failed task (with every shard it runs) up to "
        "N total attempts with exponential backoff (transient "
        "failures only: worker "
        "timeouts, crashes, broken pools, I/O errors).  Shards are "
        "idempotent pure functions of the plan, so retried runs stay "
        "bit-identical and retry knobs never enter cache keys.  "
        "Valid at any worker count: a serial run retries inline",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard deadline, so a task running k shards gets k "
        "of them: a worker process that exceeds it is killed, its "
        "pool respawned, and the task counted as a transient failure, "
        "retryable under --retries.  Requires "
        "--workers above 1: a shard running in this process cannot be "
        "stopped",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="checkpoint each completed shard in the cache and, on "
        "rerun, recompute only the shards without a checkpoint — "
        "resuming a killed grid.  Requires --cache; never changes "
        "results or cache keys",
    )
    parser.add_argument(
        "--trace",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="record a span trace of the run (runner dispatch, per-"
        "shard submit/run/complete/merge, cache and kernel activity) "
        "as a JSONL file at PATH, and print the span summary table; "
        "inspect later with 'repro-trace summarize PATH'.  Tracing "
        "never changes results or cache keys",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print a table of runtime counters at the end of the run "
        "(specs and shards dispatched, retried, resumed and failed; "
        "cache hits, misses, puts, evictions and quarantines; task "
        "retries, timeouts and pool respawns; swallowed storage "
        "errors), counted from the run's span trace, which it keeps in "
        "memory.  Never changes results or cache keys",
    )
    return parser


def _run_one(key: str, preset, seed: Optional[int], json_dir) -> str:
    experiment = get_experiment(key)
    start = time.perf_counter()
    result = experiment.run_with_preset(preset, seed)
    elapsed = time.perf_counter() - start
    text = result.render()
    banner = (
        f"=== {experiment.artefact} [{key}] "
        f"(preset={preset.name}, {elapsed:.1f}s) ==="
    )
    if json_dir is not None:
        json_dir.mkdir(parents=True, exist_ok=True)
        path = json_dir / f"{key}.json"
        with open(path, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2)
    return f"{banner}\n{text}\n"


class _ShardProgress:
    """Render ``(completed, total)`` shard callbacks as one stderr line.

    A whole figure grid goes through a single pool dispatch, so the
    line counts shards across every cell of the grid; it is rewritten
    in place (carriage return) and finished with a newline when the
    dispatch completes.  ``k`` counts shards whose final outcome has
    arrived, in arrival order, so it is monotone and never overshoots
    ``N``, even when a shard fails mid-grid and the completed specs are
    salvaged.

    Retried shards never double-count: ``k`` advances once per shard's
    *final* outcome, while retries accumulate in a separate tally of
    retried tasks (a task reruns every shard it carries) that is
    appended to the line (``[shards k/N, retries R]``) once any shard
    has been retried.
    """

    def __init__(self, stream=None) -> None:
        self.stream = sys.stderr if stream is None else stream
        self._open_line = False
        self.retries = 0
        self._last = (0, 0)

    def _render(self, completed: int, total: int) -> None:
        tail = f", retries {self.retries}" if self.retries else ""
        end = "\n" if completed >= total else ""
        self.stream.write(f"\r[shards {completed}/{total}{tail}]{end}")
        self.stream.flush()
        self._open_line = end == ""
        self._last = (completed, total)

    def __call__(self, completed: int, total: int) -> None:
        self._render(completed, total)

    def retry(self, task: int, attempt: int) -> None:
        """Tally one task retry (called by the runner's retry listener)."""
        self.retries += 1
        if self._open_line:
            self._render(*self._last)

    def close(self) -> None:
        """Terminate an unfinished progress line.

        The runner calls this on both success and failure paths, so a
        ``ShardExecutionError`` traceback starts on its own line
        instead of printing after a half-written ``[shards k/N]``.
        """
        if self._open_line:
            self.stream.write("\n")
            self.stream.flush()
            self._open_line = False


def _parse_bytes(text: str) -> int:
    """Parse a byte count with an optional K/M/G suffix (base 1024)."""
    scales = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    cleaned = text.strip().upper()
    if cleaned.endswith("B"):
        cleaned = cleaned[:-1]
    scale = 1
    if cleaned and cleaned[-1] in scales:
        scale = scales[cleaned[-1]]
        cleaned = cleaned[:-1]
    try:
        value = int(cleaned)
    except ValueError:
        raise SystemExit(
            f"--cache-budget expects an integer with optional K/M/G "
            f"suffix, got {text!r}"
        ) from None
    if value <= 0:
        raise SystemExit(f"--cache-budget must be positive, got {text!r}")
    return value * scale


def _build_runtime(args) -> ParallelRunner:
    """The ParallelRunner the CLI flags ask for."""
    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    if args.cache_budget is not None and args.cache is None:
        raise SystemExit("--cache-budget requires --cache")
    if args.retries is not None and args.retries < 1:
        raise SystemExit(f"--retries must be >= 1, got {args.retries}")
    if args.shard_timeout is not None and args.shard_timeout <= 0:
        raise SystemExit(
            f"--shard-timeout must be positive, got {args.shard_timeout}"
        )
    if args.shard_timeout is not None and args.workers == 1:
        # The serial executor cannot preempt a shard running in this
        # process; refuse rather than silently drop the deadline.
        raise SystemExit("--shard-timeout requires --workers above 1")
    if args.resume and args.cache is None:
        raise SystemExit("--resume requires --cache")
    if args.no_verify and args.cache is None:
        raise SystemExit("--no-verify requires --cache")
    cache = args.cache
    if cache is not None and (args.cache_budget is not None or args.no_verify):
        from ..runtime import ResultCache

        budget = (
            _parse_bytes(args.cache_budget)
            if args.cache_budget is not None
            else None
        )
        cache = ResultCache(
            cache, max_bytes=budget, verify=not args.no_verify
        )
    try:
        return ParallelRunner(
            workers=args.workers,
            cache=cache,
            progress=_ShardProgress(),
            retry=args.retries,
            timeout=args.shard_timeout,
            resume=args.resume,
        )
    except ValueError as error:
        raise SystemExit(str(error))


def _cache_stats(args) -> int:
    """The ``cache-stats`` subcommand: report on a cache directory."""
    if args.cache is None:
        raise SystemExit("cache-stats requires --cache DIR")
    from ..runtime import ResultCache

    cache = ResultCache(args.cache)
    stats = cache.stats()
    print(f"cache directory: {args.cache}")
    print(render_cache_stats(stats))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "cache-stats":
        return _cache_stats(args)
    preset = get_preset(args.preset)
    if args.no_system:
        preset = preset.with_system(False)
    keys = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    # --metrics counts the trace's records, so it traces too.
    tracer = Tracer() if args.trace is not None or args.metrics else None
    with using_tracer(tracer):
        with using_runtime(_build_runtime(args)):
            for key in keys:
                print(_run_one(key, preset, args.seed, args.json))
    if args.trace is not None:
        spans = tracer.spans
        tracer.write(args.trace)
        print(render_summary(summarize_spans(spans)))
        print(
            f"[trace] wrote {len(spans)} spans to {args.trace}",
            file=sys.stderr,
        )
    if args.metrics:
        print(render_metrics(metric_counters(tracer.spans)))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
