"""End-of-run telemetry reporting and the ``repro-trace`` CLI.

:func:`summarize_spans` turns a span list into the numbers the paper's
perf story cares about: per-task wall time, queue wait (submit →
worker start) and merge lag (worker complete → handed to its specs'
folds) percentiles, cache hit/miss/eviction traffic, and the
kernel-vs-naive time split, also per protocol and miner count.
:func:`render_summary` prints it as an aligned table; ``repro-trace
summarize PATH`` does both from a trace file, and ``--check`` validates
the JSONL schema (the CI trace-smoke step runs exactly that).
:func:`metric_counters` reads the same records as the ``--metrics``
counter table, which :func:`render_metrics` prints.

Task phases are joined on the ``task`` attribute: the runner stamps
``shard.submit`` / ``shard.complete`` / ``shard.merge`` events and the
worker stamps its ``shard.run`` span with the same task index, so the
report can line them up even though worker spans carry a different
pid.  Task indices restart at 0 in every dispatch, so the join key is
``(dispatch, task)``, where the dispatch is the latest ``runner.*``
root span that started at or before the phase.  Queue wait, merge lag
and that dispatch lookup use wall-clock ``ts`` across processes —
coarser than the monotonic in-process durations, but the only clock
processes share.
"""

from __future__ import annotations

import argparse
import bisect
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .trace import TRACE_SCHEMA, read_trace, validate_trace

__all__ = [
    "main",
    "metric_counters",
    "percentile",
    "render_cache_stats",
    "render_metrics",
    "render_summary",
    "summarize_spans",
]

_PERCENTILES = (0.5, 0.9, 0.99)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile by linear interpolation (numpy 'linear')."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def _phase_stats(values: List[float]) -> dict:
    return {
        "count": len(values),
        "total": sum(values),
        "p50": percentile(values, 0.5),
        "p90": percentile(values, 0.9),
        "p99": percentile(values, 0.99),
        "max": max(values),
    }


def summarize_spans(spans: Sequence[dict]) -> dict:
    """Aggregate a span list into the end-of-run summary structure.

    Returns a dict with (present only when the trace has the relevant
    spans): ``runs`` (root dispatch spans), ``tasks`` (wall/queue
    wait/merge lag stats of the executor's tasks, each of which may
    run several shards), ``cache`` (hit/miss/eviction/put counts and
    bytes), ``kernel`` (batched vs naive time split), ``kernel_miners``
    (kernel time per protocol and miner count, from the spans that
    carry ``miners``) and ``chainsim`` (fast vs naive network time
    split).
    """
    by_name: Dict[str, List[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    summary: dict = {"spans": len(spans)}

    roots = [s for s in spans if s["name"].startswith("runner.")]
    if roots:
        summary["runs"] = [
            {
                "name": s["name"],
                "dur": s["dur"],
                "attrs": s["attrs"],
            }
            for s in roots
        ]

    # -- task phase join on (dispatch, attrs["task"]) --------------------
    starts = sorted(s["ts"] for s in roots)

    def phase(name: str) -> Dict[Tuple[int, object], dict]:
        return {
            (bisect.bisect_right(starts, s["ts"]), s["attrs"].get("task")): s
            for s in by_name.get(name, ())
        }

    submits = phase("shard.submit")
    runs = phase("shard.run")
    completes = phase("shard.complete")
    merges = phase("shard.merge")

    walls = [s["dur"] for s in runs.values()]
    queue_waits = [
        runs[key]["ts"] - submits[key]["ts"]
        for key in runs
        if key in submits
    ]
    merge_lags = [
        merges[key]["ts"] - (runs[key]["ts"] + runs[key]["dur"])
        for key in merges
        if key in runs
    ]
    tasks: dict = {}
    if walls:
        tasks["wall"] = _phase_stats(walls)
    if queue_waits:
        # Cross-process wall-clock deltas can go slightly negative
        # under clock skew; clamp rather than report nonsense.
        tasks["queue_wait"] = _phase_stats([max(0.0, w) for w in queue_waits])
    if merge_lags:
        tasks["merge_lag"] = _phase_stats([max(0.0, w) for w in merge_lags])
    retries = by_name.get("shard.retry", ())
    if submits or completes:
        # The task-keyed dicts above collapse repeat attempts of one
        # task, so retried tasks never double-count in submitted /
        # completed; retries are tallied separately from their events.
        tasks["submitted"] = len(submits)
        tasks["completed"] = len(completes)
        tasks["failed"] = sum(
            1 for s in completes.values() if not s["attrs"].get("ok", True)
        )
        tasks["retries"] = len(retries)
    if tasks:
        summary["tasks"] = tasks

    # -- cache ------------------------------------------------------------
    gets = by_name.get("cache.get", ())
    puts = by_name.get("cache.put", ())
    if gets or puts or any(
        name in by_name
        for name in ("cache.evict", "cache.quarantine", "cache.degraded")
    ):
        # Counted exactly as the --metrics table counts them.
        counts = metric_counters(spans)
        summary["cache"] = {
            "gets": len(gets),
            **{
                key: counts.get(f"cache.{key}", 0)
                for key in ("hits", "misses", "puts", "put_bytes",
                            "evictions", "evicted_bytes", "quarantined",
                            "quarantined_bytes")
            },
            "degraded": "cache.degraded" in counts,
            "get_seconds": sum(s["dur"] for s in gets),
            "put_seconds": sum(s["dur"] for s in puts),
        }

    # -- kernel split -----------------------------------------------------
    kernel_spans = by_name.get("kernel.advance", ())
    if kernel_spans:
        split: Dict[str, dict] = {}
        # The same time per (protocol, miner count), e.g. one row per
        # Table 1 cell; miner counts are string keys, as in --json.
        by_miners: Dict[str, Dict[str, dict]] = {}
        for span in kernel_spans:
            attrs = span["attrs"]
            entry = split.setdefault(
                attrs.get("mode", "unknown"),
                {"calls": 0, "rounds": 0, "seconds": 0.0},
            )
            entry["calls"] += 1
            entry["rounds"] += attrs.get("rounds", 0)
            entry["seconds"] += span["dur"]
            if "miners" in attrs:
                cell = by_miners.setdefault(
                    attrs.get("protocol", "unknown"), {}
                ).setdefault(
                    str(attrs["miners"]),
                    {"calls": 0, "trial_rounds": 0, "seconds": 0.0},
                )
                cell["calls"] += 1
                cell["trial_rounds"] += (
                    attrs.get("rounds", 0) * attrs.get("trials", 0)
                )
                cell["seconds"] += span["dur"]
        summary["kernel"] = split
        if by_miners:
            summary["kernel_miners"] = by_miners

    # -- chainsim split ---------------------------------------------------
    chain_spans = by_name.get("chainsim.run", ())
    if chain_spans:
        split = {}
        for span in chain_spans:
            mode = "fast" if span["attrs"].get("fast") else "naive"
            entry = split.setdefault(
                mode, {"calls": 0, "rounds": 0, "seconds": 0.0}
            )
            entry["calls"] += 1
            entry["rounds"] += span["attrs"].get("rounds", 0)
            entry["seconds"] += span["dur"]
        summary["chainsim"] = split

    return summary


#: ``--metrics`` rows that count one record each: record name -> row.
_COUNTED = {
    "shard.retry": "executor.retries",
    "pool.degraded": "executor.degraded",
    "pool.respawn": "executor.respawns",
    "cache.evict": "cache.evictions",
    "cache.quarantine": "cache.quarantined",
    "cache.degraded": "cache.degraded",
    "cache.sum_adopted": "cache.sums_adopted",
    "cache.put_skipped": "cache.puts_skipped_degraded",
    "cache.io_error": "cache.io_errors",
}

#: ``--metrics`` rows that sum an attribute over the records that carry
#: it: record name -> ((attribute, row), ...).  Both dispatch root spans
#: carry their dispatch's spec and shard counts.
_DISPATCH_SUMS = (
    ("specs", "runner.specs"), ("shards", "runner.shards_dispatched"),
)
_SUMMED = {
    "runner.run_many": _DISPATCH_SUMS,
    "runner.run_system_many": _DISPATCH_SUMS,
    "shards.retried": (("shards", "runner.shards_retried"),),
    "shards.resumed": (("shards", "runner.shards_resumed"),),
    "shards.failed": (("shards", "runner.shards_failed"),),
    "cache.put": (("bytes", "cache.put_bytes"),),
    "cache.evict": (("bytes", "cache.evicted_bytes"),),
    "cache.quarantine": (("bytes", "cache.quarantined_bytes"),),
}


def metric_counters(spans: Sequence[dict]) -> Dict[str, int]:
    """The ``--metrics`` counter table, computed from recorded spans.

    Each row counts one kind of record, or sums one attribute over the
    records that carry it, and appears once such a record exists: a
    dispatch with nothing left to run still prints
    ``runner.shards_dispatched 0``.  Four kinds of record are read by
    an attribute instead: a ``cache.get``'s ``hit`` splits hits from
    misses, a ``cache.put`` that carries ``bytes`` stored an artifact,
    a ``shard.complete`` with ``timeout`` is a task past its deadline,
    and a ``storage.os_error`` names its ``<component>.os_errors.<op>``
    row.  A run's tracer holds its workers' records too, so the table
    covers the whole run.
    """
    counters: Dict[str, int] = {}

    def add(row: str, amount: int = 1) -> None:
        counters[row] = counters.get(row, 0) + amount

    for span in spans:
        name, attrs = span["name"], span["attrs"]
        if name in _COUNTED:
            add(_COUNTED[name])
        for attr, row in _SUMMED.get(name, ()):
            if attr in attrs:
                add(row, attrs[attr])
        if name == "cache.get" and "hit" in attrs:
            add("cache.hits" if attrs["hit"] else "cache.misses")
        elif name == "cache.put" and "bytes" in attrs:
            add("cache.puts")
        elif name == "shard.complete" and attrs.get("timeout"):
            add("executor.timeouts")
        elif name == "storage.os_error":
            add(f"{attrs['component']}.os_errors.{attrs['op']}")
    return counters


# -- rendering ----------------------------------------------------------------


def _seconds(value: float) -> str:
    if value < 0.001:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def _bytes(value: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.1f}GiB"


def _rows_to_table(rows: List[Tuple[str, ...]], indent: str = "  ") -> str:
    widths = [
        max(len(row[column]) for row in rows)
        for column in range(len(rows[0]))
    ]
    lines = []
    for row in rows:
        cells = [cell.ljust(width) for cell, width in zip(row, widths)]
        lines.append(indent + "  ".join(cells).rstrip())
    return "\n".join(lines)


def render_summary(summary: dict) -> str:
    """Render :func:`summarize_spans` output as an aligned text table."""
    lines: List[str] = [f"trace summary ({summary.get('spans', 0)} spans)"]

    for run in summary.get("runs", ()):
        attrs = run["attrs"]
        detail = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        lines.append(
            f"  {run['name']}: {_seconds(run['dur'])}"
            + (f" ({detail})" if detail else "")
        )

    tasks = summary.get("tasks")
    if tasks:
        lines.append("tasks")
        if "submitted" in tasks:
            lines.append(
                f"  submitted={tasks['submitted']} "
                f"completed={tasks['completed']} failed={tasks['failed']} "
                f"retries={tasks.get('retries', 0)}"
            )
        rows = [("phase", "count", "p50", "p90", "p99", "max", "total")]
        for phase in ("wall", "queue_wait", "merge_lag"):
            stats = tasks.get(phase)
            if stats:
                rows.append((
                    phase,
                    str(stats["count"]),
                    _seconds(stats["p50"]),
                    _seconds(stats["p90"]),
                    _seconds(stats["p99"]),
                    _seconds(stats["max"]),
                    _seconds(stats["total"]),
                ))
        if len(rows) > 1:
            lines.append(_rows_to_table(rows))

    cache = summary.get("cache")
    if cache:
        lines.append("cache")
        lines.append(
            f"  gets={cache['gets']} hits={cache['hits']} "
            f"misses={cache['misses']} puts={cache['puts']} "
            f"evictions={cache['evictions']}"
        )
        lines.append(
            f"  put={_bytes(cache['put_bytes'])} "
            f"evicted={_bytes(cache['evicted_bytes'])} "
            f"get_time={_seconds(cache['get_seconds'])} "
            f"put_time={_seconds(cache['put_seconds'])}"
        )
        if cache.get("quarantined"):
            lines.append(
                f"  quarantined={cache['quarantined']} "
                f"({_bytes(cache.get('quarantined_bytes', 0))}) "
                f"-- run repro-fsck on the cache directory"
            )
        if cache.get("degraded"):
            lines.append(
                "  DEGRADED: cache went pass-through after ENOSPC"
            )

    for section in ("kernel", "chainsim"):
        split = summary.get(section)
        if split:
            lines.append(section)
            rows = [("mode", "calls", "rounds", "time")]
            for mode in sorted(split):
                entry = split[mode]
                rows.append((
                    mode,
                    str(entry["calls"]),
                    str(entry["rounds"]),
                    _seconds(entry["seconds"]),
                ))
            lines.append(_rows_to_table(rows))

    by_miners = summary.get("kernel_miners")
    if by_miners:
        lines.append("kernel by miners")
        rows = [("protocol", "miners", "calls", "time", "ns/trial-round")]
        for protocol in sorted(by_miners):
            for miners in sorted(by_miners[protocol], key=int):
                entry = by_miners[protocol][miners]
                per_round = (
                    f"{entry['seconds'] * 1e9 / entry['trial_rounds']:.0f}"
                    if entry["trial_rounds"]
                    else "-"
                )
                rows.append((
                    protocol,
                    miners,
                    str(entry["calls"]),
                    _seconds(entry["seconds"]),
                    per_round,
                ))
        lines.append(_rows_to_table(rows))

    return "\n".join(lines)


def render_metrics(counters: Dict[str, int]) -> str:
    """Render a :func:`metric_counters` table as aligned text."""
    if not counters:
        return "metrics\n  (empty)"
    rows = [(name, str(counters[name])) for name in sorted(counters)]
    return "metrics\n" + _rows_to_table([("counter", "value")] + rows)


def render_cache_stats(stats: dict) -> str:
    """Render what a cache directory holds, from :meth:`ResultCache.stats`.

    Only the directory's entries and bytes (and a configured budget):
    the hit, miss and eviction counts of the run that filled it live in
    that run's ``--metrics`` table, not on disk.
    """
    rows = [("stat", "value"), ("entries", str(stats["entries"])),
            ("bytes", _bytes(stats["bytes"]))]
    if stats.get("max_bytes") is not None:
        rows.append(("max_bytes", _bytes(stats["max_bytes"])))
    return "cache stats\n" + _rows_to_table(rows)


# -- CLI ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Inspect repro runtime trace files.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    summarize = commands.add_parser(
        "summarize",
        help=f"summarize a {TRACE_SCHEMA} JSONL trace file",
    )
    summarize.add_argument("path", help="trace file written by --trace")
    summarize.add_argument(
        "--check",
        action="store_true",
        help="validate the JSONL schema and exit non-zero on violations",
    )
    summarize.add_argument(
        "--json",
        action="store_true",
        help="emit the summary as JSON instead of a table",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "summarize":
        errors = validate_trace(args.path)
        if errors:
            for error in errors:
                print(f"{args.path}: {error}", file=sys.stderr)
            print(
                f"{args.path}: INVALID ({len(errors)} schema "
                f"violation{'s' if len(errors) != 1 else ''})",
                file=sys.stderr,
            )
            return 1
        header, spans = read_trace(args.path)
        if args.check:
            print(
                f"{args.path}: OK ({header.get('schema')}, "
                f"{len(spans)} spans)"
            )
            return 0
        summary = summarize_spans(spans)
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(render_summary(summary))
        return 0
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
