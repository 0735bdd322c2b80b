"""End-of-run telemetry reporting and the ``repro-trace`` CLI.

:func:`summarize_spans` turns a span list into the numbers the paper's
perf story cares about: per-shard wall time, queue wait (submit →
worker start) and merge lag (worker complete → folded into the
accumulator) percentiles, cache hit/miss/eviction traffic, and the
kernel-vs-naive time split.  :func:`render_summary` prints it as an
aligned table; ``repro-trace summarize PATH`` does both from a trace
file, and ``--check`` validates the JSONL schema (the CI trace-smoke
step runs exactly that).

Shard phases are joined on the ``task`` attribute: the runner stamps
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
    spans): ``runs`` (root dispatch spans), ``shards`` (wall/queue
    wait/merge lag stats), ``cache`` (hit/miss/eviction/put counts and
    bytes), ``kernel`` (batched vs naive time split) and ``chainsim``
    (fast vs naive network time split).
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

    # -- shard phase join on (dispatch, attrs["task"]) -------------------
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
    shards: dict = {}
    if walls:
        shards["wall"] = _phase_stats(walls)
    if queue_waits:
        # Cross-process wall-clock deltas can go slightly negative
        # under clock skew; clamp rather than report nonsense.
        shards["queue_wait"] = _phase_stats([max(0.0, w) for w in queue_waits])
    if merge_lags:
        shards["merge_lag"] = _phase_stats([max(0.0, w) for w in merge_lags])
    retries = by_name.get("shard.retry", ())
    if submits or completes:
        # The task-keyed dicts above collapse repeat attempts of one
        # shard, so retried shards never double-count in submitted /
        # completed; retries are tallied separately from their events.
        shards["submitted"] = len(submits)
        shards["completed"] = len(completes)
        shards["failed"] = sum(
            1 for s in completes.values() if not s["attrs"].get("ok", True)
        )
        shards["retries"] = len(retries)
    if shards:
        summary["shards"] = shards

    # -- cache ------------------------------------------------------------
    gets = by_name.get("cache.get", ())
    puts = by_name.get("cache.put", ())
    evictions = by_name.get("cache.evict", ())
    quarantines = by_name.get("cache.quarantine", ())
    degradations = by_name.get("cache.degraded", ())
    if gets or puts or evictions or quarantines or degradations:
        hits = [s for s in gets if s["attrs"].get("hit")]
        summary["cache"] = {
            "gets": len(gets),
            "hits": len(hits),
            "misses": len(gets) - len(hits),
            "puts": len(puts),
            "put_bytes": sum(s["attrs"].get("bytes", 0) for s in puts),
            "evictions": len(evictions),
            "evicted_bytes": sum(
                s["attrs"].get("bytes", 0) for s in evictions
            ),
            "quarantined": len(quarantines),
            "quarantined_bytes": sum(
                s["attrs"].get("bytes", 0) for s in quarantines
            ),
            "degraded": bool(degradations),
            "get_seconds": sum(s["dur"] for s in gets),
            "put_seconds": sum(s["dur"] for s in puts),
        }

    # -- kernel split -----------------------------------------------------
    kernel_spans = by_name.get("kernel.advance", ())
    if kernel_spans:
        split: Dict[str, dict] = {}
        for span in kernel_spans:
            mode = span["attrs"].get("mode", "unknown")
            entry = split.setdefault(
                mode, {"calls": 0, "rounds": 0, "seconds": 0.0}
            )
            entry["calls"] += 1
            entry["rounds"] += span["attrs"].get("rounds", 0)
            entry["seconds"] += span["dur"]
        summary["kernel"] = split

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

    shards = summary.get("shards")
    if shards:
        lines.append("shards")
        if "submitted" in shards:
            lines.append(
                f"  submitted={shards['submitted']} "
                f"completed={shards['completed']} failed={shards['failed']} "
                f"retries={shards.get('retries', 0)}"
            )
        rows = [("phase", "count", "p50", "p90", "p99", "max", "total")]
        for phase in ("wall", "queue_wait", "merge_lag"):
            stats = shards.get(phase)
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

    return "\n".join(lines)


def render_metrics(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as aligned text."""
    from .metrics import histogram_quantile

    lines: List[str] = ["metrics"]
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    if counters:
        rows = [
            (name, str(counters[name])) for name in sorted(counters)
        ]
        lines.append(_rows_to_table([("counter", "value")] + rows))
    if gauges:
        rows = [(name, str(gauges[name])) for name in sorted(gauges)]
        lines.append(_rows_to_table([("gauge", "value")] + rows))
    if histograms:
        rows = [("histogram", "count", "p50", "p99", "sum")]
        for name in sorted(histograms):
            state = histograms[name]
            p50 = histogram_quantile(state, 0.5)
            p99 = histogram_quantile(state, 0.99)
            rows.append((
                name,
                str(state["count"]),
                "-" if p50 is None else _seconds(p50),
                "-" if p99 is None else _seconds(p99),
                _seconds(state["sum"]),
            ))
        lines.append(_rows_to_table(rows))
    if len(lines) == 1:
        lines.append("  (empty)")
    return "\n".join(lines)


def render_cache_stats(stats: dict) -> str:
    """Render :meth:`ResultCache.stats` output as aligned text."""
    rows = [("stat", "value")]
    for key in ("entries", "hits", "misses", "evictions", "quarantined",
                "io_errors"):
        if key in stats:
            rows.append((key, str(stats[key])))
    if "bytes" in stats:
        rows.append(("bytes", _bytes(stats["bytes"])))
    if stats.get("max_bytes") is not None:
        rows.append(("max_bytes", _bytes(stats["max_bytes"])))
    if stats.get("degraded"):
        rows.append(("degraded", "yes (pass-through after ENOSPC)"))
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
