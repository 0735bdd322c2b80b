"""Per-layer metrics and the "where the wall clock went" table, from spans.

Pure functions over the records traced.py writes.  A layer's self time
is its spans' duration minus the part their child spans cover, so the
self times of one process's spans add up to its root spans' duration.
Times are summed over the driver and every pool worker.  The comment
above each group of PER_LAYER names the end-to-end metric the group
should move, and on which workload.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from workloads import PROTOCOLS

#: Every per-layer metric, in report order, with its unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    # setup_s everywhere; wall_s on ci-suite; rerun_s on fig3-parallel-cache
    ("import.busy_s", "s"),
    ("import.theory_s", "s"),
    # wall_s on ci-suite
    ("experiments.busy_s", "s"),
    ("experiments.render_s", "s"),
    ("experiments.cells", "count"),
    # wall_s on ci-suite; rerun_s on fig3-parallel-cache
    ("core.results.analysis_s", "s"),
    # rerun_s on fig3-parallel-cache
    ("runtime.spec.fingerprint_s", "s"),
    ("runtime.spec.fingerprints", "count"),
    # wall_s on fig3-parallel-cache; on fig2-serial and ci-suite too once
    # their flagless path goes through the runner
    ("core.results.merge_s", "s"),
    ("core.results.merge_parts", "count"),
    ("runtime.runner.busy_s", "s"),
    ("runtime.sharding.shards", "count"),
    ("runtime.sharding.trials_per_shard", "count"),
    ("runtime.executor.dispatch_s", "s"),
    ("runtime.executor.tasks", "count"),
    ("runtime.executor.worker_busy_s", "s"),
    ("runtime.executor.parallel_efficiency", "fraction"),
    ("runtime.executor.retries", "count"),
    ("runtime.executor.failed_tasks", "count"),
    # wall_s and output_mb on fig3-parallel-cache
    ("runtime.cache.put_s", "s"),
    ("runtime.cache.puts", "count"),
    ("sim.persistence.save_s", "s"),
    # rerun_s on fig3-parallel-cache
    ("runtime.cache.get_s", "s"),
    ("runtime.cache.hits", "count"),
    ("runtime.cache.hit_ratio", "fraction"),
    ("runtime.integrity.verify_s", "s"),
    ("sim.persistence.load_s", "s"),
    # wall_s on fig3-parallel-cache (mostly C-PoS) and fig2-serial
    ("sim.engine.busy_s", "s"),
    ("sim.kernels.calls", "count"),
    *(
        (f"sim.kernels.{protocol}.{metric}", unit)
        for protocol in PROTOCOLS
        for metric, unit in (
            ("busy_s", "s"), ("trial_rounds", "count"), ("ns_per_trial_round", "ns")
        )
    ),
    # wall_s on fig2-serial
    ("chainsim.busy_s", "s"),
    ("chainsim.runs", "count"),
    *((f"chainsim.{protocol}.busy_s", "s") for protocol in PROTOCOLS),
    # the traced run as a whole
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "fraction"),
)

#: Span name -> the metric that sums its self time.  The root ``cli``
#: span's self time is what no layer claims.
_SELF_TIME = {
    "experiments": "experiments.busy_s",
    "experiments.render": "experiments.render_s",
    "core.results.analysis": "core.results.analysis_s",
    "core.results.merge": "core.results.merge_s",
    "runtime.runner": "runtime.runner.busy_s",
    "runtime.spec.fingerprint": "runtime.spec.fingerprint_s",
    "runtime.executor.dispatch": "runtime.executor.dispatch_s",
    "runtime.cache.put": "runtime.cache.put_s",
    "sim.persistence.save": "sim.persistence.save_s",
    "runtime.cache.get": "runtime.cache.get_s",
    "runtime.integrity.verify": "runtime.integrity.verify_s",
    "sim.persistence.load": "sim.persistence.load_s",
    "sim.engine": "sim.engine.busy_s",
    "chainsim": "chainsim.busy_s",
    "cli": "trace.unattributed_s",
}

#: Layer -> the metric that reads zero exactly when the layer never ran.
#: The layers a workload skips are the "no change" predictions.
LAYER_CALLS = {
    "experiments.grid": "experiments.cells",
    "core.results.analysis": "core.results.analysis_s",
    "core.results.merge": "core.results.merge_parts",
    "runtime.runner": "runtime.runner.busy_s",
    "runtime.spec": "runtime.spec.fingerprints",
    "runtime.sharding": "runtime.sharding.shards",
    "runtime.executor": "runtime.executor.tasks",
    "runtime.cache.write": "runtime.cache.puts",
    "runtime.cache.read": "runtime.cache.get_s",
    "sim": "sim.kernels.calls",
    "chainsim": "chainsim.runs",
}

Record = list


def load_spans(directory: Path) -> Dict[int, List[Record]]:
    """Records by process id, from every ``spans-<pid>.jsonl`` file."""
    by_pid: Dict[int, List[Record]] = {}
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        pid = int(path.stem.split("-", 1)[1])
        with open(path) as handle:
            by_pid[pid] = [json.loads(line) for line in handle if line.strip()]
    return by_pid


def self_times(records: List[Record]) -> List[Tuple[Record, float]]:
    """Each span of one process with its self time."""
    covered: Dict[int, float] = defaultdict(float)
    for kind, _, start, end, _, parent, _ in records:
        if kind == "s":
            covered[parent] += end - start
    return [
        (record, record[3] - record[2] - covered[record[4]])
        for record in records
        if record[0] == "s"
    ]


def layer_metrics(
    by_pid: Dict[int, List[Record]],
    probe: dict,
    untraced_main_s: float,
) -> Dict[str, float]:
    """Every PER_LAYER metric from one traced pass.

    ``probe`` holds the fresh-interpreter import timings (``import_s``,
    ``theory_s``); ``untraced_main_s`` is the untraced median of the
    same invocations' ``main`` time, the base of the overhead ratio.
    """
    values = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    counts: Dict[str, int] = defaultdict(int)
    shard_trials = capacity = 0.0
    for records in by_pid.values():
        for record, own in self_times(records):
            _, name, start, end, _, _, attrs = record
            counts[name] += 1
            if name in _SELF_TIME:
                values[_SELF_TIME[name]] += own
            if name == "sim.kernels":
                protocol = attrs["protocol"]
                values[f"sim.kernels.{protocol}.busy_s"] += own
                values[f"sim.kernels.{protocol}.trial_rounds"] += attrs["trial_rounds"]
            elif name == "chainsim":
                values[f"chainsim.{attrs['protocol']}.busy_s"] += own
            elif name == "core.results.merge":
                values["core.results.merge_parts"] += attrs["parts"]
            elif name == "runtime.cache.get":
                values["runtime.cache.hits"] += attrs["hit"]
            elif name == "runtime.executor.task":
                values["runtime.executor.worker_busy_s"] += end - start
            elif name == "cli":
                values["trace.wall_s"] += end - start
        for kind, name, start, end, _, _, attrs in records:
            if kind == "e":
                counts[name] += 1
                if name == "experiments.grid":
                    values["experiments.cells"] += attrs["cells"]
                elif name == "runtime.sharding.plan":
                    values["runtime.sharding.shards"] += attrs["shards"]
                    shard_trials += attrs["trials"]
            elif kind == "i":
                values["runtime.executor.tasks"] += attrs["tasks"]
                values["runtime.executor.failed_tasks"] += attrs["failed"]
                capacity += (end - start) * attrs["workers"]
    values["import.busy_s"] = probe["import_s"]
    values["import.theory_s"] = probe["theory_s"]
    values["runtime.spec.fingerprints"] = counts["runtime.spec.fingerprint"]
    values["runtime.executor.retries"] = counts["runtime.executor.retry"]
    values["runtime.cache.puts"] = counts["runtime.cache.put"]
    values["sim.kernels.calls"] = counts["sim.kernels"]
    values["chainsim.runs"] = counts["chainsim"]
    values["runtime.sharding.trials_per_shard"] = _ratio(
        shard_trials, values["runtime.sharding.shards"]
    )
    values["runtime.executor.parallel_efficiency"] = _ratio(
        values["runtime.executor.worker_busy_s"], capacity
    )
    values["runtime.cache.hit_ratio"] = _ratio(
        values["runtime.cache.hits"], counts["runtime.cache.get"]
    )
    for protocol in PROTOCOLS:
        values[f"sim.kernels.{protocol}.ns_per_trial_round"] = _ratio(
            values[f"sim.kernels.{protocol}.busy_s"] * 1e9,
            values[f"sim.kernels.{protocol}.trial_rounds"],
        )
    values["trace.overhead_frac"] = _ratio(values["trace.wall_s"], untraced_main_s) - 1.0
    return values


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def skipped_layers(values: Dict[str, float]) -> List[str]:
    """Layers whose call metric reads zero: the workload never ran them."""
    return [layer for layer, metric in LAYER_CALLS.items() if not values[metric]]


def _row(record: Record) -> str:
    if record[1] == "cli":
        return "trace.unattributed"
    protocol = record[6].get("protocol")
    return f"{record[1]}[{protocol}]" if protocol else record[1]


def wall_clock(by_pid: Dict[int, List[Record]], driver_pid: int) -> dict:
    """Where the traced wall time went.

    ``parent`` rows are the driver's self times by layer, plus the root
    spans' own time as ``trace.unattributed``; they sum to ``wall_s``.
    ``workers`` rows are the same for every pool worker, summed.
    ``invocations`` gives each invocation's wall time and cache traffic.
    """
    sides: Dict[str, Dict[str, float]] = {"parent": defaultdict(float),
                                          "workers": defaultdict(float)}
    for pid, records in by_pid.items():
        side = sides["parent" if pid == driver_pid else "workers"]
        for record, own in self_times(records):
            side[_row(record)] += own
    driver = by_pid.get(driver_pid, [])
    parents = {record[4]: record[5] for record in driver}
    roots = {record[4]: record for record in driver if record[1] == "cli"}
    invocations = {
        root[6]["label"]: {"wall_s": root[3] - root[2], "cache_puts": 0, "cache_hits": 0}
        for root in roots.values()
    }
    for record in driver:
        if record[1] not in ("runtime.cache.put", "runtime.cache.get"):
            continue
        ident = record[4]
        while ident not in roots and parents.get(ident):
            ident = parents[ident]
        if ident in roots:
            entry = invocations[roots[ident][6]["label"]]
            if record[1] == "runtime.cache.put":
                entry["cache_puts"] += 1
            else:
                entry["cache_hits"] += int(record[6]["hit"])
    return {
        "wall_s": sum(entry["wall_s"] for entry in invocations.values()),
        "parent": sorted(sides["parent"].items(), key=lambda row: -row[1]),
        "workers": sorted(sides["workers"].items(), key=lambda row: -row[1]),
        "invocations": invocations,
    }


def render_table(table: dict, values: Dict[str, float]) -> str:
    wall = table["wall_s"] or float("nan")  # no spans: the traced run failed
    lines = [f"where the wall clock went: traced wall {wall:.3f} s"]
    lines.append(f"  {'parent-side self time':<40}{'s':>10}{'share':>9}")
    for name, seconds in table["parent"]:
        lines.append(f"  {name:<40}{seconds:>10.3f}{seconds / wall:>9.1%}")
    total = sum(seconds for _, seconds in table["parent"])
    lines.append(f"  {'total':<40}{total:>10.3f}{total / wall:>9.1%}")
    if table["workers"]:
        lines.append(
            f"  {'worker-side self time':<40}{'s':>10}   "
            f"(busy {values['runtime.executor.worker_busy_s']:.3f} s, parallel "
            f"efficiency {values['runtime.executor.parallel_efficiency']:.3f})"
        )
        for name, seconds in table["workers"]:
            lines.append(f"  {name:<40}{seconds:>10.3f}")
    for label, entry in table["invocations"].items():
        lines.append(
            f"  invocation {label}: {entry['wall_s']:.3f} s, cache puts "
            f"{entry['cache_puts']}, cache hits {entry['cache_hits']}"
        )
    return "\n".join(lines)
