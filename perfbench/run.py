"""End-to-end benchmark of the figure CLI, plus a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py                      # all workloads, untraced then traced
    python3 perfbench/run.py --workload fig3-parallel-cache --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --record-reference   # rewrite perfbench/reference.json

One process drives the real CLI closed-loop: one invocation at a time,
each in a fresh interpreter running ``repro.experiments.runner.main``
through launch.py, never more than 2 worker processes.  After one
untimed import that fills the bytecode cache, it repeats the workload's
pass (workloads.py) while another pass still fits in ``--seconds``, at
least MIN_PASSES times.  Each end-to-end metric is a median:

  wall_s       launch to exit: each cold invocation's median over the
               passes, summed over the pass
  setup_s      interpreter start through ``import
               repro.experiments.runner``: the median over every
               invocation of the run, since all import the same module,
               times the pass's invocation count
  rerun_s      the median warm rerun; a workload without a cache leaves
               nothing to warm, so every pass is a rerun of the one
               before and rerun_s is its wall_s
  peak_rss_mb  the largest resident set of a CLI process or its pool
               workers, in 10^6 bytes; median over the passes
  output_mb    bytes a pass leaves on disk, figure JSON plus result
               cache artifacts, in 10^6 bytes; median over the passes

It also prints cache_mb (artifact bytes after the cold run, exact) and
error_rate.  error_rate is 0 on a healthy commit, so it cannot be a
metric with a relative bound; the result line carries it as
``failed``/``attempted``.  An invocation fails if it exits non-zero,
times out, or fails the correctness gate: its JSON must match gate.py's
reference, be byte-identical across the passes of one seed, and a warm
rerun's must be byte-identical to the cold run's.

With ``--trace 1`` the pass runs once more, in-process under
traced.py's wrappers, and the result line carries the per-layer
metrics (layers.py) instead of the end-to-end ones.  The import probe
times ``import repro.experiments.runner`` in a fresh interpreter, since
the traced driver has imported it already.  Records with provenance go
to ``.perfbench/records/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import gate
import layers
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench"

#: The end-to-end metrics every workload reports, with their units.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("rerun_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
)

# A pass of any workload takes 10-12 s on a 2-vCPU machine, so the
# default --seconds gives three passes there.  A host slower by a fifth
# gets two: a run keeps its length rather than its sample count.
MIN_PASSES = 2
DEFAULT_SECONDS = 40
# About four times the slowest invocation on a 2-vCPU machine.
INVOCATION_TIMEOUT_S = 50.0
# A run ends within the 180 s it is allowed even if the program hangs:
# no invocation outlives this many seconds after the untimed set-up.
RUN_LIMIT_S = 165.0
PR_SET_CHILD_SUBREAPER = 36

PROBE = (
    "import json, sys, time\n"
    "start = time.perf_counter()\n"
    "import repro.experiments.runner\n"
    "took = time.perf_counter() - start\n"
    "import numpy, repro\n"
    "print(json.dumps({'import_s': took, 'repro': repro.__version__,\n"
    "    'numpy': numpy.__version__, 'python': sys.version.split()[0]}))\n"
)


def child_env() -> dict:
    """The environment of every process the benchmark starts."""
    # Bytecode is cached, as in any installed package, but under
    # .perfbench so the source tree stays clean.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def adopt_orphans() -> None:
    """Make this process the reaper of its descendants' orphans.

    A CLI that crashes or is killed can leave pool workers behind; as
    the subreaper the benchmark inherits and waits for them.  Linux
    only; elsewhere a killed group's workers go to init instead.
    """
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: List[str], log_dir: Path, env: dict, timeout: float) -> dict:
    """Run ``argv`` to exit: wall time, exit code, peak RSS of its tree.

    The process leads its own session.  A timeout kills the session's
    process group, and whatever of the group outlives the process
    (pool workers of a crashed CLI) is killed and reaped too.
    ``os.wait4`` reports the largest resident set of the process and of
    every descendant it waited for.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    killed = threading.Event()

    def kill(pid: int) -> None:
        killed.set()
        _kill_group(pid)

    with open(log_dir / "stdout.log", "wb") as out, open(log_dir / "stderr.log", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(max(timeout, 0.0), kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)
    while True:
        try:
            os.waitpid(-proc.pid, 0)
        except ChildProcessError:
            break
    return {
        "start": start,
        "wall_s": end - start,
        "rc": proc.returncode,
        "timed_out": killed.is_set(),
        "rss_mb": usage.ru_maxrss * 1024 / 1e6,
    }


def time_left(deadline: float) -> float:
    """An invocation's timeout: its own limit, cut to the run's."""
    return min(INVOCATION_TIMEOUT_S, deadline - time.perf_counter())


def run_cli(argv: List[str], log_dir: Path, env: dict, deadline: float) -> dict:
    stamp = log_dir / "stamp.json"
    result = spawn([sys.executable, str(HERE / "launch.py"), str(stamp), *argv],
                   log_dir, env, time_left(deadline))
    try:
        marks = json.loads(stamp.read_text())
        result["setup_s"] = marks["imported"] - result["start"]
        result["main_s"] = marks["done"] - marks["imported"]
    except (OSError, ValueError, KeyError):
        result["setup_s"] = result["main_s"] = None
    return result


def _read(path: Path) -> Optional[bytes]:
    try:
        return path.read_bytes()
    except OSError:
        return None


def _artifact_bytes(cache: Path) -> int:
    return sum(path.stat().st_size for path in cache.glob("*.npz")) if cache.is_dir() else 0


def run_pass(workload: str, seed: int, directory: Path, env: dict, deadline: float) -> List[dict]:
    cache = directory / "cache"
    results = []
    for invocation in WORKLOADS[workload]:
        out = directory / invocation.label
        result = run_cli(invocation.argv(seed, out, cache), out, env, deadline)
        result["json"] = _read(out / f"{invocation.experiment}.json")
        result["cache_bytes"] = _artifact_bytes(cache)
        results.append(result)
    return results


def samples(workload: str, passes: List[List[dict]]) -> Dict[str, List[float]]:
    """Each end-to-end metric's samples, on the metric's own scale.

    wall_s has one per pass (the pass's cold invocations summed);
    setup_s one per invocation, scaled to the pass's invocation count,
    since every invocation imports the same module; rerun_s one per
    warm rerun.
    """
    invocations = WORKLOADS[workload]
    cold = [i for i, inv in enumerate(invocations) if not inv.warm]
    warm = [i for i, inv in enumerate(invocations) if inv.warm]
    walls = [sum(results[i]["wall_s"] for i in cold) for results in passes]
    return {
        "wall_s": walls,
        "setup_s": [len(invocations) * r["setup_s"] for results in passes for r in results
                    if r["setup_s"] is not None],
        "rerun_s": [results[i]["wall_s"] for results in passes for i in warm] or walls,
        "peak_rss_mb": [max(r["rss_mb"] for r in results) for results in passes],
        "output_mb": [
            (sum(len(r["json"] or b"") for r in results) + results[-1]["cache_bytes"]) / 1e6
            for results in passes
        ],
        "cache_mb": [results[cold[-1]]["cache_bytes"] / 1e6 for results in passes],
    }


def summarize(workload: str, passes: List[List[dict]]) -> Dict[str, float]:
    """The metrics of a run: medians of samples().

    wall_s is the sum of each cold invocation's median over the passes
    rather than the median pass, so a burst of load on a shared machine
    that slows one invocation of one pass does not move it.  main_s,
    the time inside ``main``, is the base of the traced run's overhead.
    """
    invocations = WORKLOADS[workload]
    values = {name: statistics.median(series) if series else 0.0
              for name, series in samples(workload, passes).items()}

    def per_invocation(key: str, indices) -> float:
        return sum(statistics.median(results[i][key] or 0.0 for results in passes)
                   for i in indices)

    values["wall_s"] = per_invocation(
        "wall_s", [i for i, inv in enumerate(invocations) if not inv.warm])
    if not any(inv.warm for inv in invocations):
        values["rerun_s"] = values["wall_s"]
    values["main_s"] = per_invocation("main_s", range(len(invocations)))
    return values


def check_passes(workload: str, passes: List[List[dict]], reference: dict) -> List[List[str]]:
    """Problems of every invocation of every pass, in pass order."""
    invocations = WORKLOADS[workload]
    first = passes[0]
    verdicts = []
    for k, results in enumerate(passes):
        cold = None
        for i, (invocation, result) in enumerate(zip(invocations, results)):
            problems = []
            if result["timed_out"]:
                problems.append("timed out")
            elif result["rc"] != 0:
                problems.append(f"exit code {result['rc']}")
            data = result["json"]
            if not invocation.warm:
                cold = data
            if data is None:
                problems.append("wrote no JSON")
            elif k and data != first[i]["json"]:
                problems.append("JSON differs from pass 1's at the same seed")
            elif invocation.warm:
                if data != cold:
                    problems.append("warm rerun's JSON differs from the cold run's")
            elif k == 0:
                expected = reference["outputs"][f"{workload}/{invocation.experiment}"]
                problems += gate.check(invocation.experiment, invocation.preset, data, expected)
            verdicts.append([f"pass {k + 1} {invocation.label}: {p}" for p in problems])
    return verdicts


def run_traced(workload: str, seed: int, directory: Path, env: dict,
               deadline: Optional[float] = None) -> dict:
    """One traced pass in traced.py; its spans and outputs."""
    spans = directory / "spans"
    spans.mkdir(parents=True)
    cache = directory / "cache"
    plan = {
        "spans": str(spans),
        "result": str(directory / "traced.json"),
        "invocations": [
            {"label": inv.label, "argv": inv.argv(seed, directory / inv.label, cache)}
            for inv in WORKLOADS[workload]
        ],
    }
    (directory / "plan.json").write_text(json.dumps(plan))
    if deadline is None:
        deadline = time.perf_counter() + INVOCATION_TIMEOUT_S
    proc = spawn([sys.executable, str(HERE / "traced.py"), str(directory / "plan.json")],
                 directory, env, time_left(deadline))
    try:
        outcome = json.loads((directory / "traced.json").read_text())
    except (OSError, ValueError):
        outcome = {"driver_pid": None, "invocations": []}
    return {
        "proc": proc,
        "outcome": outcome,
        "by_pid": layers.load_spans(spans),
        "json": {
            inv.label: _read(directory / inv.label / f"{inv.experiment}.json")
            for inv in WORKLOADS[workload]
        },
    }


def check_traced(traced: dict, first_pass: List[dict], workload: str) -> List[List[str]]:
    """Traced invocations must succeed and write the untraced bytes."""
    rcs = {entry["label"]: entry["rc"] for entry in traced["outcome"]["invocations"]}
    verdicts = []
    for invocation, untraced in zip(WORKLOADS[workload], first_pass):
        problems = []
        if traced["proc"]["timed_out"]:
            problems.append("traced run timed out")
        if rcs.get(invocation.label) != 0:
            problems.append(f"traced exit code {rcs.get(invocation.label)}")
        if traced["json"][invocation.label] != untraced["json"]:
            problems.append("traced JSON differs from the untraced run's")
        verdicts.append([f"traced {invocation.label}: {p}" for p in problems])
    return verdicts


def python_probe(directory: Path, env: dict, importtime: bool) -> dict:
    """Import the CLI module in a fresh interpreter: timing and versions.

    With ``importtime``, also read ``repro.theory``'s cumulative row
    from ``python -X importtime``.
    """
    flags = ["-X", "importtime"] if importtime else []
    proc = spawn([sys.executable, *flags, "-c", PROBE], directory, env, 120.0)
    if proc["rc"] != 0:
        raise RuntimeError(f"importing repro.experiments.runner failed; see {directory}")
    info = json.loads((directory / "stdout.log").read_text().strip().splitlines()[-1])
    theory_us = 0
    for line in (directory / "stderr.log").read_text().splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "repro.theory":
            theory_us = int(fields[1])
    info["theory_s"] = theory_us / 1e6
    return info


def git_sha() -> str:
    """HEAD of the checkout, read from .git; "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def tail_percentile(values: List[float]):
    """The highest percentile with at least ten samples beyond it."""
    if len(values) <= 10:
        return None
    ordered = sorted(values)
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def measure(workload: str, seed: int, seconds: float, trace: bool, env: dict,
            reference: dict) -> dict:
    """Run one workload as the contract asks; its full record."""
    directory = WORK / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    # Fills the bytecode cache before anything is timed; users do not
    # pay that on every run.
    versions = python_probe(directory / "warmup", env, importtime=False)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    passes: List[List[dict]] = []
    while True:
        pass_dir = directory / f"pass{len(passes) + 1}"
        results = run_pass(workload, seed, pass_dir, env, deadline)
        passes.append(results)
        if all(r["rc"] == 0 for r in results):
            shutil.rmtree(pass_dir)
        now = time.perf_counter()
        # Start another pass only if an average one still ends in time.
        next_end = now + (now - start) / len(passes)
        if (len(passes) >= MIN_PASSES and next_end > start + seconds) or now > deadline:
            break
    verdicts = check_passes(workload, passes, reference)
    values = summarize(workload, passes)
    record = {
        "provenance": {
            "git_sha": git_sha(),
            "repro_version": versions["repro"],
            "python": versions["python"],
            "numpy": versions["numpy"],
            "nproc": nproc(),
            "argv": sys.argv,
            "seed": seed,
        },
        "workload": workload,
        "passes": len(passes),
        "samples": samples(workload, passes),
        "end_to_end": {name: values[name] for name, _ in END_TO_END},
        "cache_mb": values["cache_mb"],
    }
    if trace:
        probe = python_probe(directory / "probe", env, importtime=True)
        traced = run_traced(workload, seed, directory / "traced", env, deadline)
        verdicts += check_traced(traced, passes[0], workload)
        driver = traced["outcome"]["driver_pid"]
        metrics = layers.layer_metrics(traced["by_pid"], probe, values["main_s"])
        record["per_layer"] = metrics
        record["skipped_layers"] = layers.skipped_layers(metrics)
        record["table"] = layers.wall_clock(traced["by_pid"], driver)
        if traced["proc"]["rc"] == 0:
            shutil.rmtree(directory / "traced")
    problems = [p for verdict in verdicts for p in verdict]
    record["attempted"] = len(verdicts)
    record["failed"] = sum(1 for verdict in verdicts if verdict)
    record["problems"] = problems
    if not problems:
        shutil.rmtree(directory, ignore_errors=True)
    return record


def report(record: dict) -> str:
    """The human-readable report of one workload's record."""
    lines = [
        f"== {record['workload']}: {record['passes']} passes, "
        f"{record['attempted']} invocations, {record['failed']} failed",
        f"  {'metric':<14}{'median':>12}  {'unit':<8}{'n':>3}  tail",
    ]
    units = dict(END_TO_END)
    for name, value in record["end_to_end"].items():
        values = record["samples"][name]
        tail = tail_percentile(values)
        shown = f"p{tail[0]:.0f} {tail[1]:.4f}" if tail else "- (needs more than 10 samples)"
        lines.append(f"  {name:<14}{value:>12.4f}  {units[name]:<8}{len(values):>3}  {shown}")
    lines.append(f"  {'cache_mb':<14}{record['cache_mb']:>12.4f}  {'MB':<8}"
                 f"{record['passes']:>3}  (artifact bytes after the cold run)")
    rate = record["failed"] / record["attempted"]
    lines.append(f"  {'error_rate':<14}{rate:>12.4f}  {'fraction':<8}"
                 f"     ({record['failed']} of {record['attempted']} invocations)")
    for problem in record["problems"][:20]:
        lines.append(f"  FAIL {problem}")
    lines.append("  provenance " + json.dumps(record["provenance"], sort_keys=True))
    if "per_layer" in record:
        units = dict(layers.PER_LAYER)
        lines.append("  per-layer (traced run)")
        for name, value in record["per_layer"].items():
            lines.append(f"    {name:<42}{value:>16.6f}  {units[name]}")
        lines.append("  skipped layers: " + (", ".join(record["skipped_layers"]) or "none"))
        lines.append(layers.render_table(record["table"], record["per_layer"]))
    return "\n".join(lines)


def metrics_line(record: dict, trace: bool, prefix: str = "") -> Dict[str, dict]:
    spec = layers.PER_LAYER if trace else END_TO_END
    values = record["per_layer"] if trace else record["end_to_end"]
    return {prefix + name: {"value": float(values[name]), "unit": unit} for name, unit in spec}


def record_reference(env: dict) -> int:
    """Rewrite reference.json from one pass of every workload at the default seed."""
    outputs = {}
    for workload, invocations in WORKLOADS.items():
        directory = WORK / f"reference-{workload}"
        shutil.rmtree(directory, ignore_errors=True)
        deadline = time.perf_counter() + RUN_LIMIT_S
        results = run_pass(workload, DEFAULT_SEED, directory, env, deadline)
        for invocation, result in zip(invocations, results):
            if result["rc"] != 0 or result["json"] is None:
                print(f"perfbench: {workload}/{invocation.label} failed; see {directory}",
                      file=sys.stderr)
                return 1
            tree = json.loads(result["json"])
            unknown = [path for path, value in gate.walk(tree) if value is not None
                       and gate.classify(invocation.experiment, path) == "unknown"]
            if unknown:
                print(f"perfbench: no gate rule for {invocation.experiment} {unknown[0]}",
                      file=sys.stderr)
                return 1
            outputs.setdefault(f"{workload}/{invocation.experiment}", tree)
        shutil.rmtree(directory)
    gate.REFERENCE.write_text(
        json.dumps({"seed": DEFAULT_SEED, "outputs": outputs}, separators=(",", ":")) + "\n"
    )
    print(f"wrote {gate.REFERENCE}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: also run traced and report per-layer metrics "
                        "(default: 1 for all workloads, 0 for one)")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "experiments" / "runner.py").is_file():
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    adopt_orphans()
    env = child_env()
    if args.record_reference:
        return record_reference(env)
    reference = gate.load_reference()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace if args.trace is not None else args.workload == "all")
    records = []
    for name in names:
        record = measure(name, args.seed, args.seconds, trace, env, reference)
        print(report(record), flush=True)
        records.append(record)
    (WORK / "records").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{int(trace)}"
    (WORK / "records" / f"{stem}.json").write_text(json.dumps(records, indent=1))
    failed = sum(record["failed"] for record in records)
    if len(records) == 1:
        metrics = metrics_line(records[0], trace)
    else:
        metrics = {}
        for record in records:
            metrics.update(metrics_line(record, False, record["workload"] + "."))
            if trace:
                metrics.update(metrics_line(record, True, record["workload"] + "."))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(record["attempted"] for record in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
