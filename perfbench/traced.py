"""Traced driver: one pass of a workload, in-process, with per-layer spans.

    python3 perfbench/traced.py PLAN.json

``run.py`` writes PLAN (the span directory, the result path, and each
invocation's label and argv) and starts this driver.  It is the only
part of the benchmark that imports the program.  It imports
``repro.experiments.runner``, wraps each layer's entry points under the
names their callers look them up by, and calls ``main(argv)`` once per
invocation inside a root ``cli`` span.  Spans stay in memory and are
written as JSON lines at the end.  Pool workers are forked, so they
inherit the wrappers; each appends its spans to a file of its own after
every shard task.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time
import traceback

from workloads import PROTOCOLS

#: Node classes of the chainsim networks, by the protocol they run.
_NODE_PROTOCOLS = {
    "PoWNode": "PoW",
    "MLPoSNode": "ML-PoS",
    "SLPoSNode": "SL-PoS",
    "CPoSValidator": "C-PoS",
}


class Recorder:
    """The spans of one process.

    A record is ``[kind, name, start, end, id, parent, attrs]``.  Kind
    ``s`` is a span; ``e`` is a zero-length event that only counts
    something; ``i`` is an interval outside the span tree, which is
    never anyone's child.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.driver_pid = os.getpid()
        self.records: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # A pool worker starts empty: the parent's spans stay the parent's.
        self.records = []
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def innermost(self):
        stack = self._stack()
        return stack[-1][1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        ident = next(self._ids)
        stack.append((ident, name))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.records.append(["s", name, start, end, ident, parent, attrs])

    def event(self, name: str, **attrs) -> None:
        stack = self._stack()
        now = time.perf_counter()
        parent = stack[-1][0] if stack else 0
        self.records.append(["e", name, now, now, next(self._ids), parent, attrs])

    def interval(self, name: str, start: float, end: float, **attrs) -> None:
        self.records.append(["i", name, start, end, next(self._ids), -1, attrs])

    def flush(self) -> None:
        """Append this process's records to its own file, then drop them."""
        path = os.path.join(self.directory, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")
        self.records = []


def _spanned(rec: Recorder, name: str, original, **attrs):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with rec.span(name, **attrs):
            return original(*args, **kwargs)

    return wrapper


def _counted(rec: Recorder, name: str, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        rec.event(name)
        return original(*args, **kwargs)

    return wrapper


def _replace_everywhere(original, wrapper) -> None:
    """Rebind ``original`` to ``wrapper`` in every repro module holding it."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _grid(rec: Recorder, original):
    @functools.wraps(original)
    def grid(cells, *args, **kwargs):
        cells = list(cells)
        rec.event("experiments.grid", cells=len(cells))
        return original(cells, *args, **kwargs)

    return grid


def _merge_parts(rec: Recorder, original):
    @functools.wraps(original)
    def merge_parts(parts):
        parts = list(parts)
        with rec.span("core.results.merge", parts=len(parts)):
            return original(parts)

    return merge_parts


def _plan_shards(rec: Recorder, original):
    @functools.wraps(original)
    def plan_shards(*args, **kwargs):
        plan = original(*args, **kwargs)
        rec.event("runtime.sharding.plan", shards=len(plan), trials=plan.total)
        return plan

    return plan_shards


def _stream(rec: Recorder, original):
    @functools.wraps(original)
    def stream(self, fn, tasks, **kwargs):
        if rec.innermost() == "runtime.executor.dispatch":
            # A backend handing its tasks to another backend's stream
            # (a pool with one task left, say): already being timed.
            yield from original(self, fn, tasks, **kwargs)
            return
        tasks = list(tasks)
        items = original(self, fn, tasks, **kwargs)
        start = time.perf_counter()
        failed = 0
        try:
            while True:
                # One span per next(): the wait for one completion, not
                # the merges and cache writes the caller does between
                # completions.
                with rec.span("runtime.executor.dispatch"):
                    item = next(items, None)
                if item is None:
                    break
                failed += not item[1]
                yield item
        finally:
            items.close()
            rec.interval(
                "runtime.executor.stream", start, time.perf_counter(),
                tasks=len(tasks), failed=failed,
                workers=max(1, min(self.workers, len(tasks))),
            )

    return stream


def _shard_task(rec: Recorder, original):
    # functools.wraps keeps the module and qualified name, so the task
    # still pickles by reference and resolves to this wrapper in workers.
    @functools.wraps(original)
    def task(payload):
        try:
            with rec.span("runtime.executor.task"):
                return original(payload)
        finally:
            if os.getpid() != rec.driver_pid:
                rec.flush()

    return task


def _cache_get(rec: Recorder, original):
    @functools.wraps(original)
    def get(self, key):
        with rec.span("runtime.cache.get") as attrs:
            result = original(self, key)
            attrs["hit"] = result is not None
        return result

    return get


def _verify(rec: Recorder, original):
    @functools.wraps(original)
    def artifact_digest(path):
        # Only a read verifies; a put hashes what it just wrote, and
        # that time stays the put's own.
        if rec.innermost() != "runtime.cache.get":
            return original(path)
        with rec.span("runtime.integrity.verify"):
            return original(path)

    return artifact_digest


def _kernel(rec: Recorder, original):
    @functools.wraps(original)
    def batched_advance(protocol, state, rounds, rng, **kwargs):
        name = protocol.name if protocol.name in PROTOCOLS else "other"
        with rec.span("sim.kernels", protocol=name,
                      trial_rounds=state.trials * rounds):
            return original(protocol, state, rounds, rng, **kwargs)

    return batched_advance


def _chainsim_run(rec: Recorder, original, protocol=None):
    @functools.wraps(original)
    def run(self, *args, **kwargs):
        name = protocol or _NODE_PROTOCOLS.get(type(self.nodes[0]).__name__, "other")
        with rec.span("chainsim", protocol=name):
            return original(self, *args, **kwargs)

    return run


class _TracedJson:
    """The runner's ``json`` module, with ``dump`` (the figure JSON write) spanned."""

    def __init__(self, rec: Recorder) -> None:
        self.dump = _spanned(rec, "experiments.render", json.dump)

    def __getattr__(self, name):
        return getattr(json, name)


def install(rec: Recorder) -> None:
    """Wrap every layer's entry points (see the module docstring)."""
    from repro.chainsim import network
    from repro.core import metrics, results
    from repro.experiments import _common, registry
    from repro.experiments import runner as cli
    from repro.runtime import cache, executor, runner, sharding, spec
    from repro.sim import engine

    # experiments: the figure's own code, its grid sizes, and rendering.
    experiment = registry.Experiment
    experiment.run_with_preset = _spanned(rec, "experiments", experiment.run_with_preset)
    for grid in (_common.run_simulation_grid, _common.run_system_grid):
        _replace_everywhere(grid, _grid(rec, grid))
    modules = {sys.modules[entry.run.__module__] for entry in registry.EXPERIMENTS.values()}
    for module in modules:
        for cls in list(vars(module).values()):
            if not (isinstance(cls, type) and cls.__module__ == module.__name__):
                continue
            for method in ("render", "to_dict"):
                if method in vars(cls):
                    setattr(cls, method, _spanned(rec, "experiments.render", vars(cls)[method]))
    cli.json = _TracedJson(rec)

    # core.results: analysis of merged ensembles, and the merge itself.
    for method in ("summary", "unfair_probabilities", "final_fractions", "convergence_time"):
        original = getattr(results.EnsembleResult, method)
        setattr(results.EnsembleResult, method,
                _spanned(rec, "core.results.analysis", original))
    _replace_everywhere(
        metrics.convergence_time,
        _spanned(rec, "core.results.analysis", metrics.convergence_time),
    )
    accumulator = results.MergeAccumulator
    accumulator.add = _spanned(rec, "core.results.merge", accumulator.add, parts=1)
    accumulator.result = _spanned(rec, "core.results.merge", accumulator.result, parts=0)
    _replace_everywhere(results.merge_parts, _merge_parts(rec, results.merge_parts))

    # runtime: runner, spec fingerprints, shard plans, executors, cache.
    for method in ("run_many", "run_system_many"):
        original = getattr(runner.ParallelRunner, method)
        setattr(runner.ParallelRunner, method, _spanned(rec, "runtime.runner", original))
    _replace_everywhere(
        spec.spec_fingerprint,
        _spanned(rec, "runtime.spec.fingerprint", spec.spec_fingerprint),
    )
    _replace_everywhere(sharding.plan_shards, _plan_shards(rec, sharding.plan_shards))
    for cls in list(vars(executor).values()):
        if isinstance(cls, type) and issubclass(cls, executor.Executor) and "stream" in vars(cls):
            cls.stream = _stream(rec, vars(cls)["stream"])
    executor.Executor._note_retry = _counted(
        rec, "runtime.executor.retry", executor.Executor._note_retry
    )
    for name in ("_run_simulation_shard", "_run_system_shard"):
        setattr(runner, name, _shard_task(rec, getattr(runner, name)))
    store = cache.ResultCache
    store.get = _cache_get(rec, store.get)
    store.put = _spanned(rec, "runtime.cache.put", store.put)
    cache.save_result = _spanned(rec, "sim.persistence.save", cache.save_result)
    cache.load_result = _spanned(rec, "sim.persistence.load", cache.load_result)
    cache.artifact_digest = _verify(rec, cache.artifact_digest)

    # sim and chainsim: the engine, the kernels, the node-level networks.
    engine.MonteCarloEngine.run = _spanned(rec, "sim.engine", engine.MonteCarloEngine.run)
    engine.batched_advance = _kernel(rec, engine.batched_advance)
    network.TickMiningNetwork.run = _chainsim_run(rec, network.TickMiningNetwork.run)
    network.DeadlineMiningNetwork.run = _chainsim_run(rec, network.DeadlineMiningNetwork.run)
    network.CPoSNetwork.run = _chainsim_run(rec, network.CPoSNetwork.run, "C-PoS")


def _exit_code(code) -> int:
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


def main(plan_path: str) -> int:
    with open(plan_path) as handle:
        plan = json.load(handle)
    rec = Recorder(plan["spans"])
    from repro.experiments import runner as cli

    install(rec)
    outcomes = []
    for invocation in plan["invocations"]:
        with rec.span("cli", label=invocation["label"]):
            try:
                code = _exit_code(cli.main(invocation["argv"]))
            except SystemExit as stop:
                code = _exit_code(stop.code)
            except Exception:  # noqa: BLE001 - reported as a failed invocation
                traceback.print_exc()
                code = 1
        outcomes.append({"label": invocation["label"], "rc": code})
    rec.flush()
    with open(plan["result"], "w") as handle:
        json.dump({"driver_pid": os.getpid(), "invocations": outcomes}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
