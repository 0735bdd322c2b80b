"""Self-tests of the benchmark; not part of the repository's test suite.

Run from the repository root::

    python3 perfbench/selftest.py            # contract, gate and attribution (seconds)
    python3 perfbench/selftest.py --traced   # also run every workload traced (about a minute)

The traced tests run each workload's pass under traced.py at the
default seed and check that every wrapper fires on the workload meant
to exercise its layer, that skipped layers read zero calls, and that
the wall-clock table sums to the traced wall time.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import statistics
import sys
import time
import unittest

import gate
import layers
import run
from workloads import DEFAULT_SEED, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
TRACED = "--traced" in sys.argv

#: The layers each workload never runs today (layers.LAYER_CALLS).
SKIPPED = {
    "fig2-serial": {
        "core.results.merge", "runtime.runner", "runtime.spec",
        "runtime.sharding", "runtime.executor", "runtime.cache.write",
        "runtime.cache.read",
    },
    "fig3-parallel-cache": {"chainsim"},
    "ci-suite": {
        "core.results.merge", "runtime.runner", "runtime.spec",
        "runtime.sharding", "runtime.executor", "runtime.cache.write",
        "runtime.cache.read", "chainsim",
    },
}


class ContractTest(unittest.TestCase):
    def setUp(self):
        with open(run.HERE.parent / "BENCHMARK.json") as handle:
            self.spec = json.load(handle)

    def test_metric_names_are_valid_and_unique(self):
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_metric_counts_fit_the_contract(self):
        self.assertLessEqual(len(self.spec["end_to_end"]), 16)
        self.assertLessEqual(len(self.spec["per_layer"]), 128)

    def test_benchmark_json_matches_what_run_prints(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.spec["per_layer"]], list(layers.PER_LAYER)
        )
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))

    def test_setup_s_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


class GateTest(unittest.TestCase):
    reference = gate.load_reference()

    def outputs(self):
        for key, tree in self.reference["outputs"].items():
            workload, experiment = key.split("/")
            preset = next(i.preset for i in WORKLOADS[workload] if i.experiment == experiment)
            yield experiment, preset, tree

    def test_every_field_has_a_rule(self):
        for experiment, _, tree in self.outputs():
            for path, value in gate.walk(tree):
                if value is not None:
                    self.assertNotEqual(gate.classify(experiment, path), "unknown", path)

    def test_reference_passes_itself(self):
        for experiment, preset, tree in self.outputs():
            data = json.dumps(tree).encode()
            self.assertEqual(gate.check(experiment, preset, data, tree), [], experiment)

    def test_rejects_perturbed_outputs(self):
        def shift(series, delta):
            series[-1] += delta

        cases = [
            # a kernel that moves C-PoS's mean reward fraction
            ("fig2-serial/fig2", "default",
             lambda t: shift(t["simulation"]["C-PoS"]["mean"], 0.05)),
            # an ML-PoS envelope that narrowed
            ("fig2-serial/fig2", "default",
             lambda t: shift(t["simulation"]["ML-PoS"]["p95"], -0.07)),
            # unfair probabilities that moved
            ("fig3-parallel-cache/fig3", "default",
             lambda t: shift(t["series"]["C-PoS|0.2"], 0.1)),
            # a missing series
            ("fig3-parallel-cache/fig3", "default", lambda t: t["series"].pop("PoW|0.1")),
            # a theory curve that moved
            ("ci-suite/fig1", "ci", lambda t: shift(t["drift"], 1e-6)),
        ]
        for key, preset, change in cases:
            reference = self.reference["outputs"][key]
            tree = copy.deepcopy(reference)
            change(tree)
            with self.subTest(key=key, change=change):
                experiment = key.split("/")[1]
                data = json.dumps(tree).encode()
                self.assertNotEqual(gate.check(experiment, preset, data, reference), [])
        problems = gate.check("fig3", "default", b"{not json", {"series": {}})
        self.assertTrue(problems[0].startswith("unparsable JSON"))


class SummaryTest(unittest.TestCase):
    @staticmethod
    def result(wall, setup, rss=100.0, cache=0):
        return {"wall_s": wall, "setup_s": setup, "main_s": wall - setup,
                "rss_mb": rss, "json": b"{}", "cache_bytes": cache}

    def test_fig3_medians(self):
        # cold, warm1, warm2 per pass; one pass slowed down across the board
        mb = 10**6
        passes = [
            [self.result(9.0, 1.0, cache=mb), self.result(1.5, 1.1, cache=mb),
             self.result(1.4, 1.2, cache=mb)],
            [self.result(8.0, 1.3, cache=mb), self.result(1.3, 1.0, cache=mb),
             self.result(1.6, 1.1, cache=mb)],
            [self.result(20.0, 2.0, rss=200.0, cache=mb), self.result(3.0, 2.5, cache=mb),
             self.result(3.1, 2.6, cache=mb)],
        ]
        values = run.summarize("fig3-parallel-cache", passes)
        self.assertEqual(values["wall_s"], 9.0)
        self.assertEqual(values["rerun_s"], statistics.median([1.5, 1.4, 1.3, 1.6, 3.0, 3.1]))
        # nine timed set-ups, three invocations a pass
        self.assertAlmostEqual(values["setup_s"], 3 * 1.2)
        self.assertEqual(values["peak_rss_mb"], 100.0)
        self.assertEqual(values["cache_mb"], 1.0)
        self.assertEqual(values["output_mb"], 1.000006)

    def test_cacheless_rerun_is_the_wall_time(self):
        passes = [[self.result(wall, 1.0)] for wall in (11.0, 10.0, 12.5)]
        values = run.summarize("fig2-serial", passes)
        self.assertEqual(values["wall_s"], 11.0)
        self.assertEqual(values["rerun_s"], 11.0)
        self.assertEqual(values["cache_mb"], 0.0)


class SpawnTest(unittest.TestCase):
    def test_timeout_kills_and_reaps_the_whole_group(self):
        run.adopt_orphans()
        directory = run.WORK / f"selftest-spawn-{os.getpid()}"
        # A process that forks a child; both would sleep for a minute.
        code = "import os, time\nprint(os.getpid(), flush=True)\nos.fork()\ntime.sleep(60)\n"
        start = time.perf_counter()
        result = run.spawn([sys.executable, "-c", code], directory, run.child_env(), 1.0)
        self.assertLess(time.perf_counter() - start, 10.0)
        self.assertTrue(result["timed_out"])
        pgid = int((directory / "stdout.log").read_text().split()[0])
        shutil.rmtree(directory)
        with self.assertRaises(ProcessLookupError):
            os.killpg(pgid, 0)


class AttributionTest(unittest.TestCase):
    # cli [0, 10] > experiments [1, 9] > sim.engine [2, 8] > sim.kernels [3, 7],
    # plus an event and a detached interval, which take no time.
    RECORDS = [
        ["s", "sim.kernels", 3.0, 7.0, 4, 3, {"protocol": "C-PoS", "trial_rounds": 40}],
        ["s", "sim.engine", 2.0, 8.0, 3, 2, {}],
        ["e", "experiments.grid", 2.5, 2.5, 5, 2, {"cells": 4}],
        ["i", "runtime.executor.stream", 1.0, 9.0, 6, -1,
         {"tasks": 0, "failed": 0, "workers": 1}],
        ["s", "experiments", 1.0, 9.0, 2, 1, {}],
        ["s", "cli", 0.0, 10.0, 1, 0, {"label": "x"}],
    ]

    def test_self_times_sum_to_the_root(self):
        own = {record[1]: seconds for record, seconds in layers.self_times(self.RECORDS)}
        self.assertEqual(own, {"sim.kernels": 4.0, "sim.engine": 2.0,
                               "experiments": 2.0, "cli": 2.0})
        table = layers.wall_clock({1: self.RECORDS}, 1)
        self.assertEqual(table["wall_s"], 10.0)
        self.assertAlmostEqual(sum(seconds for _, seconds in table["parent"]), 10.0)

    def test_layer_metrics(self):
        probe = {"import_s": 1.0, "theory_s": 0.5}
        values = layers.layer_metrics({1: self.RECORDS}, probe, 8.0)
        self.assertEqual(values["sim.kernels.C-PoS.ns_per_trial_round"], 4.0 / 40 * 1e9)
        self.assertEqual(values["experiments.cells"], 4)
        self.assertEqual(values["trace.unattributed_s"], 2.0)
        self.assertEqual(values["trace.overhead_frac"], 10.0 / 8.0 - 1.0)
        self.assertEqual(set(values), {name for name, _ in layers.PER_LAYER})


@unittest.skipUnless(TRACED, "pass --traced to run each workload traced")
class WrapperTest(unittest.TestCase):
    def traced(self, workload):
        directory = run.WORK / f"selftest-{workload}-{os.getpid()}"
        shutil.rmtree(directory, ignore_errors=True)
        traced = run.run_traced(workload, DEFAULT_SEED, directory, run.child_env())
        self.assertTrue(all(e["rc"] == 0 for e in traced["outcome"]["invocations"]))
        values = layers.layer_metrics(traced["by_pid"], {"import_s": 1, "theory_s": 1}, 1.0)
        table = layers.wall_clock(traced["by_pid"], traced["outcome"]["driver_pid"])
        shutil.rmtree(directory)
        self.assertAlmostEqual(sum(s for _, s in table["parent"]), table["wall_s"], places=6)
        self.assertEqual(set(layers.skipped_layers(values)), SKIPPED[workload])
        return values, table

    def test_fig2_serial_runs_chainsim_in_process(self):
        values, _ = self.traced("fig2-serial")
        for protocol in ("PoW", "ML-PoS", "SL-PoS", "C-PoS"):
            self.assertGreater(values[f"chainsim.{protocol}.busy_s"], 0)
            self.assertGreater(values[f"sim.kernels.{protocol}.trial_rounds"], 0)
        self.assertGreater(values["experiments.render_s"], 0)

    def test_fig3_parallel_cache_exercises_the_runtime(self):
        values, table = self.traced("fig3-parallel-cache")
        self.assertGreater(values["sim.kernels.C-PoS.busy_s"], 0)
        self.assertGreater(values["runtime.executor.dispatch_s"], 0)
        self.assertGreater(values["core.results.merge_parts"], 0)
        self.assertGreater(values["runtime.integrity.verify_s"], 0)
        self.assertGreater(values["sim.persistence.save_s"], 0)
        self.assertGreater(values["sim.persistence.load_s"], 0)
        self.assertEqual(table["invocations"]["fig3-cold"]["cache_puts"], 20)
        self.assertEqual(table["invocations"]["fig3-cold"]["cache_hits"], 0)
        for invocation in WORKLOADS["fig3-parallel-cache"][1:]:
            self.assertTrue(invocation.warm)
            self.assertEqual(table["invocations"][invocation.label]["cache_hits"], 20)
            self.assertEqual(table["invocations"][invocation.label]["cache_puts"], 0)

    def test_ci_suite_runs_every_experiment(self):
        values, table = self.traced("ci-suite")
        self.assertEqual(set(table["invocations"]), set(workload_labels("ci-suite")))
        self.assertGreater(values["sim.kernels.other.trial_rounds"], 0)
        self.assertGreater(values["core.results.analysis_s"], 0)

    def test_import_probe_sees_the_theory_package(self):
        directory = run.WORK / f"selftest-probe-{os.getpid()}"
        probe = run.python_probe(directory, run.child_env(), importtime=True)
        shutil.rmtree(directory)
        self.assertGreater(probe["theory_s"], 0)
        self.assertGreater(probe["import_s"], probe["theory_s"] * 0.5)


def workload_labels(workload):
    return [invocation.label for invocation in WORKLOADS[workload]]


if __name__ == "__main__":
    if TRACED:
        sys.argv.remove("--traced")
    unittest.main()
