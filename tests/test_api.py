"""Tests of the top-level public API surface."""

import pathlib
import subprocess
import sys

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestPublicSurface:
    def test_version(self):
        """setup.py reads its version from ``repro.__version__``."""
        completed = subprocess.run(
            [sys.executable, "setup.py", "--version"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert completed.stdout.strip().splitlines()[-1] == repro.__version__

    def test_subpackages_exposed(self):
        for name in ("core", "protocols", "sim", "theory", "analysis", "runtime"):
            assert hasattr(repro, name)

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_exports_resolve(self):
        import repro.analysis
        import repro.chainsim
        import repro.core
        import repro.experiments
        import repro.protocols
        import repro.sim
        import repro.theory

        for module in (
            repro.core,
            repro.protocols,
            repro.sim,
            repro.theory,
            repro.analysis,
            repro.chainsim,
            repro.experiments,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestDocstringExample:
    def test_module_docstring_example_runs(self):
        game = repro.MiningGame(
            repro.protocols.ProofOfWork(reward=0.01),
            repro.Allocation.two_miners(0.2),
        )
        report = game.play(horizon=2000, trials=500, seed=42)
        assert report.robust.is_fair

    def test_simulate_shortcut(self):
        result = repro.simulate(
            repro.protocols.MultiLotteryPoS(0.01),
            repro.Allocation.two_miners(0.2),
            horizon=100,
            trials=50,
            seed=1,
        )
        assert isinstance(result, repro.EnsembleResult)


class TestExamplesCompile:
    """The example scripts must at least parse and compile."""

    @pytest.mark.parametrize(
        "script",
        [
            "quickstart.py",
            "rich_get_richer.py",
            "protocol_design.py",
            "chainsim_demo.py",
            "multi_miner.py",
            "fairness_audit.py",
        ],
    )
    def test_example_compiles(self, script):
        path = ROOT / "examples" / script
        source = path.read_text()
        compile(source, str(path), "exec")
        assert '"""' in source  # every example carries a doc header
