"""Start-up cost: the figures never load scipy.

Every figure and table is a Monte Carlo run; only the analytic Polya
and binomial limit laws in :mod:`repro.theory.polya` (and the quadrature
cross-check of the SL-PoS win law) need scipy, which would otherwise
dominate the import time of every CLI invocation.  The check runs in a
fresh interpreter so modules loaded by other tests cannot hide an
eager import.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent.parent

PROBE = """
import contextlib, io, json, sys
from repro.experiments.runner import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["all", "--preset", "ci"])
after_figures = "scipy" in sys.modules
import repro.theory
repro.theory.pow_fair_probability(0.2, 100, 0.1)
print(json.dumps({"code": code, "after_figures": after_figures,
                  "after_theory": "scipy" in sys.modules}))
"""


def test_figures_run_without_scipy(tmp_path):
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["code"] == 0
    assert not report["after_figures"], "running every figure imported scipy"
    assert report["after_theory"], "the Polya laws no longer load scipy"
