"""The benchmark's workloads: which CLI invocations one pass runs.

A pass is the unit the benchmark repeats and times.  Every invocation
in it is one ``repro-experiments`` command line.  ``warm`` marks an
invocation that re-runs the last cold one against the result cache
that one filled; ``rerun_s`` times those instead of ``wall_s``.  A
warm rerun is mostly interpreter start and import, whose single
samples vary by up to a third on a shared host, so each cold run is
followed by WARM_RERUNS of them.  BENCHMARK.json records why each
workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

#: The paper's four protocols; kernel and chainsim time of any other
#: protocol is reported under "other".
PROTOCOLS = ("PoW", "ML-PoS", "SL-PoS", "C-PoS", "other")

#: The experiments' own seed, and the one the reference was recorded at.
DEFAULT_SEED = 2021

CI_EXPERIMENTS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "tab1", "sec64")


@dataclass(frozen=True)
class Invocation:
    """One CLI run of a pass."""

    label: str  # unique within the pass; names its output directory
    experiment: str
    preset: str
    flags: Tuple[str, ...] = ()  # "{cache}" stands for the pass's cache dir
    warm: bool = False

    def argv(self, seed: int, json_dir: Path, cache: Path) -> List[str]:
        flags = [flag.replace("{cache}", str(cache)) for flag in self.flags]
        return [self.experiment, "--preset", self.preset, *flags,
                "--seed", str(seed), "--json", str(json_dir)]


_FIG3_FLAGS = ("--workers", "2", "--cache", "{cache}")
WARM_RERUNS = 2

WORKLOADS = {
    "fig2-serial": (Invocation("fig2", "fig2", "default"),),
    "fig3-parallel-cache": (
        Invocation("fig3-cold", "fig3", "default", _FIG3_FLAGS),
        *(
            Invocation(f"fig3-warm{k}", "fig3", "default", _FIG3_FLAGS, warm=True)
            for k in range(1, WARM_RERUNS + 1)
        ),
    ),
    "ci-suite": tuple(Invocation(key, key, "ci") for key in CI_EXPERIMENTS),
}
