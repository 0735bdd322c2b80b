"""Correctness gate for the figure JSON the CLI writes.

Each output is compared with the reference recorded with the benchmark
(reference.json: one output per workload and experiment at seed 2021,
written by ``run.py --record-reference``).  Grid values (checkpoints,
shares) and fig1's theory curves must match the reference exactly.
Fields that are not Monte Carlo estimates (convergence times, verdict
flags) only have to be present; run.py's byte-identity checks still
cover them.  Every Monte Carlo value must lie within a tolerance of the
reference that follows from the n trials behind it, so another seed or
a re-pinned stream layout passes while a broken kernel does not:

  mean         Z * s * sqrt(2/n), where s bounds the standard deviation
               of a value in [0, 1] with mean m: sqrt(m(1-m)), or, when
               the series gives its 5%/95% quantiles, the deviation if
               90% of the mass sat at the farther of p5 and p95 and 5%
               at each far end of [0, 1], whichever is smaller.
  probability  Z * sqrt(p(1-p)) * sqrt(2/n), the binomial deviation,
               with p Laplace-smoothed so that p = 0 or 1 keeps a width.
  quantile     Z * 1.6 * (p95 - p5) * sqrt(2/n) + 1/k.  The deviation
               of a 5% or 95% sample quantile, taking the density there
               as at least 0.15 of the mean density over [p5, p95], plus
               one step of the 1/k grid a reward fraction lies on after
               k rounds.

sqrt(2/n) because both sides are estimates from n trials; Z = 7.  Each
side's spread is the larger of the reference's and the output's.
Equitability (1 - variance / a(1-a)) has no usable bound at the ci
preset's 300 trials, so it is only checked to lie in [0, 1].
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterator, List, Tuple

Z = 7.0
QUANTILE_SPREAD = 1.6
EPS = 1e-9

#: Trials behind each series, per preset (repro.experiments.config):
#: simulation trials, Figure 4's heavy trials, and the node-level
#: repeats of PoW and of the PoS protocols.
TRIALS = {
    "default": {"trials": 2000, "heavy": 500, "pow": 5, "pos": 50},
    "ci": {"trials": 300, "heavy": 100, "pow": 2, "pos": 8},
}

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path) as handle:
        return json.load(handle)


def classify(experiment: str, path: Tuple) -> str:
    """How a field is compared: exact, exempt, bounded, mean,
    probability, quantile, or unknown (no rule: a gate error)."""
    keys = [key for key in path if isinstance(key, str)]
    leaf = keys[-1] if keys else ""
    if experiment == "fig1" or leaf in ("checkpoints", "shares"):
        return "exact"
    if "convergence" in keys or leaf in ("expectational_ok", "matches_paper"):
        return "exempt"
    if leaf == "equitability":
        return "bounded"
    if leaf in ("mean", "avg") or experiment == "fig4":
        return "mean"
    if leaf in ("p5", "p95"):
        return "quantile"
    if leaf == "unfair" or experiment in ("fig3", "fig5"):
        return "probability"
    return "unknown"


def trial_count(experiment: str, preset: str, path: Tuple) -> int:
    counts = TRIALS[preset]
    if experiment == "fig2" and path[0] == "system":
        return counts["pow"] if path[1] == "PoW" else counts["pos"]
    if experiment == "fig6" and path[0].startswith("system"):
        return counts["pos"]
    if experiment == "fig4":
        return counts["heavy"]
    return counts["trials"]


def walk(tree, path: Tuple = ()) -> Iterator[Tuple[Tuple, object]]:
    """Every leaf of a JSON tree with its path of keys and indices."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from walk(value, path + (key,))
    elif isinstance(tree, list):
        for index, value in enumerate(tree):
            yield from walk(value, path + (index,))
    else:
        yield path, tree


def _at(tree, path: Tuple):
    for key in path:
        tree = tree[key]
    return tree


def _deviation(mean: float) -> float:
    mean = min(max(mean, 0.0), 1.0)
    return math.sqrt(mean * (1.0 - mean))


def _mean_deviation(tree, path: Tuple, mean: float) -> float:
    """An upper bound on the standard deviation behind a mean."""
    bound = _deviation(mean)
    series, index = path[:-2], path[-1]
    try:
        low = _at(tree, series + ("p5", index))
        high = _at(tree, series + ("p95", index))
    except (KeyError, IndexError, TypeError):
        return bound
    inner = max(abs(high - mean), abs(mean - low)) ** 2
    below = max(mean, low - mean) ** 2
    above = max(1.0 - mean, mean - high) ** 2
    return min(bound, math.sqrt(0.9 * inner + 0.05 * below + 0.05 * above))


def tolerance(kind: str, n: int, ref: float, got: float, trees, path: Tuple) -> float:
    """The allowed distance of a Monte Carlo value from the reference."""
    root = math.sqrt(2.0 / n)
    if kind == "mean":
        spread = max(_mean_deviation(trees[0], path, ref), _mean_deviation(trees[1], path, got))
        return Z * spread * root + EPS
    if kind == "probability":
        smoothed = ((value * n + 1.0) / (n + 2.0) for value in (ref, got))
        return Z * max(_deviation(p) for p in smoothed) * root + EPS
    series, index = path[:-2], path[-1]
    width = max(
        _at(tree, series + ("p95", index)) - _at(tree, series + ("p5", index))
        for tree in trees
    )
    step = 1.0 / _at(trees[0], series + ("checkpoints", index))
    return Z * QUANTILE_SPREAD * width * root + step + EPS


def _compare(kind: str, ref, got, experiment, preset, trees, path):
    if ref is None or got is None:
        return None if ref is got else f"expected {ref!r}, got {got!r}"
    if isinstance(ref, (bool, str)) or kind == "exempt":
        if type(got) is not type(ref) and not _numbers(ref, got):
            return f"expected a {type(ref).__name__}, got {got!r}"
        if isinstance(ref, str) and got != ref:
            return f"expected {ref!r}, got {got!r}"
        return None
    if not _numbers(ref, got):
        return f"expected a number, got {got!r}"
    if kind == "exact":
        same = got == ref or math.isclose(got, ref, rel_tol=1e-9, abs_tol=1e-12)
        return None if same else f"{got!r} != reference {ref!r}"
    if kind == "bounded":
        return None if 0.0 <= got <= 1.0 else f"{got!r} outside [0, 1]"
    if kind == "unknown":
        return "no tolerance rule for this field"
    if math.isnan(ref) or math.isnan(got):
        return None if math.isnan(ref) and math.isnan(got) else f"{got!r} vs {ref!r}"
    n = trial_count(experiment, preset, path)
    try:
        allowed = tolerance(kind, n, ref, got, trees, path)
    except (KeyError, IndexError, TypeError) as error:
        return f"sibling series missing ({error!r})"
    if abs(got - ref) > allowed:
        return (
            f"{got:.6g} is {abs(got - ref):.3g} from reference {ref:.6g} "
            f"(tolerance {allowed:.3g} for a {kind} of n={n})"
        )
    return None


def _numbers(*values) -> bool:
    return all(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        for value in values
    )


def check(experiment: str, preset: str, data: bytes, reference) -> List[str]:
    """Problems with one output against its reference; empty if it passes.

    Fields the output adds beyond the reference are not checked here.
    """
    try:
        got = json.loads(data)
    except ValueError as error:
        return [f"unparsable JSON: {error}"]
    problems = []
    for path, ref in walk(reference):
        where = "/".join(str(key) for key in path)
        try:
            value = _at(got, path)
        except (KeyError, IndexError, TypeError):
            problems.append(f"{where}: missing")
            continue
        kind = classify(experiment, path)
        problem = _compare(kind, ref, value, experiment, preset, (reference, got), path)
        if problem:
            problems.append(f"{where}: {problem}")
    return problems
