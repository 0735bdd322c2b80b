"""Saving and loading ensemble results.

Paper-scale runs take minutes; persisting their output lets the
analysis and rendering layers iterate without re-simulating.  Results
are stored as a single ``.npz`` archive: numeric arrays natively,
metadata (protocol name, miner names, round unit) as a JSON string.

Two artifact kinds share the format: full
:class:`~repro.core.results.EnsembleResult` trajectories (the original
layout, readable by every prior release) and ``reduce="stats"``
:class:`~repro.core.stats.StatsSummary` moments and event counters,
marked by a ``kind`` field in the metadata record.  Both round-trip
bit-identically — ``.npz`` stores the arrays verbatim — which is what
lets the result cache store either kind as a merged artifact or as a
resume checkpoint of one shard.  Archives are compressed (``savez_compressed``): that pays
for the trajectory cubes of full-mode figures, while a stats artifact
is a few kilobytes either way.
"""

from __future__ import annotations

import json
import pathlib
from typing import Union

import numpy as np

from ..core.miners import Allocation
from ..core.results import EnsembleResult
from ..core.stats import StatsSummary

__all__ = ["save_result", "load_result"]

_FORMAT_VERSION = 1

PathLike = Union[str, pathlib.Path]

#: Array names of the optional terminal-stats block, in constructor order.
_STATS_TERMINAL_KEYS = (
    "stats_terminal_mean",
    "stats_terminal_m2",
    "stats_wins",
)


def save_result(
    result: Union[EnsembleResult, StatsSummary], path: PathLike
) -> pathlib.Path:
    """Write a result artifact to ``path`` (.npz appended if absent).

    Accepts an :class:`EnsembleResult` (full trajectories) or a
    :class:`StatsSummary` (sufficient statistics); returns the final
    path written.
    """
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    metadata = {
        "format_version": _FORMAT_VERSION,
        "protocol_name": result.protocol_name,
        "round_unit": result.round_unit,
        "miner_names": [m.name for m in result.allocation.miners],
    }
    arrays = {
        "shares": result.allocation.shares,
        "checkpoints": result.checkpoints,
    }
    if isinstance(result, StatsSummary):
        metadata["kind"] = "stats"
        metadata.update(result.state_meta())
        arrays.update(result.state_arrays())
    else:
        # The original layout, deliberately unmarked: archives written
        # by prior releases load unchanged.
        arrays["reward_fractions"] = result.reward_fractions
        if result.terminal_stakes is not None:
            arrays["terminal_stakes"] = result.terminal_stakes
    arrays["metadata"] = np.array(json.dumps(metadata))
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)
    return path


def _load_stats(archive, metadata: dict, allocation: Allocation) -> StatsSummary:
    """Rebuild a :class:`StatsSummary` from its state arrays."""
    kwargs = {}
    if _STATS_TERMINAL_KEYS[0] in archive.files:
        kwargs = {
            "terminal_mean": archive["stats_terminal_mean"],
            "terminal_m2": archive["stats_terminal_m2"],
            "wins": archive["stats_wins"],
        }
    return StatsSummary(
        protocol_name=metadata["protocol_name"],
        allocation=allocation,
        checkpoints=archive["checkpoints"],
        round_unit=metadata["round_unit"],
        trials=metadata["trials"],
        epsilon=metadata["epsilon"],
        margin=metadata["margin"],
        mean=archive["stats_mean"],
        m2=archive["stats_m2"],
        unfair=archive["stats_unfair"],
        monopolised=metadata["monopolised"],
        zero_stake_trials=metadata["zero_stake_trials"],
        **kwargs,
    )


def load_result(path: PathLike) -> Union[EnsembleResult, StatsSummary]:
    """Read an artifact written by :func:`save_result` (either kind)."""
    path = pathlib.Path(path)
    if not path.exists() and path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path, allow_pickle=False) as archive:
        metadata = json.loads(str(archive["metadata"]))
        if metadata.get("format_version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported result format version "
                f"{metadata.get('format_version')!r}"
            )
        allocation = Allocation(
            archive["shares"], names=metadata["miner_names"]
        )
        if metadata.get("kind") == "stats":
            return _load_stats(archive, metadata, allocation)
        terminal = (
            archive["terminal_stakes"]
            if "terminal_stakes" in archive.files
            else None
        )
        return EnsembleResult(
            protocol_name=metadata["protocol_name"],
            allocation=allocation,
            checkpoints=archive["checkpoints"],
            reward_fractions=archive["reward_fractions"],
            terminal_stakes=terminal,
            round_unit=metadata["round_unit"],
        )
