"""Deterministic splitting of ensemble work into shards.

A *shard plan* divides a spec's ``trials`` (or a system experiment's
``repeats``) into contiguous chunks, each with its own root seed
spawned from the spec's :class:`~numpy.random.SeedSequence`.  Two
invariants make parallelism safe:

* the plan is a pure function of ``(total, seed, count)``, and the
  default ``count`` (:func:`default_shard_count`) depends on the spec
  alone — never on the worker count — so the same plan executed
  serially or on sixteen processes yields bit-identical shard results;
* shard seeds come from :meth:`SeedSequence.spawn`, so the shards'
  random streams are provably non-overlapping and the merged ensemble
  is statistically indistinguishable from a single-stream run.

Merging shard results in index order (``EnsembleResult.merge``) then
gives bit-identical merged arrays for any executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .._validation import ensure_positive_int

__all__ = [
    "DEFAULT_SHARD_COUNT",
    "MIN_SHARD_REPEATS",
    "MIN_SHARD_TRIALS",
    "Shard",
    "ShardPlan",
    "default_shard_count",
    "plan_shards",
    "pristine_seed",
    "split_evenly",
]

#: Most shards a default plan cuts.  Deliberately a fixed constant
#: rather than the worker count, so default plans (and hence merged
#: results) are identical across machines with different parallelism.
#: Pools wider than a spec's plan still fill: ``run_many`` dispatches
#: every shard of a grid's cells at once.
DEFAULT_SHARD_COUNT = 8

#: Fewest trials a default simulation shard carries.  Each kernel round
#: pays a fixed NumPy dispatch cost whatever the shard's width, so
#: narrow shards spend most of their time on it.  Cost per trial-round
#: at 3,000 rounds, 2 vCPU:
#:
#:     ======  ==========  ==========
#:     kernel  250 trials  500 trials
#:     ======  ==========  ==========
#:     ML-PoS     46.5 ns     23.4 ns
#:     SL-PoS     51.3 ns     34.5 ns
#:     C-PoS       356 ns      315 ns
#:     ======  ==========  ==========
#:
#: A 1,000-trial minimum was faster still, but the dispatching process
#: holds the larger unpickled shard payloads while it merges, and its
#: peak memory rose by up to 4.6%.
MIN_SHARD_TRIALS = 500

#: Fewest repeats a default system shard carries.  Each repeat is a
#: whole node-level deployment, heavy enough to be worth its own shard.
MIN_SHARD_REPEATS = 1


def default_shard_count(total: int, min_per_shard: int) -> int:
    """The default shard count for ``total`` trials or repeats.

    ``min(DEFAULT_SHARD_COUNT, max(1, total // min_per_shard))``: as
    many shards as ``total`` fills with at least ``min_per_shard``
    each, but never more than :data:`DEFAULT_SHARD_COUNT`.  A simulation
    spec passes :data:`MIN_SHARD_TRIALS` (2,000 trials plan 4 shards
    of 500, 300 trials one shard); a system spec passes
    :data:`MIN_SHARD_REPEATS` (``min(8, repeats)``).  The count depends
    on the spec alone, never on the worker count.
    """
    total = ensure_positive_int("total", total)
    min_per_shard = ensure_positive_int("min_per_shard", min_per_shard)
    return min(DEFAULT_SHARD_COUNT, max(1, total // min_per_shard))


def split_evenly(total: int, parts: int) -> List[int]:
    """Split ``total`` items into ``parts`` balanced, deterministic chunks.

    The first ``total % parts`` chunks receive one extra item, so chunk
    sizes differ by at most one and the split is reproducible.
    """
    total = ensure_positive_int("total", total)
    parts = ensure_positive_int("parts", parts)
    if parts > total:
        raise ValueError(f"cannot split {total} items into {parts} shards")
    base, remainder = divmod(total, parts)
    return [base + (1 if i < remainder else 0) for i in range(parts)]


def pristine_seed(seed: np.random.SeedSequence) -> np.random.SeedSequence:
    """A copy of ``seed`` that has spawned no children yet.

    :meth:`SeedSequence.spawn` is stateful (``n_children_spawned``):
    spawning twice from one sequence hands out different children.
    Plans and shard runs spawn from a copy, so re-planning a spec, or
    rerunning a shard that failed after it spawned, sees the same
    streams.
    """
    return np.random.SeedSequence(
        entropy=seed.entropy,
        spawn_key=seed.spawn_key,
        pool_size=seed.pool_size,
    )


@dataclass(frozen=True)
class Shard:
    """One unit of ensemble work: a chunk of trials with its own seed."""

    index: int
    trials: int
    seed: np.random.SeedSequence

    def __repr__(self) -> str:
        return f"Shard(index={self.index}, trials={self.trials})"


@dataclass(frozen=True)
class ShardPlan:
    """An ordered, seeded division of ``total`` trials into shards."""

    shards: Tuple[Shard, ...]
    total: int

    def __post_init__(self) -> None:
        if sum(s.trials for s in self.shards) != self.total:
            raise ValueError("shard trials must sum to the plan total")

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)

    def __repr__(self) -> str:
        sizes = [s.trials for s in self.shards]
        return f"ShardPlan(total={self.total}, sizes={sizes})"


def plan_shards(
    total: int,
    seed: np.random.SeedSequence,
    count: Optional[int] = None,
) -> ShardPlan:
    """Build the shard plan for ``total`` trials under ``seed``.

    ``count`` defaults to ``default_shard_count(total,
    MIN_SHARD_REPEATS)``, that is :data:`DEFAULT_SHARD_COUNT` clamped
    to ``total``; pass ``default_shard_count(total, MIN_SHARD_TRIALS)``
    to plan a simulation spec the way the runner does.  Shard seeds are
    the first ``count`` spawned children of ``seed``, assigned in
    order.
    """
    total = ensure_positive_int("total", total)
    if not isinstance(seed, np.random.SeedSequence):
        raise TypeError(
            f"seed must be a numpy SeedSequence, got {type(seed).__name__}"
        )
    if count is None:
        count = default_shard_count(total, MIN_SHARD_REPEATS)
    else:
        count = ensure_positive_int("count", count)
    sizes = split_evenly(total, count)
    # The plan must be a pure function of the spec: re-planning the
    # same spec has to yield the same shards.
    children = pristine_seed(seed).spawn(count)
    shards = tuple(
        Shard(index=i, trials=size, seed=child)
        for i, (size, child) in enumerate(zip(sizes, children))
    )
    return ShardPlan(shards=shards, total=total)
