"""Immutable run descriptions and their canonical fingerprints.

A *spec* is everything needed to reproduce one ensemble: the protocol
and its parameters, the allocation, the sampling effort, the recording
schedule, scheduled events, and the root seed.  Specs serve two roles:

* they are the unit the sharding layer splits and the executor ships
  to workers (so they must be picklable), and
* their canonical JSON form is hashed into the content address under
  which the merged result is cached (so the serialisation must be
  deterministic — sorted keys, plain types, no object identities).

Seeds are normalised to :class:`numpy.random.SeedSequence` at
construction.  A ``None`` seed draws fresh OS entropy which is then
*recorded* in the sequence, so such specs still fingerprint cleanly —
they simply never collide across invocations, which is exactly the
safe behaviour for a cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from .._validation import ensure_positive_int
from ..core.miners import Allocation
from ..protocols.base import IncentiveProtocol
from ..sim.events import GameEvent
from ..sim.rng import RandomSource, SeedLike

__all__ = [
    "SimulationSpec",
    "SystemSpec",
    "as_seed_sequence",
    "kernel_signature",
    "spec_fingerprint",
]

#: Bump when the canonical form (and hence every cache key) changes,
#: or when a protocol's draws change.
_FINGERPRINT_VERSION = 2


def as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """Normalise any seed-like value to a :class:`~numpy.random.SeedSequence`.

    Delegates to :class:`RandomSource` so the runtime and the engine
    share one normalisation (ints, sequences, generators, sources).
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return RandomSource(seed).sequence


@dataclass(frozen=True)
class SimulationSpec:
    """A complete, picklable description of one Monte Carlo ensemble.

    Parameters mirror :meth:`repro.sim.engine.MonteCarloEngine.run`;
    ``seed`` is normalised to a :class:`~numpy.random.SeedSequence` so
    the spec fingerprints and shards deterministically.
    """

    protocol: IncentiveProtocol
    allocation: Allocation
    trials: int
    horizon: int
    checkpoints: Optional[Tuple[int, ...]] = None
    events: Tuple[GameEvent, ...] = ()
    seed: SeedLike = None
    record_terminal_stakes: bool = True
    #: Advance path: "batched" (fused kernels) or "naive" (per-round
    #: loop).  The two are bit-identical, so the kernel deliberately
    #: does NOT enter the fingerprint — a cached result answers both.
    kernel: str = "batched"
    #: Artifact shape: "full" keeps every trial's trajectory
    #: (EnsembleResult), "stats" keeps mergeable sufficient statistics
    #: (StatsSummary) in O(1) memory per shard.  A *physics* knob — the
    #: two modes produce different bytes, so unlike ``kernel`` it DOES
    #: enter the fingerprint (with the epsilon/margin its counters
    #: are recorded at).
    reduce: str = "full"

    def __post_init__(self) -> None:
        if not isinstance(self.protocol, IncentiveProtocol):
            raise TypeError(
                f"protocol must be an IncentiveProtocol, got "
                f"{type(self.protocol).__name__}"
            )
        if not isinstance(self.allocation, Allocation):
            raise TypeError(
                f"allocation must be an Allocation, got "
                f"{type(self.allocation).__name__}"
            )
        object.__setattr__(self, "trials", ensure_positive_int("trials", self.trials))
        object.__setattr__(
            self, "horizon", ensure_positive_int("horizon", self.horizon)
        )
        if self.checkpoints is not None:
            from ..sim.checkpoints import validate_checkpoints

            object.__setattr__(
                self,
                "checkpoints",
                tuple(validate_checkpoints(self.checkpoints, self.horizon)),
            )
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if event.round_index > self.horizon:
                raise ValueError(
                    f"event at round {event.round_index} exceeds horizon "
                    f"{self.horizon}"
                )
        object.__setattr__(self, "seed", as_seed_sequence(self.seed))
        from ..core.stats import ensure_reduce_mode
        from ..sim.kernels import ensure_kernel_mode

        ensure_kernel_mode(self.kernel)
        ensure_reduce_mode(self.reduce)

    @property
    def seed_sequence(self) -> np.random.SeedSequence:
        """The normalised root seed of this spec."""
        return self.seed


@dataclass(frozen=True)
class SystemSpec:
    """A complete description of one node-level system ensemble.

    ``experiment`` is a :class:`repro.chainsim.harness.SystemExperiment`
    (duck-typed here to keep :mod:`repro.runtime` independent of
    :mod:`repro.chainsim`); ``repeats`` plays the role ``trials`` plays
    for simulations.  A system ensemble always keeps every repeat's
    full result.
    """

    experiment: Any
    rounds: int
    repeats: int
    checkpoints: Optional[Tuple[int, ...]] = None
    seed: SeedLike = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rounds", ensure_positive_int("rounds", self.rounds))
        object.__setattr__(
            self, "repeats", ensure_positive_int("repeats", self.repeats)
        )
        if self.checkpoints is not None:
            from ..sim.checkpoints import validate_checkpoints

            object.__setattr__(
                self,
                "checkpoints",
                tuple(validate_checkpoints(self.checkpoints, self.rounds)),
            )
        object.__setattr__(self, "seed", as_seed_sequence(self.seed))

    @property
    def seed_sequence(self) -> np.random.SeedSequence:
        """The normalised root seed of this spec."""
        return self.seed


# -- canonicalisation ---------------------------------------------------------


def _canonical(value: Any) -> Any:
    """Recursively convert ``value`` to a JSON-serialisable canonical form."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return repr(float(value))
    if isinstance(value, np.ndarray):
        return [_canonical(v) for v in value.tolist()]
    if isinstance(value, np.random.SeedSequence):
        return {
            "entropy": _canonical(value.entropy),
            "spawn_key": [int(k) for k in value.spawn_key],
            "pool_size": int(value.pool_size),
        }
    if isinstance(value, Allocation):
        return {
            "shares": _canonical(value.shares),
            "names": [m.name for m in value.miners],
        }
    if isinstance(value, GameEvent):
        return {
            "type": type(value).__name__,
            "fields": {
                k: _canonical(v)
                for k, v in sorted(dataclasses.asdict(value).items())
            },
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if hasattr(value, "__dict__"):
        # Protocols, SystemExperiments, and other parameter objects:
        # type name plus their constructor-set attributes.  A class may
        # name attributes that must stay outside the content address in
        # ``_fingerprint_exclude_`` — knobs like SystemExperiment.fast
        # that select between bit-identical execution paths, so one
        # cached artifact correctly answers every setting (the exact
        # role SimulationSpec.kernel plays for Monte Carlo specs).
        exclude = getattr(type(value), "_fingerprint_exclude_", frozenset())
        return {
            "type": type(value).__name__,
            "params": {
                k: _canonical(v)
                for k, v in sorted(vars(value).items())
                if k not in exclude
            },
        }
    raise TypeError(f"cannot canonicalise {type(value).__name__} for fingerprinting")


def _reduce_payload(reduce_mode: str) -> Any:
    """Canonical fingerprint payload of the ``reduce`` physics knob.

    ``reduce`` changes the produced bytes, so it must enter the content
    address.  Stats mode additionally bakes the recorded epsilon and
    margin into the artifact's counters, so they are folded in too:
    changing the defaults in :mod:`repro.core.stats` invalidates
    stats-mode cache entries instead of corrupting them.
    """
    if reduce_mode == "full":
        return "full"
    from ..core.fairness import DEFAULT_EPSILON
    from ..core.stats import DEFAULT_MARGIN

    return {
        "mode": "stats",
        "epsilon": _canonical(DEFAULT_EPSILON),
        "margin": _canonical(DEFAULT_MARGIN),
    }


def spec_fingerprint(spec: Any, *, shards: Optional[int] = None) -> str:
    """The content address of a spec (hex SHA-256 of its canonical JSON).

    ``shards`` is the effective shard count of the plan the result was
    (or would be) produced under; it is part of the address because the
    merged arrays are bit-wise functions of the shard plan.

    ``SimulationSpec.kernel`` is deliberately absent from the payload:
    batched and naive advances produce bit-identical arrays, so one
    cached artifact correctly answers both.  ``SimulationSpec.reduce``
    is deliberately *present*: full and stats artifacts hold different
    bytes, so the two modes must never share a cache entry.
    """
    if isinstance(spec, SimulationSpec):
        payload = {
            "kind": "simulation",
            "protocol": _canonical(spec.protocol),
            "allocation": _canonical(spec.allocation),
            "trials": spec.trials,
            "horizon": spec.horizon,
            "checkpoints": _canonical(spec.checkpoints),
            "events": _canonical(spec.events),
            "seed": _canonical(spec.seed_sequence),
            "record_terminal_stakes": spec.record_terminal_stakes,
            "reduce": _reduce_payload(spec.reduce),
        }
    elif isinstance(spec, SystemSpec):
        payload = {
            "kind": "system",
            "experiment": _canonical(spec.experiment),
            "rounds": spec.rounds,
            "repeats": spec.repeats,
            "checkpoints": _canonical(spec.checkpoints),
            "seed": _canonical(spec.seed_sequence),
        }
    else:
        raise TypeError(
            f"expected SimulationSpec or SystemSpec, got {type(spec).__name__}"
        )
    payload["version"] = _FINGERPRINT_VERSION
    payload["shards"] = shards
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def kernel_signature(spec: SimulationSpec) -> Tuple[type, str]:
    """What simulation shards must share to run as one fused engine.

    Every :class:`SimulationSpec` field except ``allocation``,
    ``trials`` and ``seed`` — the protocol by exact type and by its
    canonical parameters, as :func:`spec_fingerprint` encodes it — plus
    the miner count.  Shards with equal signatures advance the same
    dynamics over the same segments, fire the same events and record
    the same artifact shape, so one ensemble state can carry them all
    while each draws from its own seed.
    """
    payload = {
        "protocol": _canonical(spec.protocol),
        "miners": spec.allocation.size,
        "horizon": spec.horizon,
        "checkpoints": _canonical(spec.checkpoints),
        "events": _canonical(spec.events),
        "record_terminal_stakes": spec.record_terminal_stakes,
        "kernel": spec.kernel,
        "reduce": spec.reduce,
    }
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return type(spec.protocol), encoded
