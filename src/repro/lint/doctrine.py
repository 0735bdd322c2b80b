"""The machine-readable half of ROADMAP's "Doctrine to preserve".

Every rule family in :mod:`repro.lint` is parameterised from here, so
the doctrine lives in exactly one place: which attribute names are
*execution knobs* (bit-identical path selectors that must never enter
cache fingerprints), which modules are *determinism-critical* (jitter
and schedules there must be SHA-256-derived, never RNG- or wall-clock-
fed), which classes cross the *process boundary* (and therefore must
stay picklable), and which classes own a lock that guards designated
shared attributes.

Scope patterns are :mod:`fnmatch` patterns matched against the
``repro/``-relative posix path of each linted file (``*`` matches
``/`` under fnmatch, so ``repro/*`` means the whole tree).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

__all__ = [
    "BOUNDARY_MODULES",
    "DETERMINISM_MODULES",
    "EXECUTION_KNOBS",
    "FINGERPRINTED_CLASS_MODULES",
    "LOCK_GUARDED",
    "METRIC_INSTRUMENT_ATTRS",
    "LOCK_MODULES",
    "MUTATOR_METHODS",
    "NUMPY_RANDOM_ALLOWED",
    "PHYSICS_KNOBS",
    "STORAGE_MODULES",
    "SWALLOW_MODULES",
]

#: Attribute names that select between bit-identical execution paths.
#: One cached artifact answers every setting of these, so they must
#: never be hashed into a spec fingerprint (FPR family).  Physics knobs
#: — anything that changes the produced bytes — always fingerprint.
EXECUTION_KNOBS: FrozenSet[str] = frozenset({
    "kernel",       # SimulationSpec: batched vs naive advance
    "fast",         # SystemExperiment: vectorized vs per-object loop
    "workers",      # degree of parallelism
    "retry",        # fault-tolerance: retry policy
    "retries",      # fault-tolerance: CLI spelling of the same knob
    "timeout",      # fault-tolerance: per-shard deadline
    "resume",       # fault-tolerance: journal-driven resume
    "journal",      # fault-tolerance: journal sidecar
    "verify",       # integrity: digest verification on cache reads
    "compact_bytes",  # integrity: journal auto-compaction threshold
})

#: Attribute names that change the produced bytes (physics knobs)
#: despite looking like mode switches.  They must always enter the
#: fingerprint: listing one in ``_fingerprint_exclude_`` would alias
#: distinct artifacts under one cache key (FPR005).
PHYSICS_KNOBS: FrozenSet[str] = frozenset({
    "reduce",       # SimulationSpec/SystemSpec: full trajectory cube
                    # vs sufficient statistics — different artifact
                    # bytes, never one cache entry
})

#: Modules where no code path may consume ambient entropy: retry
#: jitter, chaos schedules and kernel batching must be pure functions
#: (SHA-256 of task coordinates), and telemetry must be bit-identity
#: neutral (DET family).
DETERMINISM_MODULES: Tuple[str, ...] = (
    "repro/runtime/faults.py",
    "repro/runtime/chaos.py",
    "repro/runtime/diskchaos.py",
    "repro/sim/kernels.py",
    "repro/obs/*",
)

#: ``numpy.random`` attributes that are deterministic-by-construction
#: (types and seedable constructors).  Everything else on
#: ``numpy.random`` is the legacy global-state API and is banned in
#: determinism-critical modules.
NUMPY_RANDOM_ALLOWED: FrozenSet[str] = frozenset({
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
})

#: Modules whose classes cross the worker process boundary (specs,
#: failure payloads, telemetry envelopes, chaos wrappers).  Instances
#: must survive pickling, so they may not hold lambdas, locks, open
#: files or generators (PKL family).
BOUNDARY_MODULES: Tuple[str, ...] = (
    "repro/runtime/spec.py",
    "repro/runtime/faults.py",
    "repro/runtime/chaos.py",
    "repro/obs/__init__.py",
)

#: Modules canonicalised through ``vars(obj)`` by
#: ``repro.runtime.spec._canonical`` — classes here that assign an
#: execution-knob attribute must list it in ``_fingerprint_exclude_``
#: (FPR family).
FINGERPRINTED_CLASS_MODULES: Tuple[str, ...] = (
    "repro/chainsim/harness.py",
    "repro/protocols/*",
)

#: Modules scanned for lock discipline (LCK family).  Executors are
#: listed even though they currently own no locks: the moment shared
#: state grows a lock there, the rule engages without a config change.
LOCK_MODULES: Tuple[str, ...] = (
    "repro/runtime/cache.py",
    "repro/runtime/journal.py",
    "repro/runtime/executor.py",
    "repro/runtime/runner.py",
    "repro/runtime/integrity.py",
    "repro/runtime/diskchaos.py",
    "repro/obs/metrics.py",
    "repro/obs/trace.py",
)

#: Designated shared state: class name -> (lock attribute, attribute
#: names that may only be written under ``with self.<lock>``).  Classes
#: not listed here are still covered by inference: any class whose
#: ``__init__`` stores a ``threading.Lock``/``RLock`` is lock-owning,
#: and every attribute it writes under that lock anywhere is guarded
#: everywhere.
LOCK_GUARDED: Dict[str, Tuple[str, FrozenSet[str]]] = {
    "ResultCache": ("_stats_lock", frozenset({
        "hits", "misses", "evictions", "quarantined", "io_errors",
        "degraded", "_approx_bytes",
    })),
    "RunJournal": ("_lock", frozenset({
        "_shards", "_specs", "_handle", "_lines_total", "degraded",
        "compactions",
    })),
    "DiskChaos": ("_lock", frozenset({"hits", "_counts", "_total"})),
    "MetricsRegistry": ("_lock", frozenset({
        "_counters", "_gauges", "_histograms",
    })),
    "Counter": ("_lock", frozenset({"value"})),
    "Gauge": ("_lock", frozenset({"value"})),
    "Histogram": ("_lock", frozenset({"buckets", "count", "sum"})),
    "Tracer": ("_lock", frozenset({"_records"})),
    "ParallelRunner": ("_retry_lock", frozenset({
        "shards_retried", "shards_resumed",
    })),
}

#: Instrument attributes that may be written on *other* objects (the
#: registry merge path folds worker snapshots into instruments it does
#: not own) — such writes must hold that instrument's ``_lock``.
METRIC_INSTRUMENT_ATTRS: FrozenSet[str] = frozenset({
    "value", "buckets", "count", "sum",
})

#: Method names that mutate their receiver in place; calling one on a
#: guarded attribute counts as a write.
MUTATOR_METHODS: FrozenSet[str] = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "sort", "reverse",
    "write", "writelines",
})

#: Retry/salvage modules where a broad exception handler that silently
#: swallows would erase shard failures (EXC family).
SWALLOW_MODULES: Tuple[str, ...] = (
    "repro/runtime/executor.py",
    "repro/runtime/runner.py",
)

#: Durable-layer modules where an ``except OSError`` that drops the
#: error on the floor hides disk trouble (a full disk that silently
#: stops caching, a write that never landed).  Handlers there must
#: count a metric (``note_storage_error``), warn, re-raise, or at
#: least bind a fallback value — never just ``pass`` (EXC004).  Narrow
#: expected-condition catches (``FileNotFoundError``/``FileExistsError``)
#: are exempt.
STORAGE_MODULES: Tuple[str, ...] = (
    "repro/runtime/cache.py",
    "repro/runtime/journal.py",
    "repro/runtime/integrity.py",
    "repro/runtime/diskchaos.py",
)
