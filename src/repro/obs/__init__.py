"""Runtime observability: span tracing and reporting.

Zero-dependency telemetry for the parallel runtime.  One recorder, the
span :class:`Tracer`, holds every record of a run: timed spans, point
events, and the facts the ``--metrics`` counter table counts
(:func:`metric_counters` computes that table from the records).  Three
doctrine rules bind it:

1. **Never in fingerprints.**  Telemetry objects and flags are
   execution knobs, not part of an experiment's identity — they must
   never reach :func:`repro.runtime.spec.spec_fingerprint`.
2. **Bit-identity-neutral.**  Instrumentation reads clocks and
   counters, never random state; a traced run produces byte-identical
   results to an untraced one.
3. **Disabled means free.**  The ambient default is the null tracer;
   hot paths guard on ``tracer.enabled`` so disabled telemetry costs
   one attribute read (<2% on the kernel bench smoke config, enforced
   by a perf test) and allocates nothing.

Worker processes ship their records home in a :class:`ShardEnvelope`
— a picklable (payload, spans) pair the runner unwraps and ingests
(the cross-process analogue of
:class:`~repro.core.results.MergeAccumulator` folding).
"""

from __future__ import annotations

from typing import Any, List, NamedTuple

from .report import (
    metric_counters,
    render_cache_stats,
    render_metrics,
    render_summary,
    summarize_spans,
)
from .trace import (
    NULL_TRACER,
    TRACE_SCHEMA,
    NullTracer,
    Tracer,
    get_tracer,
    read_trace,
    set_tracer,
    using_tracer,
    using_worker_tracer,
    validate_trace,
    write_trace,
)

__all__ = [
    "NULL_TRACER",
    "TRACE_SCHEMA",
    "NullTracer",
    "ShardEnvelope",
    "Tracer",
    "get_tracer",
    "ingest_envelope",
    "metric_counters",
    "read_trace",
    "render_cache_stats",
    "render_metrics",
    "render_summary",
    "set_tracer",
    "summarize_spans",
    "using_tracer",
    "using_worker_tracer",
    "validate_trace",
    "write_trace",
]


class ShardEnvelope(NamedTuple):
    """A task's payload plus the span records its worker made.

    Plain data all the way down (result objects and span dicts), so it
    pickles across the processes backend exactly like a bare payload.
    """

    payload: Any
    spans: List[dict]


def ingest_envelope(envelope: "ShardEnvelope") -> Any:
    """Fold an envelope's spans into the ambient tracer and return the
    bare payload.

    Tolerates a bare (non-envelope) payload so the runner can unwrap
    unconditionally — untraced workers return payloads directly.
    """
    if not isinstance(envelope, ShardEnvelope):
        return envelope
    if envelope.spans:
        get_tracer().ingest(envelope.spans)
    return envelope.payload
