"""Structured span tracing for the runtime.

A :class:`Tracer` records *spans* — named, timed regions with
parent/child nesting and free-form attributes — into an in-memory
buffer that serialises to JSON-lines trace files.  The design is
shaped by three hard constraints inherited from the runtime's
doctrine:

* **Disabled means free.**  The ambient default is the
  :data:`NULL_TRACER` singleton; hot paths guard instrumentation with
  ``if tracer.enabled:`` so a disabled tracer costs one attribute read
  and allocates nothing (``tests/obs`` pins the zero-allocation
  contract, and a perf test pins <2% overhead on the kernel bench
  smoke config).
* **Bit-identity-neutral.**  Tracing reads clocks and counters only —
  never a random generator — so traced and untraced runs produce
  byte-identical ensembles and identical cache fingerprints.
* **Process- and thread-safe.**  Each shard worker records into its
  own private :class:`Tracer` (installed as a thread-local override by
  the runner's worker entry points) and ships the finished span
  records back with the shard payload; the parent
  :meth:`Tracer.ingest`\\ s them.  Buffer appends are lock-protected,
  and the active-span stack used for parent/child nesting is
  thread-local, so several threads can trace into one tracer at once.

Span records are plain dicts (JSON- and pickle-ready)::

    {"name": str, "span_id": int, "parent_id": int | null,
     "ts": float,   # wall-clock start, seconds since the epoch
     "dur": float,  # duration in seconds (0.0 for point events)
     "pid": int, "tid": int, "attrs": {...}}

``span_id`` is unique per process (``pid`` disambiguates across
workers); ``parent_id`` links within one process only.  Trace files
open with a header line ``{"schema": "repro-trace/v1", ...}`` that
:func:`validate_trace` checks.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import pathlib
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = [
    "NULL_TRACER",
    "TRACE_SCHEMA",
    "NullTracer",
    "Tracer",
    "get_tracer",
    "read_trace",
    "set_tracer",
    "using_tracer",
    "using_worker_tracer",
    "validate_trace",
    "write_trace",
]

#: Schema tag written as the first line of every trace file.
TRACE_SCHEMA = "repro-trace/v1"

#: Required span-record fields and the types :func:`validate_trace`
#: accepts for each (``parent_id`` additionally accepts None).
_SPAN_FIELDS: Dict[str, tuple] = {
    "name": (str,),
    "span_id": (int,),
    "parent_id": (int, type(None)),
    "ts": (int, float),
    "dur": (int, float),
    "pid": (int,),
    "tid": (int,),
    "attrs": (dict,),
}


class _ActiveSpan:
    """A span being timed; the context manager ``Tracer.span`` returns.

    Entering records the wall-clock and monotonic start and pushes the
    span onto the thread-local nesting stack; exiting pops, computes
    the monotonic duration and appends the finished record to the
    tracer's buffer (exceptions still record the span).  ``set`` adds
    attributes discovered mid-span (e.g. whether a cache get hit).
    """

    __slots__ = (
        "_tracer", "name", "attrs", "span_id", "_parent_id",
        "_ts", "_perf",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = tracer._next_id()
        self._parent_id: Optional[int] = None
        self._ts = 0.0
        self._perf = 0.0

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute to the span."""
        self.attrs[key] = value

    def __enter__(self) -> "_ActiveSpan":
        stack = self._tracer._stack_for_thread()
        self._parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        # repro-lint: disable=DET003  # span start is trace metadata: read, never fed back into simulation
        self._ts = time.time()
        self._perf = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._perf
        stack = self._tracer._stack_for_thread()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        self._tracer.record({
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self._parent_id,
            "ts": self._ts,
            "dur": duration,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "attrs": self.attrs,
        })
        return False


class Tracer:
    """A thread-safe, in-memory span recorder.

    Examples
    --------
    >>> tracer = Tracer()
    >>> with tracer.span("outer", grid="fig3"):
    ...     with tracer.span("inner"):
    ...         pass
    >>> [s["name"] for s in tracer.spans]
    ['inner', 'outer']
    >>> tracer.spans[0]["parent_id"] == tracer.spans[1]["span_id"]
    True
    """

    enabled = True

    def __init__(self) -> None:
        self._records: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    # -- recording --------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _ActiveSpan:
        """A context manager timing one named region."""
        return _ActiveSpan(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a zero-duration point event."""
        stack = self._stack_for_thread()
        self.record({
            "name": name,
            "span_id": self._next_id(),
            "parent_id": stack[-1] if stack else None,
            "ts": time.time(),  # repro-lint: disable=DET003  # event timestamp is trace metadata, never consumed by simulation
            "dur": 0.0,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "attrs": attrs,
        })

    def record(self, record: dict) -> None:
        """Append one finished span record to the buffer."""
        with self._lock:
            self._records.append(record)

    def ingest(self, records: Sequence[dict]) -> None:
        """Adopt span records produced elsewhere (e.g. a shard worker)."""
        with self._lock:
            self._records.extend(records)

    # -- access -----------------------------------------------------------

    @property
    def spans(self) -> List[dict]:
        """A snapshot of the recorded spans, in completion order."""
        with self._lock:
            return list(self._records)

    def drain(self) -> List[dict]:
        """Remove and return every recorded span."""
        with self._lock:
            records, self._records = self._records, []
            return records

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def write(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the buffered spans as a JSONL trace file."""
        return write_trace(path, self.spans)

    # -- internals --------------------------------------------------------

    def _next_id(self) -> int:
        return next(self._ids)

    def _stack_for_thread(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def __repr__(self) -> str:
        return f"Tracer(spans={len(self)})"


class _NullSpan:
    """The do-nothing span; a single shared instance, never allocated
    per call."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Hot paths check ``tracer.enabled`` before building attribute dicts,
    so a disabled tracer allocates nothing per span — the contract the
    zero-allocation test in ``tests/obs`` pins.  ``span`` (called
    without keyword attributes) returns a shared singleton, so even an
    unguarded ``with tracer.span("x"):`` stays allocation-free.
    """

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def record(self, record: dict) -> None:
        pass

    def ingest(self, records: Sequence[dict]) -> None:
        pass

    @property
    def spans(self) -> List[dict]:
        return []

    def drain(self) -> List[dict]:
        return []

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullTracer()"


#: The shared disabled tracer (the ambient default).
NULL_TRACER = NullTracer()

_default_tracer: Union[Tracer, NullTracer] = NULL_TRACER
_thread_override = threading.local()


def get_tracer() -> Union[Tracer, NullTracer]:
    """The active tracer: the thread's worker override, else the
    process default, else :data:`NULL_TRACER`.

    This is the hot-path lookup — one thread-local ``getattr`` and no
    allocation — so instrumented code can call it unconditionally.
    """
    tracer = getattr(_thread_override, "tracer", None)
    return _default_tracer if tracer is None else tracer


def set_tracer(tracer: Union[Tracer, NullTracer, None]):
    """Install ``tracer`` (None restores the null tracer) as the
    process default; returns the previous default."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = NULL_TRACER if tracer is None else tracer
    return previous


@contextlib.contextmanager
def using_tracer(tracer: Union[Tracer, NullTracer, None]) -> Iterator[None]:
    """Scope ``tracer`` as the process default for a ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield
    finally:
        set_tracer(previous)


@contextlib.contextmanager
def using_worker_tracer(tracer: Union[Tracer, NullTracer]) -> Iterator[None]:
    """Scope ``tracer`` as *this thread's* tracer for a ``with`` block.

    Shard workers use this so nested instrumentation (kernels, cache,
    chainsim) records into the worker's private buffer — which ships
    back with the shard payload — instead of a forked copy of the
    parent's tracer (whose records would be lost) or, on the serial
    backend, the parent's live tracer (which would double-count once
    the shipped spans are ingested).
    """
    previous = getattr(_thread_override, "tracer", None)
    _thread_override.tracer = tracer
    try:
        yield
    finally:
        _thread_override.tracer = previous


# -- trace files --------------------------------------------------------------


def write_trace(
    path: Union[str, pathlib.Path], spans: Sequence[dict]
) -> pathlib.Path:
    """Write spans as a JSONL trace file with a schema header line."""
    path = pathlib.Path(path)
    if path.parent != pathlib.Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(
            # repro-lint: disable=DET003  # file-creation stamp in the trace header, outside any simulation path
            {"schema": TRACE_SCHEMA, "created": time.time(), "spans": len(spans)},
            handle,
            separators=(",", ":"),
        )
        handle.write("\n")
        for span in spans:
            json.dump(span, handle, separators=(",", ":"), sort_keys=True)
            handle.write("\n")
    return path


def read_trace(path: Union[str, pathlib.Path]) -> Tuple[dict, List[dict]]:
    """Load a trace file, returning ``(header, spans)``.

    Raises ``ValueError`` on a malformed file; use
    :func:`validate_trace` to collect every problem instead of failing
    at the first.
    """
    header, spans, errors = _parse_trace(path)
    if errors:
        raise ValueError(f"invalid trace file {str(path)!r}: {errors[0]}")
    return header, spans


def validate_trace(path: Union[str, pathlib.Path]) -> List[str]:
    """Every schema violation in a trace file (empty means valid)."""
    _, _, errors = _parse_trace(path)
    return errors


def _parse_trace(
    path: Union[str, pathlib.Path]
) -> Tuple[dict, List[dict], List[str]]:
    header: dict = {}
    spans: List[dict] = []
    errors: List[str] = []
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines:
        return header, spans, ["empty file: missing schema header"]
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as error:
        return header, spans, [f"line 1: not JSON ({error})"]
    if not isinstance(header, dict) or header.get("schema") != TRACE_SCHEMA:
        errors.append(
            f"line 1: expected schema header {TRACE_SCHEMA!r}, "
            f"got {header!r}"
        )
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            errors.append(f"line {number}: not JSON ({error})")
            continue
        if not isinstance(record, dict):
            errors.append(f"line {number}: span record must be an object")
            continue
        for field, types in _SPAN_FIELDS.items():
            if field not in record:
                errors.append(f"line {number}: missing field {field!r}")
            elif not isinstance(record[field], types):
                # bool is an int subclass; reject it for numeric fields.
                errors.append(
                    f"line {number}: field {field!r} has type "
                    f"{type(record[field]).__name__}"
                )
        if isinstance(record.get("dur"), (int, float)) and record["dur"] < 0:
            errors.append(f"line {number}: negative duration")
        if not errors or errors[-1].split(":")[0] != f"line {number}":
            spans.append(record)
    return header, spans, errors
