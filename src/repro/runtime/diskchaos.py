"""Deterministic storage-fault injection for the durable layer.

Where :mod:`repro.runtime.chaos` sabotages *compute* (task failures,
hangs, worker crashes), this module sabotages *storage*: the cache and
journal announce every write/fsync/rename boundary through
:func:`crashpoint`, and an active :class:`DiskChaos` controller can
turn any of those announcements into a torn write, a failed fsync, a
full disk, or a hard crash.

The same doctrine as :class:`~repro.runtime.chaos.ChaosSchedule`
applies:

* **Determinism without randomness.**  Whether a boundary faults is a
  pure SHA-256 function of ``(seed, point, hit, kind)`` — no RNG, no
  wall clock — so a failing sweep iteration replays exactly.
* **Zero cost when off.**  ``crashpoint`` is a no-op attribute check
  when no controller is installed, so production code pays one global
  load per boundary.

:class:`SimulatedCrash` derives from ``BaseException`` (like
``KeyboardInterrupt``) so it tears through the storage layer's
``except OSError`` / ``except Exception`` recovery paths exactly as a
``kill -9`` would: nothing may catch and "handle" a crash, and any
debris it leaves (torn staging files, half-appended journal lines) is
what recovery must cope with.

The controller is deliberately process-global rather than thread-local:
threads sharing one cache must all see the same fault schedule.
"""

from __future__ import annotations

import errno
import hashlib
import os
import pathlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

__all__ = [
    "DiskChaos",
    "DiskFaultSchedule",
    "SimulatedCrash",
    "crashpoint",
    "using_disk_chaos",
]

PathLike = Union[str, pathlib.Path]

#: Boundary kinds a crash-point may declare.  ``write`` and ``replace``
#: boundaries are eligible for ENOSPC and torn-write injection; ``fsync``
#: boundaries for injected fsync failures.
_POINT_KINDS = ("write", "fsync", "replace")


class SimulatedCrash(BaseException):
    """A hard crash injected at a storage crash-point.

    A ``BaseException`` so it escapes every ``except OSError`` and
    ``except Exception`` in the storage layer — a simulated ``kill -9``
    must not trigger graceful-degradation handlers, and whatever state
    is on disk at that instant is what recovery gets.
    """


def _tear_file(path: PathLike, seed: int, point: str) -> None:
    """Truncate ``path`` to a deterministic prefix, simulating the torn
    tail of a write the kernel never finished."""
    target = pathlib.Path(path)
    try:
        size = target.stat().st_size
    except FileNotFoundError:
        # A crash-point announced before its file exists: nothing to tear.
        return
    if size <= 1:
        return
    digest = hashlib.sha256(
        f"repro-diskchaos-tear:{seed}:{point}:{size}".encode()
    ).digest()
    keep = 1 + int.from_bytes(digest[:8], "big") % (size - 1)
    with open(target, "r+b") as handle:
        handle.truncate(keep)


@dataclass(frozen=True)
class DiskFaultSchedule:
    """A seeded, deterministic schedule of storage faults.

    Parameters
    ----------
    seed:
        Schedule seed; equal parameters inject the exact same faults.
    enospc_rate:
        Per-hit probability (evaluated deterministically) that a
        ``write``/``replace`` boundary raises ``OSError(ENOSPC)`` — a
        full disk.
    fsync_error_rate:
        Per-hit probability that an ``fsync`` boundary raises
        ``OSError(EIO)`` — a storage stack that refused to flush.
    """

    seed: int
    enospc_rate: float = 0.0
    fsync_error_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("enospc_rate", "fsync_error_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    def draw(self, point: str, hit: int, kind: str) -> float:
        """A uniform-[0,1) value, pure in ``(seed, point, hit, kind)``."""
        digest = hashlib.sha256(
            f"repro-diskchaos:{self.seed}:{point}:{hit}:{kind}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)


class DiskChaos:
    """Controller for the storage crash-points (install with
    :func:`using_disk_chaos`).

    Three modes, combinable:

    ``record=True``
        Every crash-point hit is appended to :attr:`hits` as
        ``(name, kind, has_path)`` and nothing faults — the sweep
        harness uses one recording pass to enumerate the boundaries a
        workload crosses, then replays it ``len(hits)`` times crashing
        at each.
    ``crash_at=k``
        The ``k``-th crash-point hit (0-based, in :attr:`hits` order)
        raises :class:`SimulatedCrash`.  With ``tear=True``, a
        ``write`` boundary that carries a path first truncates that
        file to a deterministic prefix — a crash mid-write rather than
        between writes.
    ``schedule=DiskFaultSchedule(...)``
        Boundaries fault per the schedule: deterministic
        ``OSError(ENOSPC)`` at write/replace boundaries and
        ``OSError(EIO)`` at fsync boundaries.
    """

    def __init__(
        self,
        *,
        record: bool = False,
        crash_at: Optional[int] = None,
        tear: bool = False,
        schedule: Optional[DiskFaultSchedule] = None,
    ) -> None:
        if crash_at is not None and crash_at < 0:
            raise ValueError(f"crash_at must be non-negative, got {crash_at}")
        self.record = record
        self.crash_at = crash_at
        self.tear = tear
        self.schedule = schedule
        self.hits: List[Tuple[str, str, bool]] = []
        self._counts: dict = {}
        self._total = 0
        self._lock = threading.Lock()

    @property
    def total_hits(self) -> int:
        with self._lock:
            return self._total

    def visit(self, name: str, kind: Optional[str], path: Optional[PathLike]) -> None:
        """One boundary crossing: record it, then fault it if scheduled."""
        if kind is not None and kind not in _POINT_KINDS:
            raise ValueError(f"unknown crash-point kind {kind!r} at {name!r}")
        with self._lock:
            index = self._total
            self._total += 1
            hit = self._counts.get(name, 0)
            self._counts[name] = hit + 1
            self.hits.append((name, kind or "", path is not None))
        if self.record:
            return
        if self.crash_at is not None and index == self.crash_at:
            if self.tear and path is not None and kind == "write":
                seed = self.schedule.seed if self.schedule is not None else 0
                _tear_file(path, seed, name)
            raise SimulatedCrash(f"injected crash at point #{index}: {name}")
        schedule = self.schedule
        if schedule is None:
            return
        location = str(path) if path is not None else name
        if kind in ("write", "replace") and schedule.enospc_rate > 0.0:
            if schedule.draw(name, hit, "enospc") < schedule.enospc_rate:
                raise OSError(
                    errno.ENOSPC, "injected: no space left on device", location
                )
        if kind == "fsync" and schedule.fsync_error_rate > 0.0:
            if schedule.draw(name, hit, "fsync") < schedule.fsync_error_rate:
                raise OSError(
                    errno.EIO, "injected: fsync input/output error", location
                )

    def __repr__(self) -> str:
        mode = []
        if self.record:
            mode.append("record")
        if self.crash_at is not None:
            mode.append(f"crash_at={self.crash_at}" + ("+tear" if self.tear else ""))
        if self.schedule is not None:
            mode.append(f"schedule(seed={self.schedule.seed})")
        return f"DiskChaos({', '.join(mode) or 'inert'}, hits={self.total_hits})"


#: The installed controller; module-global (not thread-local) on purpose
#: — every thread of a run must share one fault schedule.
_ACTIVE: Optional[DiskChaos] = None


def crashpoint(
    name: str, kind: Optional[str] = None, path: Optional[PathLike] = None
) -> None:
    """Announce a storage boundary to the active controller, if any.

    ``name`` identifies the boundary (``cache.put.replace``), ``kind``
    classifies it for schedule-driven faults, and ``path`` — when the
    boundary has a file already on disk — enables torn-write injection.
    A no-op when no controller is installed.
    """
    chaos = _ACTIVE
    if chaos is None:
        return
    chaos.visit(name, kind, path)


@contextmanager
def using_disk_chaos(chaos: DiskChaos) -> Iterator[DiskChaos]:
    """Install ``chaos`` as the process-wide storage-fault controller."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = chaos
    try:
        yield chaos
    finally:
        _ACTIVE = previous
