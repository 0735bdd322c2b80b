"""Content-addressed storage of merged ensemble results.

The cache is a directory of ``<sha256>.npz`` artifacts written through
:mod:`repro.sim.persistence`, keyed by the canonical fingerprint of
the producing spec (:func:`repro.runtime.spec.spec_fingerprint`).
Because the key covers every run parameter *and* the shard plan, a hit
is guaranteed to be byte-equal to what re-running the spec would
produce — repeated experiment invocations become a single ``.npz``
load.

Corrupt or truncated entries (e.g. a previous run killed mid-write)
are treated as misses and evicted; writes go through a temp file and
an atomic rename so readers never observe partial artifacts.  An
optional ``max_bytes`` budget bounds the directory: once a write
pushes the stored artifacts over it, least-recently-used entries are
evicted (and counted in :meth:`ResultCache.stats`).

Integrity (:mod:`repro.runtime.integrity`) closes the end-to-end loop:
every put records the artifact's SHA-256 in a sidecar and every get
re-hashes before serving (``verify=False`` opts out; the knob never
enters fingerprints).  A mismatch — bit rot, torn write that still
parses, a tampered file — is moved to ``<cache>/quarantine/`` and read
as a miss, so what the cache serves is always verifiably what was
written.  A full disk (``ENOSPC``) degrades the cache to pass-through
behind a :class:`~repro.runtime.integrity.CacheDegradedWarning`
instead of failing the run, and every write/fsync/rename boundary is
announced via :func:`repro.runtime.diskchaos.crashpoint` so the chaos
sweep can prove recovery at each one.

Every operation is safe under concurrent readers and writers — threads
or processes sharing one cache directory may interleave puts, gets, and
budget evictions freely.
"""

from __future__ import annotations

import errno
import os
import pathlib
import threading
import time
import uuid
import warnings
from typing import Optional, Union

from ..core.results import EnsembleResult
from ..core.stats import StatsSummary
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from ..sim.persistence import load_result, save_result
from .diskchaos import crashpoint
from .integrity import (
    _STALE_STAGING_SECONDS,
    SUMS_DIR,
    CacheDegradedWarning,
    artifact_digest,
    clear_digest,
    note_storage_error,
    quarantine_artifact,
    read_digest,
    write_digest,
)

__all__ = ["ResultCache"]

PathLike = Union[str, pathlib.Path]


def _fsync_path(path: PathLike, point: str = "cache.fsync") -> None:
    """Best-effort fsync of a file or directory (directory fsync is what
    makes an atomic rename durable on POSIX; both are advisory on
    platforms that refuse — but a refusal is counted, never silent)."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        note_storage_error("cache", "fsync_open")
        return
    try:
        crashpoint(point, kind="fsync", path=path)
        os.fsync(fd)
    except OSError:
        note_storage_error("cache", "fsync")
    finally:
        os.close(fd)


class ResultCache:
    """A directory of content-addressed result artifacts.

    Artifacts are :class:`EnsembleResult` trajectories or
    ``reduce="stats"`` :class:`StatsSummary` sketches — the fingerprint
    carries the ``reduce`` knob, so one key only ever maps to one kind.

    Parameters
    ----------
    directory:
        Cache root; created on first use.
    max_bytes:
        Optional size budget for the stored artifacts.  When a
        :meth:`put` pushes the total artifact size above the budget,
        the least-recently-used entries (hits refresh recency) are
        evicted until the cache fits again — the entry just written is
        never evicted, so a single oversized result still lands and
        simply has the cache to itself.  ``None`` (default) means
        unbounded.
    verify:
        Whether :meth:`get` re-hashes artifacts against their recorded
        SHA-256 before serving (default True).  A mismatch is
        quarantined and read as a miss; artifacts without a recorded
        digest (pre-integrity caches) are adopted on first read.  An
        execution knob: it never enters cache fingerprints, so
        verified and unverified runs share their artifacts.

    Examples
    --------
    >>> import tempfile
    >>> from repro.protocols import ProofOfWork
    >>> from repro.core.miners import Allocation
    >>> from repro.runtime import ParallelRunner, SimulationSpec
    >>> spec = SimulationSpec(ProofOfWork(0.01), Allocation.two_miners(0.2),
    ...                       trials=50, horizon=100, seed=7)
    >>> with tempfile.TemporaryDirectory() as root:
    ...     runner = ParallelRunner(cache=root)
    ...     cold = runner.run(spec)   # simulates, stores
    ...     warm = runner.run(spec)   # loads
    ...     runner.cache.hits
    1
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        max_bytes: Optional[int] = None,
        verify: bool = True,
    ) -> None:
        self.directory = pathlib.Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise ValueError(
                f"cache path {str(self.directory)!r} exists and is not a directory"
            )
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes!r}")
        self.max_bytes = max_bytes
        self.verify = verify
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.quarantined = 0
        self.io_errors = 0
        # Set once ENOSPC proves the disk full: the cache turns into a
        # pass-through (gets still serve, puts stop) behind one loud
        # CacheDegradedWarning, and stats() reports it.
        self.degraded = False
        # Approximate occupancy for budgeted caches: initialized by one
        # directory scan, then advanced by put sizes so the common
        # under-budget put stays O(1).  Every over-budget rescan (and
        # any concurrent writer's evictions it observes) re-syncs it.
        self._approx_bytes: Optional[int] = None
        # Counter updates must be atomic: threads sharing one cache hit
        # get/put concurrently.
        self._stats_lock = threading.Lock()
        # Writers killed mid-put leave files in .tmp that no rename will
        # ever claim; sweep the clearly-dead ones (by age, so a live
        # concurrent writer's staging is untouched).  Staging files are
        # never served and never counted by the byte budget either way
        # — _scan_bytes only globs the cache root.
        self._sweep_stale_staging()

    def _sweep_stale_staging(self) -> int:
        """Delete staging leftovers older than the staleness horizon."""
        staging = self.directory / ".tmp"
        if not staging.is_dir():
            return 0
        removed = 0
        cutoff = time.time() - _STALE_STAGING_SECONDS
        for path in staging.iterdir():
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                note_storage_error("cache", "staging_sweep")
                continue
        return removed

    def path_for(self, key: str) -> pathlib.Path:
        """The artifact path a fingerprint maps to."""
        if not key or any(c in key for c in "/\\"):
            raise ValueError(f"invalid cache key {key!r}")
        return self.directory / f"{key}.npz"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def get(self, key: str) -> Union[EnsembleResult, StatsSummary, None]:
        """Load the result stored under ``key``, or None on a miss.

        Artifacts whose bytes no longer match their recorded SHA-256
        are quarantined and count as misses (unless ``verify=False``);
        unreadable artifacts count as misses and are evicted so the
        slot can be rewritten.
        """
        tracer = get_tracer()
        if tracer.enabled:
            # Truncated key only: enough to correlate spans with
            # artifacts, without bloating every trace record.
            with tracer.span("cache.get", key=key[:12]) as span:
                result = self._get(key)
                span.set("hit", result is not None)
            return result
        return self._get(key)

    def _get(self, key: str) -> Union[EnsembleResult, StatsSummary, None]:
        path = self.path_for(key)
        if not path.exists():
            self._count("misses")
            return None
        if self.verify and not self._verify_artifact(key, path):
            self._count("misses")
            return None
        try:
            result = load_result(path)
        except Exception:
            removed = 0
            if self.max_bytes is not None:
                try:
                    removed = path.stat().st_size
                except OSError:
                    removed = 0
            try:
                path.unlink()
            except FileNotFoundError:
                # Another reader evicted it between stat and unlink and
                # already deducted the bytes; deducting again would
                # undercount occupancy.
                removed = 0
            except OSError:
                removed = 0
            clear_digest(self.directory, key)
            if removed:
                # Keep the running occupancy estimate honest: a corrupt
                # artifact evicted here would otherwise stay counted
                # until the next over-budget rescan and trigger
                # premature LRU evictions of live entries.
                with self._stats_lock:
                    if self._approx_bytes is not None:
                        self._approx_bytes = max(0, self._approx_bytes - removed)
            self._count("misses")
            return None
        if self.max_bytes is not None:
            try:
                # Refresh recency so the LRU eviction order tracks use,
                # not just creation.  Unbounded caches never consult
                # recency, so their artifact mtimes are left alone.
                os.utime(path, None)
            except OSError:
                note_storage_error("cache", "utime")
        self._count("hits")
        return result

    def _verify_artifact(self, key: str, path: pathlib.Path) -> bool:
        """Whether the artifact's bytes match its recorded digest.

        Artifacts without a recorded digest (written before the
        integrity layer, or whose sidecar write was torn) are
        *adopted*: their content digest is recorded so the next read
        verifies end-to-end.  A mismatch quarantines the artifact and
        reads as a miss — never served, never silently deleted.
        """
        try:
            actual = artifact_digest(path)
        except OSError:
            # Vanished between exists() and open (concurrent eviction)
            # or unreadable: let the load path classify it.
            note_storage_error("cache", "digest")
            return True
        expected = read_digest(self.directory, key)
        if expected is None:
            try:
                write_digest(self.directory, key, actual)
            except OSError:
                note_storage_error("cache", "sum_write")
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("cache.sums_adopted").inc()
            return True
        if actual == expected:
            return True
        self._quarantine(key, path)
        return False

    def _quarantine(self, key: str, path: pathlib.Path) -> None:
        """Move a digest-mismatched artifact out of the serving path.

        Only the caller whose rename wins counts the quarantine and
        deducts the bytes — concurrent detectors of the same corrupt
        entry can never double-subtract from the budget.
        """
        size = 0
        if self.max_bytes is not None:
            try:
                size = path.stat().st_size
            except OSError:
                size = 0
        if not quarantine_artifact(self.directory, key):
            return
        with self._stats_lock:
            self.quarantined += 1
            if size and self._approx_bytes is not None:
                self._approx_bytes = max(0, self._approx_bytes - size)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("cache.quarantined").inc()
            if size:
                metrics.counter("cache.quarantined_bytes").inc(size)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("cache.quarantine", key=key[:12], bytes=size)

    def _count(self, counter: str) -> None:
        with self._stats_lock:
            setattr(self, counter, getattr(self, counter) + 1)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter(f"cache.{counter}").inc()

    def put(
        self, key: str, result: Union[EnsembleResult, StatsSummary]
    ) -> pathlib.Path:
        """Store ``result`` under ``key``, atomically; returns the path.

        Writes land in a ``.tmp`` subdirectory first so a killed run
        can never leave a partial (or phantom) entry among the
        artifacts, then move into place with an atomic rename.  The
        staging name is unique per writer — pid, thread id and a
        random component — so concurrent threads (or processes) racing
        to store the same key each write their own file and the last
        atomic rename wins intact.

        A full disk (``ENOSPC``) degrades the cache to pass-through
        behind a :class:`CacheDegradedWarning`: this and every further
        put returns the would-be path without storing anything.
        """
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("cache.put", key=key[:12]) as span:
                path = self._put(key, result)
                try:
                    span.set("bytes", path.stat().st_size)
                except OSError:
                    note_storage_error("cache", "stat")
            return path
        return self._put(key, result)

    def _put(
        self, key: str, result: Union[EnsembleResult, StatsSummary]
    ) -> pathlib.Path:
        path = self.path_for(key)
        if self.degraded:
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("cache.puts_skipped_degraded").inc()
            return path
        try:
            return self._write(key, result, path)
        except OSError as error:
            if error.errno == errno.ENOSPC:
                self._degrade(error)
                return path
            with self._stats_lock:
                self.io_errors += 1
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("cache.io_errors").inc()
            raise

    def _write(
        self,
        key: str,
        result: Union[EnsembleResult, StatsSummary],
        path: pathlib.Path,
    ) -> pathlib.Path:
        staging = self.directory / ".tmp"
        staging.mkdir(parents=True, exist_ok=True)
        temporary = staging / (
            f"{key}-{os.getpid()}-{threading.get_ident()}"
            f"-{uuid.uuid4().hex[:8]}.npz"
        )
        try:
            crashpoint("cache.put.save", kind="write", path=temporary)
            written = save_result(result, temporary)
            crashpoint("cache.put.staged", kind="write", path=written)
            # Durability before visibility: the staging bytes are
            # fsync'd before the rename publishes them, and the
            # directory after, so a crash (or power cut) can never
            # leave a *visible* artifact with unwritten tails — a
            # half-staged file just stays in .tmp, invisible to readers
            # and the byte budget, until swept.
            _fsync_path(written, point="cache.put.fsync")
            # The digest is recorded before the artifact is published,
            # so no reader ever sees an artifact whose sidecar write is
            # still pending.  A crash between the two is safe either
            # way: same-key artifacts are byte-identical by doctrine,
            # so an early sidecar matches whatever artifact it meets,
            # and a sidecar without any artifact is just an orphan for
            # fsck to sweep.
            write_digest(self.directory, key, artifact_digest(written))
            replaced = 0
            if self.max_bytes is not None:
                try:
                    # Same-key overwrite: the bytes being replaced
                    # leave the directory with the rename and must not
                    # stay counted.
                    replaced = path.stat().st_size
                except OSError:
                    replaced = 0
            crashpoint("cache.put.replace", kind="replace", path=written)
            os.replace(written, path)
        except OSError:
            # A *failed* (not crashed) put cleans up after itself
            # rather than pinning the staging file until the age sweep.
            try:
                temporary.unlink()
            except FileNotFoundError:
                pass
            except OSError:
                note_storage_error("cache", "staging_cleanup")
            raise
        _fsync_path(self.directory, point="cache.put.dirsync")
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("cache.puts").inc()
            try:
                metrics.counter("cache.put_bytes").inc(path.stat().st_size)
            except OSError:
                note_storage_error("cache", "stat")
        if self.max_bytes is not None:
            try:
                added = path.stat().st_size - replaced
            except OSError:
                added = 0
            with self._stats_lock:
                if self._approx_bytes is None:
                    self._approx_bytes = self._scan_bytes()
                else:
                    self._approx_bytes += added
                over_budget = self._approx_bytes > self.max_bytes
            if over_budget:
                self._evict_over_budget(keep=path)
        return path

    def _degrade(self, error: OSError) -> None:
        """Flip to pass-through after ENOSPC — loudly, exactly once."""
        with self._stats_lock:
            already = self.degraded
            self.degraded = True
        if already:
            return
        warnings.warn(
            f"result cache at {str(self.directory)!r} degraded to "
            f"pass-through after ENOSPC ({error}); results keep "
            "computing but are no longer stored",
            CacheDegradedWarning,
            stacklevel=4,
        )
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("cache.degraded").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("cache.degraded")

    def _scan_bytes(self) -> int:
        total = 0
        for path in self.directory.glob("*.npz"):
            try:
                total += path.stat().st_size
            except OSError:
                note_storage_error("cache", "stat")
                continue
        return total

    def _evict_over_budget(self, keep: pathlib.Path) -> None:
        """Delete least-recently-used artifacts until the budget fits.

        ``keep`` (the entry just written) is exempt so a put can never
        evict its own result.  Concurrent writers may race over the
        same entries; every stat/unlink tolerates a file that another
        writer already removed.
        """
        entries = []
        for path in self.directory.glob("*.npz"):
            try:
                stat = path.stat()
            except OSError:
                note_storage_error("cache", "stat")
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _, size, _ in entries)
        if total > self.max_bytes:
            tracer = get_tracer()
            entries.sort(key=lambda entry: entry[0])
            for _, size, path in entries:
                if total <= self.max_bytes:
                    break
                if path == keep:
                    continue
                try:
                    path.unlink()
                except FileNotFoundError:
                    # A concurrent writer already evicted it; the bytes
                    # are gone either way, so count them as freed or
                    # this writer would over-evict live entries.
                    total -= size
                    continue
                except OSError:
                    note_storage_error("cache", "evict")
                    continue
                clear_digest(self.directory, path.stem)
                total -= size
                self._count("evictions")
                metrics = get_metrics()
                if metrics.enabled:
                    metrics.counter("cache.evicted_bytes").inc(size)
                if tracer.enabled:
                    tracer.event(
                        "cache.evict", key=path.stem[:12], bytes=size
                    )
        with self._stats_lock:
            # The scan is ground truth; re-sync the running estimate.
            self._approx_bytes = total

    def discard(self, key: str) -> bool:
        """Remove the artifact stored under ``key``; True if one existed.

        Not counted as an eviction — this is deliberate removal (the
        runner drops per-shard resume checkpoints once their spec's
        merged artifact lands), not budget pressure.
        """
        path = self.path_for(key)
        size = 0
        if self.max_bytes is not None:
            try:
                size = path.stat().st_size
            except OSError:
                size = 0
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        except OSError:
            note_storage_error("cache", "discard")
            return False
        clear_digest(self.directory, key)
        if size:
            with self._stats_lock:
                if self._approx_bytes is not None:
                    self._approx_bytes = max(0, self._approx_bytes - size)
        return True

    def stats(self) -> dict:
        """Counters and occupancy: hits, misses, evictions, quarantined,
        io_errors, degraded, entries, bytes."""
        with self._stats_lock:
            hits, misses, evictions = self.hits, self.misses, self.evictions
            quarantined = self.quarantined
            io_errors = self.io_errors
            degraded = self.degraded
        entries = 0
        total = 0
        if self.directory.exists():
            for path in self.directory.glob("*.npz"):
                try:
                    total += path.stat().st_size
                except OSError:
                    note_storage_error("cache", "stat")
                    continue
                entries += 1
        return {
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "quarantined": quarantined,
            "io_errors": io_errors,
            "degraded": degraded,
            "entries": entries,
            "bytes": total,
            "max_bytes": self.max_bytes,
        }

    def clear(self) -> int:
        """Delete every artifact (and staging leftovers, and digest
        sidecars); returns the number of entries removed, staging
        leftovers included (sidecars are not counted — they shadow
        their artifacts)."""
        removed = 0
        if self.directory.exists():
            for path in self.directory.glob("*.npz"):
                path.unlink()
                removed += 1
            for path in self.directory.glob(".tmp/*.npz"):
                path.unlink()
                removed += 1
            for path in self.directory.glob(f"{SUMS_DIR}/*.sha256"):
                path.unlink()
        with self._stats_lock:
            self._approx_bytes = 0
        return removed

    def __len__(self) -> int:
        if not self.directory.exists():
            return 0
        return sum(1 for _ in self.directory.glob("*.npz"))

    def __repr__(self) -> str:
        budget = "" if self.max_bytes is None else f", max_bytes={self.max_bytes}"
        degraded = ", degraded" if self.degraded else ""
        return (
            f"ResultCache({str(self.directory)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}{budget}{degraded})"
        )
