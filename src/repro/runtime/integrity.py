"""Storage integrity: checksummed artifacts, quarantine, and ``repro-fsck``.

The content-addressed cache is only sound as a memoization layer if
what it serves is verifiably what was written.  This module is the
detect-verify-repair side of that contract:

digests
    Every :meth:`ResultCache.put` records the artifact's SHA-256 in a
    sidecar under ``<cache>/.sums/<key>.sha256`` (written atomically
    through the same ``.tmp`` staging directory as the artifacts).
    :meth:`ResultCache.get` re-hashes on read and refuses to serve a
    mismatch.  Verification is an execution knob — it never enters
    cache fingerprints (doctrine): a verified and an unverified run
    share their artifacts.
quarantine
    Mismatched artifacts move (atomic rename) into
    ``<cache>/quarantine/`` with their sidecar — preserved as evidence
    rather than silently deleted, invisible to the byte budget and the
    read path, counted and traced.
fsck
    :func:`fsck` scans a cache directory (and optionally its journal
    sidecar) for corrupt, unrecorded and orphaned entries;
    ``repro-fsck`` is the console doctor around it, with ``--repair``
    to quarantine, adopt digests, evict orphans and compact the
    journal.

:class:`CacheDegradedWarning` is the loud signal for the graceful-
degradation path: a full disk (``ENOSPC``) turns caching off for the
rest of the run instead of failing it — results still compute, the
warning and :meth:`ResultCache.stats` say so.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from ..obs.trace import get_tracer
from ..sim.persistence import load_result
from .diskchaos import crashpoint

__all__ = [
    "CacheDegradedWarning",
    "FsckReport",
    "artifact_digest",
    "clear_digest",
    "digest_path",
    "fsck",
    "main",
    "quarantine_artifact",
    "read_digest",
    "write_digest",
]

PathLike = Union[str, pathlib.Path]

#: Digest sidecars live here, one ``<key>.sha256`` per artifact.
SUMS_DIR = ".sums"

#: Mismatched artifacts are moved here (with their sidecar) on detection.
QUARANTINE_DIR = "quarantine"

#: Staging files older than this are leftovers of killed writers.
#: Generous on purpose: a *live* writer's staging file is seconds old,
#: so an hour can only catch the dead.
_STALE_STAGING_SECONDS = 3600.0

_HEX = set("0123456789abcdef")


class CacheDegradedWarning(RuntimeWarning):
    """The durable layer degraded (full disk) instead of failing the run.

    Raised-as-warning exactly once per degraded component: results keep
    computing, but nothing further is stored, and ``stats()`` reports
    ``degraded`` rather than pretending the cache is healthy.
    """


def note_storage_error(component: str, op: str) -> None:
    """Record a swallowed storage error so "best effort" is never silent.

    Every ``except OSError`` in the storage layer that chooses to carry
    on must at least leave this breadcrumb — the EXC004 lint rule
    rejects handlers that drop the error without it.  Traced, it is a
    ``storage.os_error`` event, counted as ``<component>.os_errors.<op>``
    by ``--metrics``.
    """
    tracer = get_tracer()
    if tracer.enabled:
        tracer.event("storage.os_error", component=component, op=op)


# -- digest sidecars -----------------------------------------------------------


def artifact_digest(path: PathLike) -> str:
    """The SHA-256 hex digest of a file's content, read in chunks."""
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            sha.update(chunk)
    return sha.hexdigest()


def digest_path(cache_dir: PathLike, key: str) -> pathlib.Path:
    """Where the digest sidecar for ``key`` lives."""
    return pathlib.Path(cache_dir) / SUMS_DIR / f"{key}.sha256"


def read_digest(cache_dir: PathLike, key: str) -> Optional[str]:
    """The recorded digest for ``key``, or None when absent/unreadable.

    A torn or garbled sidecar reads as None — the artifact is then
    treated like an unrecorded (legacy) entry and its digest re-adopted
    from content, never trusted blindly.
    """
    try:
        text = digest_path(cache_dir, key).read_text().strip()
    except FileNotFoundError:
        return None
    except OSError:
        note_storage_error("cache", "sum_read")
        return None
    if len(text) == 64 and set(text) <= _HEX:
        return text
    return None


def write_digest(cache_dir: PathLike, key: str, digest: str) -> pathlib.Path:
    """Record ``digest`` for ``key``, atomically; returns the sidecar path.

    Staged through ``<cache>/.tmp`` (the same staging directory as the
    artifacts, so the stale-staging sweep covers torn sidecar writes
    too) and published with an atomic rename.  Sidecars are advisory —
    a lost one only costs re-adoption — so they are not fsync'd.
    """
    root = pathlib.Path(cache_dir)
    staging = root / ".tmp"
    staging.mkdir(parents=True, exist_ok=True)
    (root / SUMS_DIR).mkdir(parents=True, exist_ok=True)
    temporary = staging / (
        f"{key}-{os.getpid()}-{threading.get_ident()}.sha256"
    )
    crashpoint("cache.sum.write", kind="write", path=temporary)
    temporary.write_text(digest + "\n")
    crashpoint("cache.sum.staged", kind="write", path=temporary)
    target = digest_path(root, key)
    crashpoint("cache.sum.replace", kind="replace", path=temporary)
    os.replace(temporary, target)
    return target


def clear_digest(cache_dir: PathLike, key: str) -> None:
    """Drop the digest sidecar for ``key`` (evicted/discarded artifact)."""
    try:
        digest_path(cache_dir, key).unlink()
    except FileNotFoundError:
        pass
    except OSError:
        note_storage_error("cache", "sum_unlink")


# -- quarantine ----------------------------------------------------------------


def quarantine_artifact(cache_dir: PathLike, key: str) -> bool:
    """Move ``key``'s artifact (and sidecar) into ``quarantine/``.

    Returns True iff *this call* removed the artifact from the cache
    root — the caller that sees True owns the byte-budget deduction and
    the quarantine counter, so concurrent detectors of the same corrupt
    entry can never double-subtract.  The atomic rename guarantees at
    most one caller wins.

    If the move itself fails, deletion is the fallback: a corrupt
    artifact must never stay servable.
    """
    root = pathlib.Path(cache_dir)
    source = root / f"{key}.npz"
    quarantine = root / QUARANTINE_DIR
    moved = False
    try:
        quarantine.mkdir(parents=True, exist_ok=True)
        os.replace(source, quarantine / f"{key}.npz")
        moved = True
    except FileNotFoundError:
        return False
    except OSError:
        note_storage_error("cache", "quarantine_move")
        try:
            source.unlink()
        except FileNotFoundError:
            return False
        except OSError:
            note_storage_error("cache", "quarantine_unlink")
            return False
    # The sidecar records what the artifact *should* have hashed to —
    # keep it next to the evidence (or drop it with a deleted artifact).
    sidecar = digest_path(root, key)
    try:
        if moved:
            os.replace(sidecar, quarantine / f"{key}.sha256")
        else:
            sidecar.unlink()
    except FileNotFoundError:
        pass
    except OSError:
        note_storage_error("cache", "quarantine_sum")
    return True


# -- fsck ----------------------------------------------------------------------


@dataclass
class FsckReport:
    """What :func:`fsck` found (and, under ``repair``, did)."""

    cache_dir: str
    journal_path: Optional[str] = None
    repaired: bool = False
    artifacts: int = 0
    verified: int = 0
    corrupt: List[str] = field(default_factory=list)
    missing_sums: List[str] = field(default_factory=list)
    orphaned_sums: List[str] = field(default_factory=list)
    stale_staging: int = 0
    quarantine_entries: int = 0
    journal_records: int = 0
    journal_skipped: int = 0
    journal_specs: int = 0
    orphaned_checkpoints: List[str] = field(default_factory=list)
    journal_missing: List[str] = field(default_factory=list)
    actions: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No repair-worthy findings.

        ``journal_missing`` (journaled artifacts the cache no longer
        holds) is deliberately *not* an issue: the journal is advisory
        and a resume simply recomputes.  ``quarantine_entries`` is
        evidence of past repairs, not a present problem.
        """
        return not (
            self.corrupt
            or self.missing_sums
            or self.orphaned_sums
            or self.orphaned_checkpoints
            or self.stale_staging
            or self.journal_skipped
        )

    def as_dict(self) -> dict:
        return {
            "cache_dir": self.cache_dir,
            "journal_path": self.journal_path,
            "repaired": self.repaired,
            "artifacts": self.artifacts,
            "verified": self.verified,
            "corrupt": list(self.corrupt),
            "missing_sums": list(self.missing_sums),
            "orphaned_sums": list(self.orphaned_sums),
            "stale_staging": self.stale_staging,
            "quarantine_entries": self.quarantine_entries,
            "journal_records": self.journal_records,
            "journal_skipped": self.journal_skipped,
            "journal_specs": self.journal_specs,
            "orphaned_checkpoints": list(self.orphaned_checkpoints),
            "journal_missing": list(self.journal_missing),
            "actions": list(self.actions),
            "clean": self.clean,
        }

    def render(self) -> str:
        lines = [f"repro-fsck: {self.cache_dir}"]
        lines.append(
            f"  artifacts: {self.artifacts} "
            f"(verified {self.verified}, corrupt {len(self.corrupt)}, "
            f"unrecorded {len(self.missing_sums)})"
        )
        lines.append(
            f"  sums: orphaned {len(self.orphaned_sums)}; "
            f"staging: stale {self.stale_staging}; "
            f"quarantine: {self.quarantine_entries} entr"
            f"{'y' if self.quarantine_entries == 1 else 'ies'}"
        )
        if self.journal_path is not None:
            lines.append(
                f"  journal: {self.journal_records} records "
                f"(skipped {self.journal_skipped}, "
                f"specs {self.journal_specs}, "
                f"orphaned checkpoints {len(self.orphaned_checkpoints)}, "
                f"missing artifacts {len(self.journal_missing)})"
            )
        for key in self.corrupt:
            lines.append(f"  corrupt: {key}")
        for key in self.orphaned_sums:
            lines.append(f"  orphaned sum: {key}")
        for action in self.actions:
            lines.append(f"  repaired: {action}")
        lines.append(
            "  status: " + ("clean" if self.clean else "ISSUES FOUND"
                            + ("" if self.repaired else " (rerun with --repair)"))
        )
        return "\n".join(lines)


def _scan_journal(
    path: pathlib.Path,
) -> Tuple[Set[str], Dict[str, Dict[int, str]], int, int]:
    """Raw journal scan: ``(completed specs, spec -> shard records,
    record count, skipped lines)``.

    Unlike :class:`~repro.runtime.journal.RunJournal` replay — which
    drops a finished spec's shard records as dead weight — fsck needs
    those records to find the orphaned checkpoint artifacts they pin.
    """
    specs: Set[str] = set()
    shards: Dict[str, Dict[int, str]] = {}
    records = 0
    skipped = 0
    try:
        with open(path, "r") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    skipped += 1
                    continue
                if not isinstance(record, dict):
                    skipped += 1
                    continue
                kind = record.get("e")
                if kind == "header":
                    continue
                if kind == "spec" and isinstance(record.get("spec"), str):
                    specs.add(record["spec"])
                    records += 1
                elif (
                    kind == "shard"
                    and isinstance(record.get("spec"), str)
                    and isinstance(record.get("shard"), int)
                    and isinstance(record.get("key"), str)
                ):
                    shards.setdefault(record["spec"], {})[record["shard"]] = (
                        record["key"]
                    )
                    records += 1
                else:
                    skipped += 1
    except OSError:
        note_storage_error("fsck", "journal_read")
    return specs, shards, records, skipped


def fsck(
    cache_dir: PathLike,
    journal: Optional[PathLike] = None,
    *,
    repair: bool = False,
) -> FsckReport:
    """Scan a cache directory (and journal) for integrity problems.

    With ``repair=True``: corrupt artifacts are quarantined, unrecorded
    digests adopted from content, orphaned sidecars and checkpoint
    artifacts removed, stale staging swept, and the journal compacted.
    Without it, the scan is strictly read-only.
    """
    root = pathlib.Path(cache_dir)
    report = FsckReport(
        cache_dir=str(root),
        journal_path=None if journal is None else str(journal),
        repaired=repair,
    )

    # -- artifacts vs digest sidecars ------------------------------------
    known_keys: Set[str] = set()
    for path in sorted(root.glob("*.npz")):
        key = path.stem
        known_keys.add(key)
        report.artifacts += 1
        try:
            actual = artifact_digest(path)
        except OSError:
            note_storage_error("fsck", "digest")
            report.corrupt.append(key)
            continue
        expected = read_digest(root, key)
        if expected is None:
            # No recorded digest (pre-integrity cache, or a torn
            # sidecar): trust content only if it still loads.
            try:
                load_result(path)
            except Exception:
                report.corrupt.append(key)
            else:
                report.missing_sums.append(key)
                if repair:
                    write_digest(root, key, actual)
                    report.actions.append(f"adopted digest for {key[:12]}")
        elif actual == expected:
            report.verified += 1
        else:
            report.corrupt.append(key)
    if repair:
        for key in report.corrupt:
            if quarantine_artifact(root, key):
                known_keys.discard(key)
                report.actions.append(f"quarantined {key[:12]}")

    # -- orphaned sidecars ------------------------------------------------
    sums = root / SUMS_DIR
    if sums.is_dir():
        for path in sorted(sums.glob("*.sha256")):
            if path.stem in known_keys:
                continue
            report.orphaned_sums.append(path.stem)
            if repair:
                clear_digest(root, path.stem)
                report.actions.append(f"removed orphaned sum {path.stem[:12]}")

    # -- stale staging ----------------------------------------------------
    staging = root / ".tmp"
    if staging.is_dir():
        cutoff = time.time() - _STALE_STAGING_SECONDS
        for path in sorted(staging.iterdir()):
            try:
                stale = path.stat().st_mtime <= cutoff
            except OSError:
                note_storage_error("fsck", "staging_stat")
                continue
            if not stale:
                continue
            report.stale_staging += 1
            if repair:
                try:
                    path.unlink()
                    report.actions.append(f"swept stale staging {path.name}")
                except OSError:
                    note_storage_error("fsck", "staging_unlink")

    # -- quarantine (informational) ---------------------------------------
    quarantine = root / QUARANTINE_DIR
    if quarantine.is_dir():
        report.quarantine_entries = sum(
            1 for _ in quarantine.glob("*.npz")
        )

    # -- journal ----------------------------------------------------------
    if journal is not None and pathlib.Path(journal).exists():
        jpath = pathlib.Path(journal)
        specs, shards, records, skipped = _scan_journal(jpath)
        report.journal_records = records
        report.journal_skipped = skipped
        report.journal_specs = len(specs)
        for spec in sorted(shards):
            for ordinal in sorted(shards[spec]):
                key = shards[spec][ordinal]
                if spec in specs and key in known_keys:
                    # The spec's merged artifact landed; its per-shard
                    # checkpoints are dead weight the runner normally
                    # discards — a crash mid-discard leaves them pinned.
                    report.orphaned_checkpoints.append(key)
                elif spec not in specs and key not in known_keys:
                    report.journal_missing.append(key)
        for spec in sorted(specs):
            if spec not in known_keys:
                report.journal_missing.append(spec)
        if repair:
            for key in report.orphaned_checkpoints:
                try:
                    (root / f"{key}.npz").unlink()
                except FileNotFoundError:
                    continue
                except OSError:
                    note_storage_error("fsck", "checkpoint_unlink")
                    continue
                clear_digest(root, key)
                report.actions.append(f"evicted orphaned checkpoint {key[:12]}")
            from .journal import RunJournal

            with RunJournal(jpath) as live:
                reclaimed = live.compact()
            report.actions.append(f"compacted journal (-{reclaimed} bytes)")

    return report


# -- CLI -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fsck",
        description=(
            "Check (and repair) a repro result cache: verify artifact "
            "digests, find orphaned sidecars and stale staging, and "
            "cross-check the resume journal."
        ),
    )
    parser.add_argument("cache", help="cache directory to check")
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="journal sidecar to cross-check "
        "(default: <cache>/journal.jsonl when present)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )
    parser.add_argument(
        "--repair",
        action="store_true",
        help="quarantine corrupt artifacts, adopt missing digests, "
        "remove orphans, sweep stale staging, compact the journal",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; exit 0 when (post-repair) clean, 1 otherwise."""
    args = build_parser().parse_args(argv)
    root = pathlib.Path(args.cache)
    if not root.is_dir():
        print(f"repro-fsck: {args.cache}: not a directory", file=sys.stderr)
        return 2
    journal: Optional[pathlib.Path] = None
    if args.journal is not None:
        journal = pathlib.Path(args.journal)
    elif (root / "journal.jsonl").exists():
        journal = root / "journal.jsonl"
    report = fsck(root, journal=journal, repair=args.repair)
    # After a repair, the exit code reflects a fresh read-only re-scan:
    # "did the repair actually leave the cache clean", not "did we try".
    verdict = fsck(root, journal=journal) if args.repair else report
    if args.json:
        payload = report.as_dict()
        payload["clean"] = verdict.clean
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.render())
        if args.repair:
            print(
                "post-repair: "
                + ("clean" if verdict.clean else "issues remain")
            )
    return 0 if verdict.clean else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
