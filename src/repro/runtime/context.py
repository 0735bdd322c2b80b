"""The ambient default runtime.

Experiment configs are frozen dataclasses created in many places; the
CLI's ``--workers``/``--cache`` flags would otherwise have to thread
through every one of them.  Instead the CLI installs a process-wide
default :class:`~repro.runtime.runner.ParallelRunner`, and the
execution chokepoints — the experiment layer's grid helpers
(:mod:`repro.experiments._common`) and
:meth:`repro.chainsim.harness.SystemExperiment.run` — consult it.

Every ensemble runs through a runner: when none is installed,
:func:`get_default_runtime` hands out a serial, uncached one.  That
fallback lives here and nowhere else, so whether a runtime was
configured changes execution only, never the random-stream layout.

The default is deliberately *not* consulted by shard workers: worker
entry points call the engine and the harness's shard body directly, so
a forked child that inherited a configured runtime cannot recurse into
a new pool.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from .runner import ParallelRunner

__all__ = ["get_default_runtime", "set_default_runtime", "using_runtime"]

_default_runtime = None


def get_default_runtime() -> ParallelRunner:
    """The ambient :class:`ParallelRunner`.

    A fresh serial, uncached runner when none is installed.
    """
    if _default_runtime is None:
        return ParallelRunner()
    return _default_runtime


def set_default_runtime(runner):
    """Install ``runner`` (or None) as the ambient runtime.

    Returns the previously installed runtime (None when there was
    none) so callers can restore it.
    """
    global _default_runtime
    previous = _default_runtime
    _default_runtime = runner
    return previous


@contextlib.contextmanager
def using_runtime(runner) -> Iterator[None]:
    """Scope ``runner`` as the ambient runtime for a ``with`` block."""
    previous = set_default_runtime(runner)
    try:
        yield
    finally:
        set_default_runtime(previous)
