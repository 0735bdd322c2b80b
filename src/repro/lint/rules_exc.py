"""EXC: no silently swallowed failures in retry/salvage paths.

The executors capture shard exceptions *as data* (``ShardFailure``)
and the runner salvages completed specs around failed ones — both
depend on every exception being either re-raised, recorded, or
deliberately classified.  A bare ``except:`` (which also catches
``KeyboardInterrupt``/``SystemExit``) or a broad handler whose body is
just ``pass`` erases failures the retry machinery needs to see.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from .core import Finding, LintContext, Rule, register
from .doctrine import STORAGE_MODULES, SWALLOW_MODULES

__all__ = [
    "BareExcept",
    "SwallowedBroadExcept",
    "BaseExceptionNoReraise",
    "SilentStorageSwallow",
]

_BROAD = ("Exception", "BaseException")

#: The broad OS-error spellings EXC004 cares about.  Narrow subclasses
#: (FileNotFoundError, FileExistsError, ...) name one *expected*
#: condition and may be dropped; catching the whole OSError family and
#: discarding it hides disk trouble.
_OS_BROAD = ("OSError", "IOError", "EnvironmentError")


def _caught_names(handler: ast.ExceptHandler) -> List[str]:
    kinds = []
    node = handler.type
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    for entry in nodes:
        if isinstance(entry, ast.Name):
            kinds.append(entry.id)
        elif isinstance(entry, ast.Attribute):
            kinds.append(entry.attr)
    return kinds


def _body_is_trivial(handler: ast.ExceptHandler) -> bool:
    """Whether the handler only passes/continues (discarding the error)."""
    for stmt in handler.body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
        ):
            continue  # docstring or Ellipsis
        return False
    return True


def _has_bare_raise(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(node, ast.Raise)
        for node in ast.walk(handler)
    )


@register
class BareExcept(Rule):
    id = "EXC001"
    summary = "bare 'except:' catches KeyboardInterrupt and SystemExit"
    scope = ("repro/*",)

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield ctx.finding(
                    self, node,
                    "bare 'except:': name the exceptions this path can "
                    "absorb (it currently also eats KeyboardInterrupt "
                    "and SystemExit)",
                )


@register
class SwallowedBroadExcept(Rule):
    id = "EXC002"
    summary = ("broad except with a pass-only body silently swallows "
               "shard failures in retry/salvage paths")
    scope = SWALLOW_MODULES

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            if not any(name in _BROAD for name in _caught_names(node)):
                continue
            if _body_is_trivial(node):
                yield ctx.finding(
                    self, node,
                    "broad exception handler discards the error: the "
                    "retry machinery classifies failures by type, so "
                    "record it as a ShardFailure or re-raise",
                )


def _body_discards_error(handler: ast.ExceptHandler) -> bool:
    """Whether the handler drops the error without any trace: only
    pass/continue/constant expressions and value-free or constant
    ``return`` statements.  A handler that binds a fallback, records the
    error, warns, or re-raises is substantive."""
    for stmt in handler.body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
        ):
            continue  # docstring or Ellipsis
        if isinstance(stmt, ast.Return) and (
            stmt.value is None or isinstance(stmt.value, ast.Constant)
        ):
            continue
        return False
    return True


@register
class SilentStorageSwallow(Rule):
    id = "EXC004"
    summary = ("'except OSError' in the durable layer must count, warn, "
               "or re-raise — never silently drop a disk error")
    scope = STORAGE_MODULES

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            caught = _caught_names(node)
            if not any(name in _OS_BROAD or name in _BROAD for name in caught):
                continue
            if _body_discards_error(node):
                yield ctx.finding(
                    self, node,
                    "storage-path exception handler discards the error: "
                    "a full disk or failed write would vanish here — "
                    "count it (note_storage_error), warn, re-raise, or "
                    "narrow the catch to the expected condition",
                )


@register
class BaseExceptionNoReraise(Rule):
    id = "EXC003"
    summary = "'except BaseException' must re-raise"
    scope = ("repro/*",)

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            if "BaseException" not in _caught_names(node):
                continue
            if not _has_bare_raise(node):
                yield ctx.finding(
                    self, node,
                    "'except BaseException' without a raise: interpreter "
                    "shutdown signals must propagate",
                )
