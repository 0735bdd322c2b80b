"""LCK: shared mutable state must be written under its owning lock.

Any caller sharing one :class:`~repro.runtime.cache.ResultCache`,
tracer or runner across threads hits their state from every thread at
once; an unlocked read-modify-write there loses updates
silently.  **LCK001** enforces the discipline statically: inside a
lock-owning class, writes to guarded attributes of ``self`` must sit
lexically inside ``with self.<lock>:``.  Guarded attributes come from
the explicit doctrine table
(:data:`repro.lint.doctrine.LOCK_GUARDED`) *plus* inference: any
attribute the class writes under its lock somewhere is guarded
everywhere (so new shared state is covered without a config edit).
The init-family methods are exempt — construction happens before the
object is shared.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from .core import Finding, LintContext, Rule, dotted_name, register
from .doctrine import LOCK_GUARDED, LOCK_MODULES, MUTATOR_METHODS

__all__ = ["UnlockedSharedWrite"]

_INIT_METHODS = ("__init__", "__new__", "__post_init__")

_LOCK_CONSTRUCTORS = {"threading.Lock", "threading.RLock"}

_SCOPE_STMTS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _detected_lock_attr(cls: ast.ClassDef) -> Optional[str]:
    """The attribute name ``__init__`` binds a threading lock to, if any."""
    for stmt in cls.body:
        if not (isinstance(stmt, ast.FunctionDef) and stmt.name in _INIT_METHODS):
            continue
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Assign):
                continue
            if not (
                isinstance(node.value, ast.Call)
                and dotted_name(node.value.func) in _LOCK_CONSTRUCTORS
            ):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    return target.attr
    return None


def _with_holds_lock(node: ast.With, lock_attr: str) -> bool:
    """Whether a ``with`` statement acquires ``<anything>.<lock_attr>``."""
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Attribute) and expr.attr == lock_attr:
            return True
    return False


def _child_bodies(stmt: ast.stmt) -> Iterator[List[ast.stmt]]:
    """The nested statement lists of a compound statement."""
    for field_name in ("body", "orelse", "finalbody"):
        body = getattr(stmt, field_name, None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            yield body
    for handler in getattr(stmt, "handlers", []) or []:
        yield handler.body
    for case in getattr(stmt, "cases", []) or []:
        yield case.body


def _own_nodes(stmt: ast.stmt) -> Iterator[ast.AST]:
    """Walk the parts of ``stmt`` that execute *at this nesting level*:
    for a simple statement, everything; for a compound statement, only
    its header expressions (test, iterable, context managers) — the
    nested bodies are traversed separately so lock state stays right
    and nothing is visited twice."""
    if not any(True for _ in _child_bodies(stmt)):
        yield from ast.walk(stmt)
        return
    for field_name, value in ast.iter_fields(stmt):
        if field_name in ("body", "orelse", "finalbody", "handlers", "cases"):
            continue
        values = value if isinstance(value, list) else [value]
        for entry in values:
            if isinstance(entry, ast.AST):
                yield from ast.walk(entry)


def _lexical_walk(
    body: Iterable[ast.stmt], lock_attr: str, in_lock: bool
) -> Iterator[Tuple[ast.AST, bool]]:
    """Yield ``(node, lock_held)`` over ``body``, tracking ``with
    <lock_attr>`` nesting lexically.  Nested function/class definitions
    are skipped (they execute later, under their own call discipline)."""
    for stmt in body:
        if isinstance(stmt, _SCOPE_STMTS):
            continue
        for node in _own_nodes(stmt):
            yield node, in_lock
        held = in_lock or (
            isinstance(stmt, ast.With) and _with_holds_lock(stmt, lock_attr)
        )
        for child in _child_bodies(stmt):
            yield from _lexical_walk(child, lock_attr, held)


def _self_writes(node: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(attr, site)`` for every write ``node`` performs on an
    attribute of ``self``: plain/augmented/annotated assignment,
    subscript stores, in-place mutator calls, and ``setattr(self, ...)``
    (attr ``*`` — name unknown statically)."""

    def attr_of(target: ast.expr) -> Optional[str]:
        base = target
        if isinstance(base, ast.Subscript):
            base = base.value
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            return base.attr
        return None

    if isinstance(node, ast.Assign):
        flattened: List[ast.expr] = []
        for target in node.targets:
            flattened.extend(
                target.elts if isinstance(target, (ast.Tuple, ast.List))
                else [target]
            )
        for target in flattened:
            attr = attr_of(target)
            if attr is not None:
                yield attr, node
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        attr = attr_of(node.target)
        if attr is not None:
            yield attr, node
    elif isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATOR_METHODS
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
        ):
            yield func.value.attr, node
        elif (
            isinstance(func, ast.Name)
            and func.id == "setattr"
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "self"
        ):
            yield "*", node


@register
class UnlockedSharedWrite(Rule):
    id = "LCK001"
    summary = ("guarded shared attributes must be written under the "
               "owning class lock")
    scope = LOCK_MODULES

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            configured = LOCK_GUARDED.get(cls.name)
            lock_attr = (
                configured[0] if configured else _detected_lock_attr(cls)
            )
            if lock_attr is None:
                continue
            guarded: Set[str] = set(configured[1]) if configured else set()
            methods = [
                stmt for stmt in cls.body
                if isinstance(stmt, ast.FunctionDef)
            ]
            # Inference: anything written under the lock anywhere in
            # the class is shared state, guarded everywhere.
            for method in methods:
                for node, held in _lexical_walk(method.body, lock_attr, False):
                    if not held:
                        continue
                    for attr, _site in _self_writes(node):
                        if attr != "*":
                            guarded.add(attr)
            for method in methods:
                if method.name in _INIT_METHODS:
                    continue
                for node, held in _lexical_walk(method.body, lock_attr, False):
                    if held:
                        continue
                    for attr, site in _self_writes(node):
                        if attr == "*":
                            yield ctx.finding(
                                self, site,
                                f"{cls.name}.{method.name} writes "
                                f"attributes via setattr() outside "
                                f"'with self.{lock_attr}'",
                            )
                        elif attr in guarded:
                            yield ctx.finding(
                                self, site,
                                f"{cls.name}.{method.name} writes shared "
                                f"attribute '{attr}' outside 'with "
                                f"self.{lock_attr}': concurrent shard "
                                "completions would lose updates",
                            )
