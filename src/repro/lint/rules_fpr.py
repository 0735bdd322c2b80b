"""FPR: execution knobs must never enter cache fingerprints.

The cache doctrine: physics knobs always fingerprint, execution knobs
(kernel, fast, workers, retry/timeout/resume) never do — one cached
artifact answers every setting of a bit-identical path selector.  These rules check both directions statically against
:mod:`repro.runtime.spec`:

* the fingerprint payload builders may not reference an execution
  knob (FPR001);
* ``_fingerprint_exclude_`` declarations must be literal sets of
  strings so they remain statically checkable (FPR002);
* classes canonicalised through ``vars(obj)`` that assign an
  execution-knob attribute must list it there (FPR003), and must not
  list attributes they never assign (FPR004);
* physics knobs that merely *look* like mode switches (``reduce``)
  must never appear in ``_fingerprint_exclude_`` (FPR005) — they
  change the produced bytes, so excluding one would alias distinct
  artifacts under a single cache key.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from .core import Finding, LintContext, Rule, register
from .doctrine import (
    EXECUTION_KNOBS,
    FINGERPRINTED_CLASS_MODULES,
    PHYSICS_KNOBS,
)

__all__ = [
    "KnobInFingerprint",
    "ExcludeNotLiteral",
    "KnobNotExcluded",
    "StaleExclude",
    "PhysicsKnobExcluded",
]

#: The functions in repro/runtime/spec.py that build fingerprint
#: payloads.
_FINGERPRINT_FUNCTIONS = ("spec_fingerprint", "_canonical")


@register
class KnobInFingerprint(Rule):
    id = "FPR001"
    summary = ("fingerprint payload builders must not reference "
               "execution-knob attributes or keys")
    scope = ("repro/runtime/spec.py",)

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.FunctionDef)
                and node.name in _FINGERPRINT_FUNCTIONS
            ):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.Attribute) and inner.attr in EXECUTION_KNOBS:
                    yield ctx.finding(
                        self, inner,
                        f"execution knob '.{inner.attr}' read inside "
                        f"{node.name}(): knobs must stay outside the "
                        "content address",
                    )
                elif isinstance(inner, ast.Dict):
                    for key in inner.keys:
                        if (
                            isinstance(key, ast.Constant)
                            and isinstance(key.value, str)
                            and key.value in EXECUTION_KNOBS
                        ):
                            yield ctx.finding(
                                self, key,
                                f"execution knob {key.value!r} keyed into a "
                                f"fingerprint payload in {node.name}()",
                            )


def _exclude_assignment(stmt: ast.stmt) -> Optional[ast.expr]:
    """The value of a ``_fingerprint_exclude_ = ...`` class statement."""
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Name) and target.id == "_fingerprint_exclude_":
                return stmt.value
    if isinstance(stmt, ast.AnnAssign):
        target = stmt.target
        if isinstance(target, ast.Name) and target.id == "_fingerprint_exclude_":
            return stmt.value
    return None


def _literal_strings(value: ast.expr) -> Optional[Tuple[str, ...]]:
    """The string elements of a literal set/frozenset/tuple/list, or
    None when the expression is not statically evaluable."""
    if isinstance(value, ast.Call):
        func = value.func
        if not (
            isinstance(func, ast.Name)
            and func.id in ("frozenset", "set", "tuple")
            and not value.keywords
            and len(value.args) <= 1
        ):
            return None
        if not value.args:
            return ()
        value = value.args[0]
    if isinstance(value, (ast.Set, ast.Tuple, ast.List)):
        items: List[str] = []
        for element in value.elts:
            if not (
                isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ):
                return None
            items.append(element.value)
        return tuple(items)
    return None


def _self_assigned_attrs(cls: ast.ClassDef) -> Set[str]:
    """Attribute names assigned on ``self`` anywhere in the class (plus
    dataclass-style annotated class fields)."""
    attrs: Set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            attrs.add(stmt.target.id)
    for node in ast.walk(cls):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call):
            # object.__setattr__(self, "name", ...) — the frozen-
            # dataclass spelling of self.name = ...
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "__setattr__"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                attrs.add(node.args[1].value)
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attrs.add(target.attr)
    return attrs


@register
class ExcludeNotLiteral(Rule):
    id = "FPR002"
    summary = ("_fingerprint_exclude_ must be a literal set of "
               "attribute-name strings")
    scope = ("repro/*",)

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                value = _exclude_assignment(stmt)
                if value is not None and _literal_strings(value) is None:
                    yield ctx.finding(
                        self, stmt,
                        f"{node.name}._fingerprint_exclude_ is not a "
                        "literal set of strings; the linter (and the "
                        "reader) must be able to see exactly what stays "
                        "outside the content address",
                    )


class _FingerprintedClassRule(Rule):
    scope = FINGERPRINTED_CLASS_MODULES


@register
class KnobNotExcluded(_FingerprintedClassRule):
    id = "FPR003"
    summary = ("execution-knob attributes on fingerprinted classes must "
               "be listed in _fingerprint_exclude_")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            excluded: Tuple[str, ...] = ()
            for stmt in node.body:
                value = _exclude_assignment(stmt)
                if value is not None:
                    excluded = _literal_strings(value) or ()
            knobs = _self_assigned_attrs(node) & EXECUTION_KNOBS
            for knob in sorted(knobs - set(excluded)):
                yield ctx.finding(
                    self, node,
                    f"{node.name}.{knob} is an execution knob but is "
                    "missing from _fingerprint_exclude_: it would be "
                    "hashed into the cache key and split bit-identical "
                    "artifacts",
                )


@register
class StaleExclude(_FingerprintedClassRule):
    id = "FPR004"
    summary = "_fingerprint_exclude_ lists an attribute the class never assigns"

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                value = _exclude_assignment(stmt)
                if value is None:
                    continue
                names = _literal_strings(value) or ()
                assigned = _self_assigned_attrs(node)
                for name in names:
                    if name not in assigned:
                        yield ctx.finding(
                            self, stmt,
                            f"{node.name}._fingerprint_exclude_ lists "
                            f"{name!r} but the class never assigns it "
                            "(stale exclusion)",
                        )


@register
class PhysicsKnobExcluded(Rule):
    id = "FPR005"
    summary = ("physics knobs (reduce) must never be listed in "
               "_fingerprint_exclude_")
    scope = ("repro/*",)

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                value = _exclude_assignment(stmt)
                if value is None:
                    continue
                for name in _literal_strings(value) or ():
                    if name in PHYSICS_KNOBS:
                        yield ctx.finding(
                            self, stmt,
                            f"{node.name}._fingerprint_exclude_ lists "
                            f"physics knob {name!r}: it changes the "
                            "produced bytes, so excluding it would "
                            "alias distinct artifacts under one cache "
                            "key",
                        )
