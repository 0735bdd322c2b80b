"""The repro-lint framework: rules, findings, waivers, and the engine.

The linter is a zero-dependency, AST-based static-analysis pass.  Each
rule is a small class registered under a stable id (``DET001``,
``LCK001``, ...); the engine parses each file once, hands every
applicable rule a :class:`LintContext`, and folds the produced
:class:`Finding`\\ s through the file's inline waivers.

Waivers
-------
A finding is waived by a comment on its own line, or on the line
immediately above::

    ts = time.time()  # repro-lint: disable=DET003  # trace metadata only

The trailing ``# reason`` is mandatory — a waiver without a
justification is itself reported (``LNT001``), and a waiver naming an
unknown rule id is reported too (``LNT003``), so waivers cannot rot
silently.  Files that fail to parse produce ``LNT002``.

Scoping
-------
Rules declare :mod:`fnmatch` scope patterns over the ``repro/``-
relative path of each file (see :mod:`repro.lint.doctrine`); a rule
only runs where its invariant applies.  Tests (and ``--select``) can
pin a fake relative path to exercise a rule against fixture snippets.
"""

from __future__ import annotations

import ast
import fnmatch
import pathlib
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type, Union

__all__ = [
    "Finding",
    "LintContext",
    "LintReport",
    "RULES",
    "Rule",
    "check_source",
    "check_path",
    "check_tree",
    "dotted_name",
    "iter_python_files",
    "register",
    "select_rules",
]

PathLike = Union[str, pathlib.Path]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


class LintContext:
    """Everything a rule needs about one parsed file."""

    def __init__(self, path: str, relpath: str, tree: ast.Module,
                 lines: Sequence[str]) -> None:
        self.path = path
        self.relpath = relpath
        self.tree = tree
        self.lines = list(lines)

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule.id,
            message=message,
        )


class Rule:
    """Base class for one lint rule.

    Subclasses set ``id`` (family prefix + 3 digits), ``summary`` and
    ``scope`` (fnmatch patterns over the repro-relative path) and
    implement :meth:`check`, yielding findings.  Most rules drive an
    :class:`ast.NodeVisitor` over ``ctx.tree``.
    """

    id: str = ""
    summary: str = ""
    scope: Tuple[str, ...] = ("repro/*",)

    @property
    def family(self) -> str:
        return re.sub(r"\d+$", "", self.id)

    def applies_to(self, relpath: str) -> bool:
        return any(fnmatch.fnmatch(relpath, pattern) for pattern in self.scope)

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        raise NotImplementedError


#: The global registry: rule id -> rule instance.
RULES: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding one instance of ``cls`` to :data:`RULES`."""
    rule = cls()
    if not re.fullmatch(r"[A-Z]{3}\d{3}", rule.id):
        raise ValueError(f"rule id {rule.id!r} must be three letters + three digits")
    if rule.id in RULES:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    RULES[rule.id] = rule
    return cls


def select_rules(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Rule]:
    """Resolve ``--select`` / ``--ignore`` to a concrete rule list.

    Entries are exact ids (``DET003``) or family prefixes (``DET``);
    unknown entries raise so typos fail loudly rather than silently
    disabling nothing.
    """

    def expand(entries: Sequence[str]) -> List[str]:
        ids: List[str] = []
        for entry in entries:
            entry = entry.strip()
            if not entry:
                continue
            matched = [
                rule_id for rule_id in RULES
                if rule_id == entry or RULES[rule_id].family == entry
            ]
            if not matched:
                raise ValueError(f"unknown rule or family {entry!r}")
            ids.extend(matched)
        return ids

    chosen = expand(select) if select else list(RULES)
    dropped = set(expand(ignore)) if ignore else set()
    return [RULES[rule_id] for rule_id in sorted(chosen) if rule_id not in dropped]


# -- waivers ------------------------------------------------------------------

#: Waiver syntax: a comment of `repro-lint: disable=<ids>` followed by
#: a second comment holding the reason (spelled out in the module
#: docstring; not repeated literally here so the linter's own waiver
#: scan does not match this line).
_WAIVER_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_, ]+?)\s*(?:#\s*(\S.*))?$"
)


@dataclass
class _Waiver:
    line: int
    rules: Tuple[str, ...]
    reason: str
    used: List[str] = field(default_factory=list)

    def covers(self, finding: Finding) -> bool:
        # A waiver suppresses findings on its own line and on the line
        # below (so a comment-only waiver line can sit above a long
        # statement).
        return finding.rule in self.rules and finding.line in (
            self.line, self.line + 1
        )


def _parse_waivers(lines: Sequence[str]) -> List[_Waiver]:
    waivers = []
    for lineno, text in enumerate(lines, start=1):
        match = _WAIVER_RE.search(text)
        if match is None:
            continue
        rules = tuple(
            entry.strip() for entry in match.group(1).split(",") if entry.strip()
        )
        waivers.append(_Waiver(lineno, rules, (match.group(2) or "").strip()))
    return waivers


class _MetaRule(Rule):
    """Parent for the linter's own housekeeping findings (LNT family).

    LNT rules are synthesised by the engine rather than run over the
    AST, but registering them keeps ``--select``/``--ignore`` and
    ``--list-rules`` uniform.
    """

    scope = ("*",)

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        return ()


@register
class WaiverNeedsReason(_MetaRule):
    id = "LNT001"
    summary = "a repro-lint waiver must carry a one-line justification"


@register
class UnparsableFile(_MetaRule):
    id = "LNT002"
    summary = "file could not be parsed as Python"


@register
class WaiverUnknownRule(_MetaRule):
    id = "LNT003"
    summary = "a repro-lint waiver names an unknown rule id"


# -- engine -------------------------------------------------------------------


@dataclass
class LintReport:
    """The outcome of linting one or more files."""

    findings: List[Finding] = field(default_factory=list)
    waived: List[Finding] = field(default_factory=list)
    files: int = 0

    def extend(self, other: "LintReport") -> None:
        self.findings.extend(other.findings)
        self.waived.extend(other.waived)
        self.files += other.files

    def sorted(self) -> "LintReport":
        self.findings.sort()
        self.waived.sort()
        return self


def repo_relative(path: PathLike) -> str:
    """The ``repro/``-rooted posix path of ``path`` (rule scopes match
    against this).  Paths outside a ``repro`` package fall back to
    their file name, so fixture snippets scope by whatever relpath the
    caller pins instead."""
    parts = pathlib.Path(path).as_posix().split("/")
    if "repro" in parts:
        return "/".join(parts[parts.index("repro"):])
    return parts[-1]


def check_source(
    source: str,
    path: str = "<string>",
    *,
    relpath: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Lint one source string; the heart of the engine.

    ``relpath`` overrides the repro-relative path used for rule
    scoping (tests pin e.g. ``repro/obs/trace.py`` to point a fixture
    at a scoped rule).
    """
    rules = list(RULES.values()) if rules is None else list(rules)
    relpath = repo_relative(path) if relpath is None else relpath
    lines = source.splitlines()
    report = LintReport(files=1)
    enabled = {rule.id for rule in rules}
    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError) as error:
        if "LNT002" in enabled:
            line = getattr(error, "lineno", 1) or 1
            report.findings.append(Finding(
                path=path, line=line, col=1, rule="LNT002",
                message=f"could not parse file: {error.msg if isinstance(error, SyntaxError) else error}",
            ))
        return report

    ctx = LintContext(path, relpath, tree, lines)
    raw: List[Finding] = []
    for rule in rules:
        if isinstance(rule, _MetaRule) or not rule.applies_to(relpath):
            continue
        raw.extend(rule.check(ctx))

    waivers = _parse_waivers(lines)
    for finding in raw:
        waiver = next((w for w in waivers if w.covers(finding)), None)
        if waiver is None:
            report.findings.append(finding)
        else:
            waiver.used.append(finding.rule)
            report.waived.append(finding)

    for waiver in waivers:
        if not waiver.reason and "LNT001" in enabled:
            report.findings.append(Finding(
                path=path, line=waiver.line, col=1, rule="LNT001",
                message="waiver has no justification; append "
                        "'# <reason>' after the rule list",
            ))
        for rule_id in waiver.rules:
            if rule_id not in RULES and "LNT003" in enabled:
                report.findings.append(Finding(
                    path=path, line=waiver.line, col=1, rule="LNT003",
                    message=f"waiver names unknown rule {rule_id!r}",
                ))
    return report


def check_path(
    path: PathLike, *, rules: Optional[Sequence[Rule]] = None
) -> LintReport:
    """Lint one file on disk."""
    text = pathlib.Path(path).read_text(encoding="utf-8")
    return check_source(text, str(path), rules=rules)


def iter_python_files(root: PathLike) -> Iterator[pathlib.Path]:
    """Yield ``.py`` files under ``root`` (or ``root`` itself), sorted,
    skipping hidden directories and ``__pycache__``."""
    root = pathlib.Path(root)
    if root.is_file():
        if root.suffix == ".py":
            yield root
        return
    for path in sorted(root.rglob("*.py")):
        if any(
            part.startswith(".") or part == "__pycache__"
            for part in path.parts
        ):
            continue
        yield path


def check_tree(
    paths: Sequence[PathLike], *, rules: Optional[Sequence[Rule]] = None
) -> LintReport:
    """Lint every Python file under each of ``paths``."""
    report = LintReport()
    for root in paths:
        for path in iter_python_files(root):
            report.extend(check_path(path, rules=rules))
    return report.sorted()


# -- shared AST helpers -------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
