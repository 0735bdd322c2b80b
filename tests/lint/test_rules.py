"""Golden tests: every rule family is proven live by a bad fixture.

Each rule id has a ``<ID>_bad.py`` / ``<ID>_good.py`` fixture pair
under ``fixtures/``.  The bad snippet must trip exactly that rule when
linted at the rule's home relpath; the good snippet — the doctrinally
correct way to write the same thing — must come back completely clean
at the same relpath, across *all* rules, so the fix we would recommend
never trades one finding for another.
"""

from __future__ import annotations

import pathlib

import pytest

import repro.lint  # noqa: F401  (registers all rules)
from repro.lint.core import RULES, check_source

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: rule id -> the repro-relative path the fixture is linted as.  Pinning
#: the relpath points the snippet at the scoped rule exactly the way the
#: real module would be.
CASES = {
    "DET001": "repro/runtime/chaos.py",
    "DET002": "repro/runtime/chaos.py",
    "DET003": "repro/runtime/chaos.py",
    "DET004": "repro/runtime/chaos.py",
    "FPR001": "repro/runtime/spec.py",
    "FPR002": "repro/chainsim/harness.py",
    "FPR003": "repro/chainsim/harness.py",
    "FPR004": "repro/chainsim/harness.py",
    "FPR005": "repro/chainsim/harness.py",
    "PKL001": "repro/runtime/faults.py",
    "PKL002": "repro/runtime/faults.py",
    "PKL003": "repro/runtime/faults.py",
    "LCK001": "repro/runtime/cache.py",
    "EXC001": "repro/runtime/executor.py",
    "EXC002": "repro/runtime/executor.py",
    "EXC003": "repro/runtime/executor.py",
    "EXC004": "repro/runtime/cache.py",
}


def _lint_fixture(rule_id: str, kind: str):
    path = FIXTURES / f"{rule_id}_{kind}.py"
    source = path.read_text(encoding="utf-8")
    return check_source(source, str(path), relpath=CASES[rule_id])


def test_manifest_covers_every_non_meta_rule():
    """A new rule without a fixture pair fails here, not silently."""
    non_meta = {rule_id for rule_id in RULES if not rule_id.startswith("LNT")}
    assert non_meta == set(CASES)


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_bad_fixture_trips_its_rule(rule_id):
    report = _lint_fixture(rule_id, "bad")
    tripped = {finding.rule for finding in report.findings}
    assert rule_id in tripped, (
        f"{rule_id}_bad.py produced {sorted(tripped)} at "
        f"{CASES[rule_id]}; expected {rule_id}"
    )


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_good_fixture_is_clean(rule_id):
    report = _lint_fixture(rule_id, "good")
    assert report.findings == [], (
        f"{rule_id}_good.py should be clean but produced: "
        + "; ".join(f.render() for f in report.findings)
    )
    assert report.waived == [], "good fixtures must not rely on waivers"


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_findings_carry_location_and_message(rule_id):
    report = _lint_fixture(rule_id, "bad")
    for finding in report.findings:
        assert finding.line >= 1
        assert finding.col >= 1
        assert finding.message
        rendered = finding.render()
        assert finding.rule in rendered
        assert f":{finding.line}:" in rendered


def test_every_rule_has_summary_and_scope():
    for rule_id, rule in RULES.items():
        assert rule.id == rule_id
        assert rule.summary, f"{rule_id} has no summary"
        assert rule.scope, f"{rule_id} has no scope"


def test_det_rules_do_not_fire_outside_determinism_modules():
    """DET scoping: analysis code may use wall clocks and legacy RNG."""
    source = FIXTURES.joinpath("DET003_bad.py").read_text(encoding="utf-8")
    report = check_source(source, "DET003_bad.py",
                          relpath="repro/analysis/tables.py")
    assert not any(f.rule.startswith("DET") for f in report.findings)


def test_lck_inference_covers_attrs_without_config():
    """An attr written under a class's lock anywhere is guarded
    everywhere — no doctrine table entry needed."""
    source = FIXTURES.joinpath("LCK001_bad.py").read_text(encoding="utf-8")
    report = check_source(source, "LCK001_bad.py",
                          relpath="repro/runtime/cache.py")
    flagged_lines = {f.line for f in report.findings if f.rule == "LCK001"}
    lines = source.splitlines()
    # Both the configured ResultCache tally and the inferred SpanBuffer
    # buffer must be caught.
    assert any("self.hits += 1" in lines[line - 1] for line in flagged_lines)
    assert any("self._records = []" in lines[line - 1]
               for line in flagged_lines)
