"""Every simlint rule against its trigger/clean fixture pair.

Each rule id ``SLnnn`` has two files under ``fixtures/``:
``slnnn_trigger.py`` contains the smallest snippet that must fire the
rule, ``slnnn_clean.py`` the idiomatic rewrite that must stay silent —
for *all* rules, not just the one under test, so the clean corpus
doubles as a false-positive regression suite.
"""

from pathlib import Path

import pytest

from repro.simlint.checker import Checker

FIXTURES = Path(__file__).parent / "fixtures"

RULE_IDS = [
    "SL003",
    "SL101",
    "SL102",
    "SL103",
    "SL104",
    "SL201",
    "SL202",
    "SL301",
    "SL302",
    "SL401",
    "SL601",
    "SL701",
    "SL702",
    "SL703",
    "SL704",
    "SL705",
    "SL801",
    "SL804",
]


def lint_fixture(name: str):
    path = FIXTURES / name
    assert path.exists(), f"missing fixture {name}"
    return Checker().check_paths([path], root=FIXTURES)


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_trigger_fixture_fires_exactly_its_rule(rule_id):
    findings = lint_fixture(f"{rule_id.lower()}_trigger.py")
    active = [f for f in findings if not f.waived]
    assert {f.rule_id for f in active} == {rule_id}


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_clean_fixture_is_silent(rule_id):
    findings = lint_fixture(f"{rule_id.lower()}_clean.py")
    assert findings == []


def test_findings_carry_location_and_message():
    (finding,) = lint_fixture("sl101_trigger.py")
    assert finding.line > 0
    assert finding.location().startswith("sl101_trigger.py:")
    assert "RngManager" in finding.message


def test_rule_registry_is_sorted_and_unique():
    from repro.simlint.rules import all_rules, rules_by_id

    ids = [rule.rule_id for rule in all_rules()]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
    assert set(rules_by_id()) == set(ids)
