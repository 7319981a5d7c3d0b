"""Checker mechanics: waivers, parse failures, file discovery."""

import textwrap
from pathlib import Path

import pytest

from repro.simlint.checker import (
    Checker,
    ParsedModule,
    iter_python_files,
)

FIXTURES = Path(__file__).parent / "fixtures"


def lint_source(tmp_path: Path, source: str):
    path = tmp_path / "snippet.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return Checker().check_paths([path], root=tmp_path)


class TestWaivers:
    def test_inline_waiver_suppresses_and_keeps_reason(self, tmp_path):
        (finding,) = lint_source(
            tmp_path,
            """\
            import random

            draw = random.random()  # simlint: waive[SL101] -- fixture noise
            """,
        )
        assert finding.rule_id == "SL101"
        assert finding.waived
        assert finding.waiver_reason == "fixture noise"

    def test_standalone_waiver_covers_next_line(self, tmp_path):
        (finding,) = lint_source(
            tmp_path,
            """\
            import random

            # simlint: waive[SL101] -- seeding helper, reproducible anyway
            draw = random.random()
            """,
        )
        assert finding.waived
        assert finding.waiver_reason is not None

    def test_standalone_waiver_reason_folds_following_comments(self, tmp_path):
        (finding,) = lint_source(
            tmp_path,
            """\
            import random

            # simlint: waive[SL101] -- first half of the
            # justification continues here.
            draw = random.random()
            """,
        )
        assert finding.waived
        assert "continues here" in finding.waiver_reason

    def test_waiver_does_not_cover_other_rules(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """\
            import random

            draw = random.random()  # simlint: waive[SL999] -- wrong rule
            """,
        )
        by_rule = {f.rule_id: f for f in findings}
        # The SL999 waiver suppresses nothing, so it is itself stale (SL003).
        assert set(by_rule) == {"SL101", "SL003"}
        assert not by_rule["SL101"].waived

    def test_star_waiver_covers_everything(self, tmp_path):
        (finding,) = lint_source(
            tmp_path,
            """\
            import random

            draw = random.random()  # simlint: waive[*] -- generated file
            """,
        )
        assert finding.waived

    def test_waiver_without_reason_is_sl001_and_suppresses_nothing(self):
        findings = Checker().check_paths(
            [FIXTURES / "sl001_trigger.py"], root=FIXTURES
        )
        by_rule = {f.rule_id: f for f in findings}
        assert set(by_rule) == {"SL001", "SL102"}
        assert not by_rule["SL102"].waived

    def test_waiver_separated_by_code_does_not_apply(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """\
            import random

            # simlint: waive[SL101] -- too far away
            x = 1
            draw = random.random()
            """,
        )
        (finding,) = [f for f in findings if f.rule_id == "SL101"]
        assert not finding.waived


class TestRuleSet:
    def test_checker_always_runs_every_rule(self, tmp_path):
        # There is no partial rule set, so SL003 always runs: a justified
        # waiver that suppresses nothing is reported.
        with pytest.raises(TypeError):
            Checker(rules=[])
        findings = lint_source(
            tmp_path,
            """\
            x = 1  # simlint: waive[SL101] -- nothing here to waive
            """,
        )
        assert [f.rule_id for f in findings] == ["SL003"]


class TestParseFailures:
    def test_syntax_error_becomes_sl002(self):
        findings = Checker().check_paths(
            [FIXTURES / "sl002_trigger.py"], root=FIXTURES
        )
        assert [f.rule_id for f in findings] == ["SL002"]
        assert "cannot parse" in findings[0].message

    def test_checker_keeps_going_past_broken_files(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n", encoding="utf-8")
        (tmp_path / "fine.py").write_text(
            "import random\ndraw = random.random()\n", encoding="utf-8"
        )
        findings = Checker().check_paths([tmp_path], root=tmp_path)
        assert {f.rule_id for f in findings} == {"SL002", "SL101"}

    def test_sl002_reports_root_relative_path(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n", encoding="utf-8")
        (finding,) = Checker().check_paths([tmp_path], root=tmp_path)
        assert finding.rule_id == "SL002"
        assert finding.path == "broken.py"


class TestDiscovery:
    def test_iter_python_files_is_sorted_and_recursive(self, tmp_path):
        (tmp_path / "b.py").write_text("", encoding="utf-8")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "a.py").write_text("", encoding="utf-8")
        (tmp_path / "notes.txt").write_text("", encoding="utf-8")
        names = [p.relative_to(tmp_path) for p in iter_python_files([tmp_path])]
        assert [str(n) for n in names] == ["b.py", "sub/a.py"]

    def test_parsed_module_relpath_is_posix_relative(self, tmp_path):
        path = tmp_path / "pkg" / "mod.py"
        path.parent.mkdir()
        path.write_text("x = 1\n", encoding="utf-8")
        module = ParsedModule.parse(path, root=tmp_path)
        assert module.relpath == "pkg/mod.py"
