"""The ``repro lint`` front-end — including the self-lint gate.

``test_repro_package_lints_clean`` is the linter's acceptance criterion:
the shipped sources must produce zero active findings (every violation
fixed, or waived with an inline justification).
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.simlint.cli import run as lint_run
from repro.simlint.report import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS

FIXTURES = Path(__file__).parent / "fixtures"
SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture(scope="module")
def self_lint():
    """``(exit code, stdout)`` of one whole-package lint, shared by the
    self-lint tests so the package is linted once."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lint_run([str(SRC_REPRO), "--show-waivers"])
    return code, out.getvalue()


class TestSelfLint:
    def test_repro_package_lints_clean(self, self_lint):
        code, out = self_lint
        assert code == EXIT_CLEAN
        assert "0 findings" in out

    def test_lint_subcommand_is_wired_into_repro_cli(self, capsys):
        clean = FIXTURES / "sl101_clean.py"
        assert repro_main(["lint", str(clean)]) == EXIT_CLEAN
        assert "0 findings" in capsys.readouterr().out

    def test_waivers_in_shipped_sources_all_carry_reasons(self, self_lint):
        _, out = self_lint
        # With no active finding, every line above the summary is a
        # waived finding rendered with its justification.
        *waived, summary = out.splitlines()
        assert summary.startswith("simlint: 0 findings")
        for line in waived:
            _, reason = line.split(" waived -- ", 1)
            assert reason.strip()


class TestCliBehaviour:
    def test_findings_exit_nonzero(self, capsys):
        code = lint_run([str(FIXTURES / "sl101_trigger.py")])
        assert code == EXIT_FINDINGS
        assert "SL101" in capsys.readouterr().out

    def test_missing_path_is_a_usage_error(self, capsys):
        assert lint_run(["definitely/not/a/path.py"]) == EXIT_ERROR
        assert "no such file" in capsys.readouterr().err

    def test_json_report_shape(self, capsys):
        code = lint_run(["--format", "json", str(FIXTURES / "sl101_trigger.py")])
        assert code == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert payload["summary"]["active"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "SL101"
        assert finding["path"].endswith("sl101_trigger.py")

    def test_list_rules_names_every_family(self, capsys):
        assert lint_run(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in ("SL101", "SL201", "SL301", "SL401"):
            assert rule_id in out
