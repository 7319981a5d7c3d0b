"""The ``repro lint`` front-end — including the self-lint gate.

``test_repro_package_lints_clean`` is the linter's acceptance criterion:
the shipped sources must produce zero active findings (every violation
fixed, or waived with an inline justification).
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.simlint.cli import run as lint_run
from repro.simlint.report import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS

FIXTURES = Path(__file__).parent / "fixtures"
SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"


def _lint_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lint_run(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def self_lint():
    """``(exit code, stdout)`` of ``repro lint src/repro --show-waivers``
    run from the repository root, shared by the self-lint tests so the
    package is linted once this way."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(SRC_REPRO.parents[1])
        return _lint_stdout(["src/repro", "--show-waivers"])


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

    def test_explicit_path_reports_what_the_default_scope_does(self, self_lint):
        # The explicit path names modules from the package tree, as the
        # default scope does, so the cross-module rules see the same
        # project; only the reported paths keep their src/ prefix.
        code, out = _lint_stdout(["--show-waivers"])
        explicit = [line.removeprefix("src/") for line in self_lint[1].splitlines()]
        assert (code, out.splitlines()) == (self_lint[0], explicit)


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

    @pytest.mark.parametrize("reader", ["gone-before-writing", "three-lines"])
    def test_list_rules_into_a_closed_pipe_exits_quietly(self, reader):
        # ``repro lint --list-rules | head -3``.  Whether the linter is
        # still writing when head exits depends on scheduling, so one
        # reader is gone before the first write: the case that used to
        # end in a BrokenPipeError traceback.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_REPRO.parent)
        command = [sys.executable, "-m", "repro.cli", "lint", "--list-rules"]
        read_end, write_end = os.pipe()
        if reader == "gone-before-writing":
            os.close(read_end)
        process = subprocess.Popen(
            command, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True
        )
        os.close(write_end)
        if reader == "three-lines":
            with os.fdopen(read_end) as pipe:
                lines = [pipe.readline() for _ in range(3)]
            assert lines[0] == "simlint rules:\n"
        _, stderr = process.communicate(timeout=120)
        assert process.returncode == EXIT_CLEAN
        assert stderr == ""

    def test_list_rules_names_every_family(self, capsys):
        assert lint_run(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in ("SL101", "SL201", "SL301", "SL401"):
            assert rule_id in out
