"""Tests for the CLI front-end and the experiment registry."""

import pytest

from repro.cli import _print_result, main
from repro.errors import ExperimentError
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.runner import ExperimentResult


class TestRegistry:
    def test_all_paper_artefacts_registered(self):
        paper_artefacts = {
            "table2",
            "figure2",
            "figure3",
            "figure4",
            "table3",
            "figure7",
            "figure9",
            "figure11",
            "figure12",
        }
        diagrams = {"figure1", "scenarios"}
        extensions = {
            "arf", "delay", "link-lifetime", "multihop", "density",
            "mac-surface",
        }
        resilience = {"fault-blackout", "fault-crash"}
        assert (
            paper_artefacts | diagrams | extensions | resilience
            == set(EXPERIMENTS)
        )

    def test_unknown_name_raises_with_hint(self):
        with pytest.raises(ExperimentError, match="figure2"):
            get_experiment("figure99")

    def test_every_experiment_has_description(self):
        for experiment in EXPERIMENTS.values():
            assert experiment.description


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out
        assert "figure12" in out

    def test_table2_runs(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "3.060" in out

    def test_figure2_quick_run(self, capsys):
        assert main(["figure2", "--duration", "0.6", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "ideal" in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["nonsense"]) == 1
        err = capsys.readouterr().err
        assert "error" in err
        # One line of diagnosis, not a traceback dump.
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_report_file_written(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["table2", "--report", str(report_path)]) == 0
        import json

        report = json.loads(report_path.read_text())
        assert report["succeeded"] == 1
        assert report["results"][0]["name"] == "table2"
        assert report["results"][0]["status"] == "ok"

    def test_failure_yields_one_line_error_and_nonzero_exit(self, capsys):
        # A negative horizon raises SchedulingError inside the experiment;
        # the runner must degrade it to a one-line error, not a traceback.
        assert main(["figure2", "--duration", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: figure2:")
        assert "Traceback" not in err

    def test_worker_traceback_stays_out_of_the_error_line(self, capsys):
        # A foreign exception from a pool worker carries the worker
        # traceback; stderr gets its first line, --report all of it.
        _print_result(
            ExperimentResult(
                "x",
                "failed",
                error="sweep point p failed: boom\n--- worker traceback ---\n"
                "Traceback (most recent call last):\n",
            )
        )
        assert capsys.readouterr().err == "error: x: sweep point p failed: boom\n"


def _table_lines(out: str) -> list[str]:
    # Drop the wall-clock status line; only it may vary between runs.
    return [line for line in out.splitlines() if not line.startswith("[")]


class TestSweepFlags:
    def test_jobs_output_identical_to_serial(self, capsys):
        assert main(["table2", "--no-cache"]) == 0
        serial = _table_lines(capsys.readouterr().out)
        assert main(["table2", "--no-cache", "--jobs", "2"]) == 0
        parallel = _table_lines(capsys.readouterr().out)
        assert serial == parallel

    def test_warm_cache_output_identical(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["table2", "--cache-dir", cache_dir]) == 0
        cold = _table_lines(capsys.readouterr().out)
        assert main(["table2", "--cache-dir", cache_dir]) == 0
        warm = _table_lines(capsys.readouterr().out)
        assert cold == warm

    def test_clear_cache_reports_removed_points(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["table2", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["list", "--cache-dir", cache_dir, "--clear-cache"]) == 0
        out = capsys.readouterr().out
        assert "cleared" in out
        assert cache_dir in out


class TestRobustnessFlags:
    def test_resume_without_journal_exits_2(self, capsys):
        assert main(["table2", "--resume"]) == 2
        err = capsys.readouterr().err
        assert "--resume needs --journal" in err

    def test_journal_written_with_point_records(self, capsys, tmp_path):
        import json

        journal = tmp_path / "sweep.jsonl"
        assert main(["table2", "--journal", str(journal)]) == 0
        capsys.readouterr()
        documents = [
            json.loads(line) for line in journal.read_text().splitlines()
        ]
        assert any(doc.get("type") == "sweep-start" for doc in documents)
        points = [doc for doc in documents if doc.get("type") == "point"]
        assert points and all(doc["status"] == "ok" for doc in points)
        assert any(doc.get("type") == "sweep-end" for doc in documents)

    def test_resumed_run_output_identical(self, capsys, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        cache_dir = str(tmp_path / "cache")
        argv = ["table2", "--cache-dir", cache_dir, "--journal", str(journal)]
        assert main(argv) == 0
        first = _table_lines(capsys.readouterr().out)
        assert main(argv + ["--resume"]) == 0
        resumed = _table_lines(capsys.readouterr().out)
        assert first == resumed

    def test_max_retries_alias_accepted(self, capsys):
        assert main(["table2", "--max-retries", "0"]) == 0


class TestProfileCommand:
    def test_profile_without_target_exits_2(self, capsys):
        assert main(["profile"]) == 2
        err = capsys.readouterr().err
        assert "profile needs an experiment name" in err

    def test_profile_table2(self, capsys):
        assert main(["profile", "table2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("profile: table2")
        assert "ncalls" in out

    def test_profile_unknown_target_exits_1(self, capsys):
        assert main(["profile", "figure99"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
