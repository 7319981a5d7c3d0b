"""The hardened runner: isolation, retries, timeouts, reports.

Retries and timeouts apply per sweep point, so the retry and timeout
experiments here are one-point sweeps.
"""

import json

from repro.experiments.registry import Experiment
from repro.experiments.runner import RunnerConfig, run_experiment, run_suite
from repro.parallel import SweepPoint, run_sweep
from repro.parallel.supervisor import RETRY_SEED_STEP

FLAKY = "tests.parallel.point_functions:flaky_point"
FAILS = "tests.parallel.point_functions:always_fails_point"
LIVELOCK = "tests.parallel.point_functions:livelock_point"
HANG = "tests.parallel.point_functions:hang_point"


def make_registry(**runners):
    return {
        name: Experiment(name, f"fake {name}", run)
        for name, run in runners.items()
    }


def ok_run(seed=1, **kwargs):
    return f"ok seed={seed}"


def crash_run(**kwargs):
    raise ValueError("deterministic bug")


def sweep_run(fn, **params):
    """An experiment that sweeps one ``fn`` point seeded by the runner."""

    def run(seed=1, policy=None, **kwargs):
        (value,) = run_sweep(
            [SweepPoint(fn, {"seed": seed, **params})], policy=policy
        )
        return f"point returned {value}"

    return run


def livelock_runs(markers):
    """Seeds ``livelock_point`` ran at, one entry per run."""
    return sorted(
        int(path.name.removeprefix("seed-"))
        for path in markers.iterdir()
        for _ in path.read_text().splitlines()
    )


def livelock_registry(markers):
    return make_registry(x=sweep_run(LIVELOCK, marker_dir=str(markers)))


class TestIsolation:
    def test_one_failure_does_not_stop_the_suite(self):
        registry = make_registry(a=ok_run, b=crash_run, c=ok_run)
        report = run_suite(
            ["a", "b", "c"], config=RunnerConfig(max_retries=0),
            experiments=registry,
        )
        assert [r.status for r in report.results] == ["ok", "failed", "ok"]
        assert not report.all_ok
        assert [r.name for r in report.succeeded] == ["a", "c"]
        assert report.failed[0].error == "deterministic bug"
        assert report.failed[0].error_type == "ValueError"
        assert "deterministic bug" in report.failed[0].traceback

    def test_unknown_name_is_a_failure_record_not_an_exception(self):
        result = run_experiment("nonsense", experiments=make_registry(a=ok_run))
        assert result.status == "failed"
        assert "unknown experiment" in result.error

    def test_deterministic_error_is_not_retried(self):
        calls = []

        def counting_crash(**kwargs):
            calls.append(1)
            raise ValueError("boom")

        result = run_experiment(
            "x",
            config=RunnerConfig(max_retries=3),
            experiments=make_registry(x=counting_crash),
        )
        assert result.status == "failed"
        assert len(calls) == 1


class TestRetries:
    def test_simulation_error_retries_with_perturbed_seed(self):
        # flaky_point livelocks below seed 100; the retry at seed + step
        # lands in the passing region.
        result = run_experiment(
            "flaky",
            seed=7,
            config=RunnerConfig(max_retries=2),
            experiments=make_registry(flaky=sweep_run(FLAKY)),
        )
        assert result.status == "ok"
        assert result.output == f"point returned {7 + RETRY_SEED_STEP}"

    def test_exhausted_retries_degrade_to_failure(self, tmp_path):
        result = run_experiment(
            "x",
            config=RunnerConfig(max_retries=2),
            experiments=livelock_registry(tmp_path),
        )
        assert result.status == "failed"
        assert result.error == "livelock detected"
        assert result.error_type == "SimulationError"

    def test_failing_point_runs_once_per_attempt(self, tmp_path):
        # The experiment is not retried on top of its points: R retries
        # mean R + 1 runs, each at a distinct perturbed seed.
        run_experiment(
            "x",
            seed=5,
            config=RunnerConfig(max_retries=2),
            experiments=livelock_registry(tmp_path),
        )
        step = RETRY_SEED_STEP
        assert livelock_runs(tmp_path) == [5, 5 + step, 5 + 2 * step]

    def test_zero_retries_fails_on_first_kernel_error(self, tmp_path):
        result = run_experiment(
            "x",
            config=RunnerConfig(max_retries=0),
            experiments=livelock_registry(tmp_path),
        )
        assert result.status == "failed"
        assert livelock_runs(tmp_path) == [1]


class TestTimeout:
    def test_hung_experiment_reported_as_timeout(self):
        result = run_experiment(
            "hang",
            config=RunnerConfig(timeout_s=0.5, max_retries=0),
            experiments=make_registry(hang=sweep_run(HANG)),
        )
        assert result.status == "timeout"
        assert result.error_type == "WatchdogTimeout"
        assert "wall-clock budget" in result.error

    def test_fast_experiment_unaffected_by_timeout(self):
        result = run_experiment(
            "a",
            config=RunnerConfig(timeout_s=30.0),
            experiments=make_registry(a=ok_run),
        )
        assert result.ok


class TestReport:
    def test_json_round_trip(self):
        registry = make_registry(a=ok_run, b=crash_run)
        report = run_suite(
            ["a", "b"], config=RunnerConfig(max_retries=0),
            experiments=registry,
        )
        data = json.loads(report.to_json())
        assert data["total"] == 2
        assert data["succeeded"] == 1
        assert data["failed"] == 1
        by_name = {entry["name"]: entry for entry in data["results"]}
        assert by_name["a"]["status"] == "ok"
        assert by_name["a"]["output"].startswith("ok seed=")
        assert by_name["b"]["error"] == "deterministic bug"

    def test_format_summary_mentions_every_experiment(self):
        registry = make_registry(a=ok_run, b=crash_run)
        report = run_suite(
            ["a", "b"], config=RunnerConfig(max_retries=0),
            experiments=registry,
        )
        summary = report.format_summary()
        assert "1/2 experiments ok" in summary
        assert "a" in summary and "b" in summary
        assert "deterministic bug" in summary

    def test_summary_keeps_the_worker_traceback_out(self):
        # Under a timeout the point runs in a worker, so a foreign
        # exception comes back with the worker traceback attached: the
        # record keeps all of it, the summary shows its first line.
        report = run_suite(
            ["x"],
            config=RunnerConfig(timeout_s=30.0, max_retries=0),
            experiments=make_registry(x=sweep_run(FAILS)),
        )
        assert "worker traceback" in report.results[0].error
        summary = report.format_summary().splitlines()
        assert len(summary) == 2
        assert summary[1].endswith(f"failed: sweep point {FAILS} failed: deterministic bug")

    def test_on_result_streams_in_order(self):
        seen = []
        run_suite(
            ["a", "b"],
            config=RunnerConfig(max_retries=0),
            experiments=make_registry(a=ok_run, b=crash_run),
            on_result=lambda result: seen.append(result.name),
        )
        assert seen == ["a", "b"]
