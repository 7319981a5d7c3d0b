"""The sweep engine: ordering, pooling, policy, error transport."""

import threading

import pytest

from repro.errors import ExperimentError, SimulationError, WatchdogTimeout
from repro.experiments.runner import RunnerConfig
from repro.parallel import SweepPoint, run_sweep
from repro.parallel.engine import resolve_point_fn
from repro.parallel.supervisor import RETRY_SEED_STEP

SQUARE = "tests.parallel.point_functions:square_point"
FLAKY = "tests.parallel.point_functions:flaky_point"
FAILS = "tests.parallel.point_functions:always_fails_point"
SLOW = "tests.parallel.point_functions:slow_point"
LIVELOCK = "tests.parallel.point_functions:livelock_point"


class TestResolve:
    def test_resolves_dotted_path(self):
        fn = resolve_point_fn(SQUARE)
        assert fn(3) == 9

    def test_malformed_path_rejected(self):
        with pytest.raises(ExperimentError, match="pkg.mod:fn"):
            resolve_point_fn("no-colon-here")

    def test_missing_module_rejected(self):
        with pytest.raises(ExperimentError, match="cannot resolve"):
            resolve_point_fn("repro.does_not_exist:fn")

    def test_missing_attribute_rejected(self):
        with pytest.raises(ExperimentError, match="cannot resolve"):
            resolve_point_fn("repro.parallel.engine:no_such_fn")


class TestSerial:
    def test_results_in_point_order(self):
        points = [SweepPoint(SQUARE, {"value": v}) for v in (3, 1, 2)]
        assert run_sweep(points) == [9, 1, 4]

    def test_tuple_points_accepted(self):
        assert run_sweep([(SQUARE, {"value": 5})]) == [25]

    def test_jobs_must_be_positive(self):
        with pytest.raises(ExperimentError, match="jobs"):
            run_sweep([], jobs=0)

    def test_empty_sweep(self):
        assert run_sweep([]) == []

    def test_serial_errors_keep_their_type(self):
        with pytest.raises(ValueError, match="deterministic bug"):
            run_sweep([SweepPoint(FAILS, {"seed": 1})])


class TestPolicy:
    def test_retry_perturbs_seed_on_simulation_error(self):
        policy = RunnerConfig(max_retries=1)
        (value,) = run_sweep([SweepPoint(FLAKY, {"seed": 1})], policy=policy)
        assert value == 1 + RETRY_SEED_STEP  # retried once with seed + step

    def test_exhausted_retries_raise_last_error(self, tmp_path):
        policy = RunnerConfig(max_retries=1)
        point = SweepPoint(LIVELOCK, {"seed": 1, "marker_dir": str(tmp_path)})
        with pytest.raises(SimulationError, match="livelock detected"):
            run_sweep([point], policy=policy)

    def test_non_simulation_errors_do_not_retry(self):
        policy = RunnerConfig(max_retries=5)
        with pytest.raises(ValueError):
            run_sweep([SweepPoint(FAILS, {"seed": 1})], policy=policy)

    def test_timeout_raises_watchdog(self):
        policy = RunnerConfig(timeout_s=0.05, max_retries=0)
        with pytest.raises(WatchdogTimeout, match="wall-clock budget"):
            run_sweep([SweepPoint(SLOW, {"seed": 1})], policy=policy)

    def test_timed_out_retries_leave_no_thread_running(self):
        # A deadline kills the worker process that ran the point, so no
        # attempt keeps running after the sweep gives up on it.
        before = threading.active_count()
        policy = RunnerConfig(timeout_s=0.05, max_retries=2)
        with pytest.raises(WatchdogTimeout):
            run_sweep([SweepPoint(SLOW, {"seed": 1})], jobs=1, policy=policy)
        assert threading.active_count() == before

    def test_no_policy_runs_once(self):
        with pytest.raises(SimulationError):
            run_sweep([SweepPoint(FLAKY, {"seed": 1})])


class TestParallel:
    def test_pool_results_match_serial(self):
        points = [SweepPoint(SQUARE, {"value": value}) for value in range(4)]
        serial = run_sweep(points, jobs=1)
        parallel = run_sweep(points, jobs=2)
        assert serial == parallel

    def test_spawn_start_method_is_supported(self):
        points = [SweepPoint(SQUARE, {"value": value}) for value in (2, 3)]
        assert run_sweep(points, jobs=2, start_method="spawn") == run_sweep(points)

    def test_worker_failure_reraises_original_repro_type(self):
        points = [
            SweepPoint(FLAKY, {"seed": 1}),
            SweepPoint(FLAKY, {"seed": 200}),
        ]
        with pytest.raises(SimulationError, match="livelocked"):
            run_sweep(points, jobs=2)

    def test_worker_failure_with_foreign_type_degrades(self):
        with pytest.raises(ExperimentError, match="deterministic bug") as info:
            run_sweep(
                [SweepPoint(FAILS, {"seed": 1}), SweepPoint(FAILS, {"seed": 2})],
                jobs=2,
            )
        assert "worker traceback" in str(info.value)
        assert "always_fails_point" in str(info.value)

    def test_single_miss_avoids_the_pool(self):
        # One point never pays pool start-up, whatever ``jobs`` says.
        (value,) = run_sweep([SweepPoint(SQUARE, {"value": 7})], jobs=8)
        assert value == 49
