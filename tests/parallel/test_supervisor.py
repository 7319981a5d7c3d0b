"""Chaos suite for the supervised executor.

Hard crashes (``os._exit``), hangs past the deadline, mid-sweep
exceptions and SIGINT — the supervisor must detect every one and never
lose completed work, and running the sweep again with the same cache
must execute only the unfinished points and return what an
uninterrupted run returns.

Crash-grade isolation needs the pooled path.  Without a timeout that
requires ``jobs >= 2`` *and* at least two outstanding points (a single
miss runs in-process); every crash test here is shaped accordingly.
A policy with a timeout runs every point in a worker.
"""

import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ExperimentError, SweepInterrupted
from repro.experiments.runner import RunnerConfig
from repro.parallel import (
    PointFailure,
    SweepCache,
    SweepPoint,
    run_sweep,
    supervise_sweep,
)
from repro.parallel import cache as cache_module
from repro.parallel import supervisor as supervisor_module
from repro.parallel.supervisor import RETRY_SEED_STEP

SQUARE = "tests.parallel.point_functions:square_point"
FAILS = "tests.parallel.point_functions:always_fails_point"
CRASH = "tests.parallel.point_functions:crash_point"
ALWAYS_CRASH = "tests.parallel.point_functions:always_crash_point"
HANG = "tests.parallel.point_functions:hang_point"
COUNTING = "tests.parallel.point_functions:counting_point"
SIGTERM_DEFAULT = "tests.parallel.point_functions:sigterm_is_default_point"


def cached_values(cache_dir: Path) -> list:
    """The ``value`` of every entry in a cache directory."""
    return [
        json.loads(path.read_text())["value"]
        for path in cache_dir.rglob("*.json")
    ]


def runs(markers: Path, value: int | None = None) -> int:
    """How many times ``counting_point`` executed (for ``value``, or at all)."""
    prefix = "run-" if value is None else f"run-{value}-"
    return sum(1 for path in markers.iterdir() if path.name.startswith(prefix))


def counting(markers: Path, values, **params) -> list[SweepPoint]:
    """``counting_point`` sweep points for ``values``, marking into ``markers``."""
    return [
        SweepPoint(COUNTING, {"value": v, "marker_dir": str(markers), **params})
        for v in values
    ]


@pytest.fixture
def markers(tmp_path):
    path = tmp_path / "markers"
    path.mkdir()
    return path


class TestCrashRecovery:
    def test_dead_worker_respawned_and_point_retried(self):
        # crash_point(seed=1) takes the whole worker down with os._exit;
        # the supervisor must notice the EOF, respawn, and retry with a
        # perturbed seed that lands in the passing region.
        points = [
            SweepPoint(CRASH, {"seed": 1}),
            SweepPoint(SQUARE, {"value": 3}),
        ]
        policy = RunnerConfig(max_retries=1)
        assert run_sweep(points, jobs=2, policy=policy) == [
            1 + RETRY_SEED_STEP,
            9,
        ]

    def test_always_crashing_point_skipped(self):
        points = [
            SweepPoint(ALWAYS_CRASH, {"seed": 1}),
            SweepPoint(SQUARE, {"value": 2}),
            SweepPoint(SQUARE, {"value": 3}),
        ]
        policy = RunnerConfig(max_retries=1, on_error="skip")
        report_stream = io.StringIO()
        outcome = supervise_sweep(
            points,
            jobs=2,
            policy=policy,
            report_stream=report_stream,
        )
        assert outcome.results == [None, 4, 9]
        assert outcome.report.ok == 2
        assert outcome.report.failed == 1
        assert outcome.report.retried == 1
        assert outcome.report.failures[0].status == "crashed"
        assert outcome.report.failures[0].attempts == 2
        assert "sweep report" in report_stream.getvalue()

    def test_degrade_leaves_typed_failure_record(self):
        points = [
            SweepPoint(ALWAYS_CRASH, {"seed": 1}),
            SweepPoint(SQUARE, {"value": 5}),
        ]
        policy = RunnerConfig(max_retries=0, on_error="degrade")
        outcome = supervise_sweep(
            points,
            jobs=2,
            policy=policy,
            report_stream=io.StringIO(),
        )
        failure, value = outcome.results
        assert value == 25
        assert isinstance(failure, PointFailure)
        assert failure.status == "crashed"
        assert failure.index == 0
        assert "exit code" in failure.error

    def test_hung_worker_killed_at_deadline_and_retried(self):
        # hang_point(seed=1) sleeps 60s; the 1s deadline kills the
        # worker and the reseeded retry completes immediately.
        points = [
            SweepPoint(HANG, {"seed": 1}),
            SweepPoint(SQUARE, {"value": 4}),
        ]
        policy = RunnerConfig(timeout_s=1.0, max_retries=1)
        started = time.monotonic()
        assert run_sweep(points, jobs=2, policy=policy) == [
            1 + RETRY_SEED_STEP,
            16,
        ]
        assert time.monotonic() - started < 30.0  # never waited the 60s

    def test_hung_worker_timeout_recorded_when_retries_exhausted(self):
        points = [
            SweepPoint(HANG, {"seed": 1}),
            SweepPoint(SQUARE, {"value": 4}),
        ]
        policy = RunnerConfig(timeout_s=0.5, max_retries=0, on_error="skip")
        outcome = supervise_sweep(
            points,
            jobs=2,
            policy=policy,
            report_stream=io.StringIO(),
        )
        assert outcome.results == [None, 16]
        (failure,) = outcome.report.failures
        assert failure.index == 0
        assert failure.status == "timeout"
        assert failure.error_type == "WatchdogTimeout"


class TestCompletedWorkSurvives:
    def test_raise_policy_still_caches_completed_points(self, tmp_path):
        # The lost-work bug: a failure used to propagate before any
        # completed result reached the cache.  Now successes persist as
        # they finish, so only the never-started tail is missing.
        cache = SweepCache(root=tmp_path / "cache")
        points = [
            SweepPoint(SQUARE, {"value": 2}),
            SweepPoint(FAILS, {"seed": 1}),
            SweepPoint(SQUARE, {"value": 4}),
        ]
        with pytest.raises(ValueError, match="deterministic bug"):
            run_sweep(points, jobs=1, cache=cache)
        hit, value = cache.lookup(SQUARE, {"value": 2})
        assert hit and value == 4
        hit, _ = cache.lookup(SQUARE, {"value": 4})
        assert not hit  # raise-mode stops dispatching after the failure

    def test_pooled_raise_keeps_other_completed_points(self, tmp_path):
        cache = SweepCache(root=tmp_path / "cache")
        points = [
            SweepPoint(SQUARE, {"value": 2}),
            SweepPoint(SQUARE, {"value": 3}),
            SweepPoint(FAILS, {"seed": 1}),
        ]
        with pytest.raises(ExperimentError, match="deterministic bug"):
            run_sweep(points, jobs=2, cache=cache)
        assert cache.lookup(SQUARE, {"value": 2}) == (True, 4)
        assert cache.lookup(SQUARE, {"value": 3}) == (True, 9)


class TestResume:
    """Running a sweep again with the same cache finishes it."""

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ExperimentError, match="on_error"):
            run_sweep(
                [SweepPoint(SQUARE, {"value": 1})],
                policy=RunnerConfig(on_error="explode"),
            )

    def test_resume_skips_completed_points(self, markers, tmp_path):
        points = counting(markers, range(4))
        first = run_sweep(points, cache=SweepCache(root=tmp_path / "cache"))
        assert first == [[v, v * v] for v in range(4)]
        again = run_sweep(points, cache=SweepCache(root=tmp_path / "cache"))
        assert again == first
        assert runs(markers) == 4  # nothing re-ran

    def test_resume_ignores_records_from_other_code_versions(
        self, markers, tmp_path
    ):
        points = counting(markers, (2, 3))
        root = tmp_path / "cache"
        run_sweep(points, cache=SweepCache(root=root, version_tag="v1"))
        run_sweep(points, cache=SweepCache(root=root, version_tag="v2"))
        # Different version tag -> different keys -> everything re-ran.
        assert runs(markers) == 2 * len(points)


class TestAcceptance:
    """A pooled sweep whose worker crashes completes under ``skip``;
    running it again with the same cache executes only the crashed
    point and returns what an uninterrupted run returns."""

    def test_crashed_point_resumes_bit_identical(self, markers, tmp_path):
        values = [0, 1, 2, 3, 4, 5, 3, 1]  # 3 and 1 appear twice
        # Point 3 hard-crashes its worker on its first run only.
        points = [
            SweepPoint(point.fn, {**point.params, "crash": True})
            if point.params["value"] == 3
            else point
            for point in counting(markers, values)
        ]
        cache_dir = tmp_path / "cache"
        policy = RunnerConfig(max_retries=0, on_error="skip")

        partial = run_sweep(
            points,
            jobs=2,
            cache=SweepCache(root=cache_dir),
            policy=policy,
        )
        expected = [[v, v * v] for v in values]
        assert partial == [
            None if value == 3 else row for value, row in zip(values, expected)
        ]
        # Every completed distinct point is cached despite the crash.
        assert sorted(cached_values(cache_dir)) == [
            [v, v * v] for v in (0, 1, 2, 4, 5)
        ]
        assert runs(markers) == 6  # one run per distinct point

        rerun = run_sweep(
            points, jobs=2, cache=SweepCache(root=cache_dir), policy=policy
        )
        # Only the crashed point ran again, once for both its indices...
        assert runs(markers) == 7
        assert runs(markers, 3) == 2
        # ...and the merged output matches an uninterrupted run.
        assert rerun == expected


class TestSharedPoints:
    """Equal points run once; every sharing index reads as if it ran alone."""

    VALUES = [2, 3, 2, 5, 3, 2]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_duplicates_run_once_and_fill_every_index(self, markers, jobs):
        outcome = supervise_sweep(counting(markers, self.VALUES), jobs=jobs)
        assert outcome.results == [[v, v * v] for v in self.VALUES]
        assert [runs(markers, v) for v in (2, 3, 5)] == [1, 1, 1]
        report = outcome.report
        assert (report.total, report.ok, report.shared) == (6, 6, 3)
        assert (report.cached, report.failed) == (0, 0)
        assert "3 shared" in report.render()

    def test_sharing_indices_get_independent_copies(self, markers):
        results = run_sweep(counting(markers, [4, 4]))
        results[0].append("mutated")
        assert results[1] == [4, 16]

    def test_cache_holds_one_entry_per_distinct_key(self, markers, tmp_path):
        cache = SweepCache(root=tmp_path / "cache")
        points = counting(markers, self.VALUES)
        run_sweep(points, jobs=2, cache=cache)
        assert len(list((tmp_path / "cache").rglob("*.json"))) == 3
        warm = supervise_sweep(points, cache=cache)
        assert warm.results == [[v, v * v] for v in self.VALUES]
        assert (warm.report.ok, warm.report.cached) == (6, 6)
        assert cache.hits == 3
        assert runs(markers) == 3  # the warm sweep ran nothing

    def test_interrupted_sweep_with_duplicates_resumes_bit_identical(
        self, markers, tmp_path
    ):
        # Value 5 raises KeyboardInterrupt on its first run: the serial
        # sweep stops there, with 2 and 3 done and cached once each.
        cache_dir = tmp_path / "cache"
        values = [2, 3, 2, 5, 3, 5, 7, 2]
        points = [
            SweepPoint(point.fn, {**point.params, "interrupt": True})
            if point.params["value"] == 5
            else point
            for point in counting(markers, values)
        ]
        with pytest.raises(SweepInterrupted, match="run the same command again"):
            run_sweep(points, cache=SweepCache(root=cache_dir))
        assert sorted(cached_values(cache_dir)) == [[2, 4], [3, 9]]

        rerun = run_sweep(points, cache=SweepCache(root=cache_dir))
        # The re-run ran only 5 (once, for both its indices) and 7.
        assert [runs(markers, v) for v in (2, 3, 5, 7)] == [1, 1, 2, 1]
        assert len(cached_values(cache_dir)) == 4
        assert rerun == run_sweep(points) == [[v, v * v] for v in values]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_degrade_reports_a_failure_at_every_sharing_index(self, markers, jobs):
        points = counting(markers, [1, 6, 1], fail=True)
        points[1] = SweepPoint(SQUARE, {"value": 6})
        outcome = supervise_sweep(
            points,
            jobs=jobs,
            policy=RunnerConfig(max_retries=0, on_error="degrade"),
            report_stream=io.StringIO(),
        )
        first, value, second = outcome.results
        assert value == 36
        assert isinstance(first, PointFailure) and isinstance(second, PointFailure)
        assert (first.index, second.index) == (0, 2)
        assert first.key == second.key and first.error == second.error
        assert [f.index for f in outcome.report.failures] == [0, 2]
        assert (outcome.report.ok, outcome.report.failed) == (1, 2)
        assert runs(markers) == 1

    def test_skip_leaves_none_at_every_sharing_index(self, markers, tmp_path):
        cache_dir = tmp_path / "cache"
        points = counting(markers, [1, 1, 1], fail=True)
        points.append(SweepPoint(SQUARE, {"value": 3}))
        outcome = supervise_sweep(
            points,
            jobs=2,
            cache=SweepCache(root=cache_dir),
            policy=RunnerConfig(max_retries=0, on_error="skip"),
            report_stream=io.StringIO(),
        )
        assert outcome.results == [None, None, None, 9]
        assert outcome.report.failed == 3
        assert {f.status for f in outcome.report.failures} == {"failed"}
        assert runs(markers) == 1
        assert cached_values(cache_dir) == [9]  # failures are not cached

    @pytest.mark.parametrize(
        "jobs, error", [(1, ValueError), (2, ExperimentError)]
    )
    def test_raise_raises_once_for_a_shared_failure(self, markers, jobs, error):
        points = counting(markers, [1, 1], fail=True)
        points.append(SweepPoint(SQUARE, {"value": 3}))
        with pytest.raises(error, match="point 1 is broken"):
            run_sweep(points, jobs=jobs)
        assert runs(markers) == 1


_SIGINT_SCRIPT = """
import sys
from repro.errors import SweepInterrupted
from repro.parallel import SweepCache, SweepPoint, run_sweep

cache_dir, marker_dir = sys.argv[1:3]
points = [
    SweepPoint(
        "tests.parallel.point_functions:counting_point",
        {"value": value, "marker_dir": marker_dir, "delay_s": 0.5},
    )
    for value in range(8)
]
print("ready", flush=True)
try:
    run_sweep(points, jobs=2, cache=SweepCache(root=cache_dir))
except SweepInterrupted as error:
    print(f"interrupted: {error}", file=sys.stderr, flush=True)
    sys.exit(130)
sys.exit(0)
"""


def interrupt_sweep_script(
    cache_dir: Path, markers: Path, interrupt, **popen
) -> tuple[int, str]:
    """Run ``_SIGINT_SCRIPT`` and ``interrupt(process)`` it mid-sweep.

    The interrupt lands once the cache holds at least two points (so
    there is real completed work to preserve).  Returns the exit code
    and the script's stderr.
    """
    repo_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(repo_root / "src"), str(repo_root)])
    process = subprocess.Popen(
        [sys.executable, "-c", _SIGINT_SCRIPT, str(cache_dir), str(markers)],
        env=env,
        cwd=str(repo_root),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        **popen,
    )
    try:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if cache_dir.exists() and len(cached_values(cache_dir)) >= 2:
                break
            if process.poll() is not None:
                break
            time.sleep(0.05)
        else:  # pragma: no cover - diagnosis aid
            pytest.fail("cache never accumulated two points")
        interrupt(process)
        _out, err = process.communicate(timeout=30.0)
    finally:
        if process.poll() is None:  # pragma: no cover - hung child
            process.kill()
            process.communicate()
    return process.returncode, err


def finished_count(stderr: str) -> int:
    """The ``N`` of the interrupt message's ``N/total points finished``."""
    match = re.search(r"(\d+)/\d+ points finished", stderr)
    assert match is not None, stderr
    return int(match.group(1))


class TestGracefulInterrupt:
    def test_sigint_then_rerun_finishes_from_cache(self, markers, tmp_path):
        cache_dir = tmp_path / "cache"
        returncode, err = interrupt_sweep_script(
            cache_dir,
            markers,
            lambda process: process.send_signal(signal.SIGINT),
        )
        assert returncode == 130, err
        assert "interrupted" in err
        assert "run the same command again with the same cache" in err

        # Graceful shutdown kept every finished point, and only those.
        finished = cached_values(cache_dir)
        assert 2 <= len(finished) < 8
        assert finished_count(err) == len(finished)
        first_runs = runs(markers)

        # The re-run executes exactly the points the cache lacks, and
        # its merged output equals an uninterrupted run.
        rerun = run_sweep(
            counting(markers, range(8), delay_s=0.5),
            jobs=2,
            cache=SweepCache(root=cache_dir),
        )
        assert rerun == [[value, value * value] for value in range(8)]
        assert runs(markers) - first_runs == 8 - len(finished)

    def test_sigterm_to_the_process_group_records_no_failure(
        self, markers, tmp_path
    ):
        # ``timeout -s TERM`` or ``kill -TERM -<pgid>`` reaches the busy
        # workers too, and they die at once.  Their points are
        # unfinished, not crashed, so a re-run runs them.  The script
        # sets no policy: a crash would be final at once, not retried.
        cache_dir = tmp_path / "cache"
        returncode, err = interrupt_sweep_script(
            cache_dir,
            markers,
            lambda process: os.killpg(process.pid, signal.SIGTERM),
            start_new_session=True,
        )
        assert returncode == 130, err
        assert not re.search(r"\d+ failed", err), err
        assert finished_count(err) == len(cached_values(cache_dir)) >= 2


class TestGracefulInterruptWithTimeout:
    """``--timeout`` runs every point in a worker, and Ctrl-C still exits
    130 with the finished points cached: the experiment runs on the main
    thread, so the supervisor installs its signal handlers."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cli_sigint_with_timeout_exits_resumable(self, tmp_path, jobs):
        repo_root = Path(__file__).resolve().parents[2]
        cache_dir = tmp_path / "cache"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "figure3",
                "--probes", "3000",
                "--cache-dir", str(cache_dir),
                "--jobs", str(jobs),
                "--timeout", "300",
            ],
            env=env,
            cwd=str(repo_root),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if cache_dir.exists() and cached_values(cache_dir):
                    break
                if process.poll() is not None:
                    break
                time.sleep(0.05)
            else:  # pragma: no cover - diagnosis aid
                pytest.fail("cache never recorded a point")
            process.send_signal(signal.SIGINT)
            _out, err = process.communicate(timeout=30.0)
        finally:
            if process.poll() is None:  # pragma: no cover - hung child
                process.kill()
                process.communicate()
        assert process.returncode == 130, err
        assert "run the same command again with the same cache" in err
        assert finished_count(err) == len(cached_values(cache_dir)) >= 1
        if Path("/proc").is_dir():
            assert running_with_argument(str(cache_dir)) == []


def process_exited(pid: int) -> bool:
    """True once ``pid`` is gone or a zombie (exited, not yet reaped)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def running_with_argument(argument: str) -> list[int]:
    """Live processes whose command line contains ``argument``."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            arguments = (entry / "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        if argument.encode() in arguments and not process_exited(int(entry.name)):
            pids.append(int(entry.name))
    return pids


_ORPHAN_SCRIPT = """
import sys
from repro.parallel import SweepCache, SweepPoint, run_sweep

points = [
    SweepPoint(
        "tests.parallel.point_functions:sleepy_pid_point",
        {"value": value, "delay_s": 0.3},
    )
    for value in range(40)
]
run_sweep(points, jobs=2, cache=SweepCache(root=sys.argv[1]))
"""


class TestWorkerLifetime:
    def test_pooled_workers_take_sigterm_by_default(self):
        # The supervisor's graceful-shutdown handler is installed before
        # the pool forks; a worker that kept it would swallow the
        # SIGTERM of every kill and wait out the SIGKILL fallback.
        points = [SweepPoint(SIGTERM_DEFAULT, {"value": v}) for v in (1, 2)]
        assert run_sweep(points, jobs=2) == [True, True]

    @pytest.mark.skipif(
        not Path("/proc").is_dir(), reason="needs /proc to watch the workers"
    )
    def test_workers_exit_when_the_supervisor_is_killed(self, tmp_path):
        repo_root = Path(__file__).resolve().parents[2]
        cache_dir = tmp_path / "cache"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo_root / "src"), str(repo_root)]
        )
        process = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SCRIPT, str(cache_dir)],
            env=env,
            cwd=str(repo_root),
        )
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if cache_dir.exists() and len(cached_values(cache_dir)) >= 2:
                    break
                time.sleep(0.05)
            else:  # pragma: no cover - diagnosis aid
                pytest.fail("cache never accumulated two points")
        finally:
            process.kill()  # SIGKILL: no chance to reap its workers
            process.wait(timeout=30.0)
        pids = set(cached_values(cache_dir))
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not all(
            process_exited(pid) for pid in pids
        ):
            time.sleep(0.1)
        try:
            assert all(process_exited(pid) for pid in pids), pids
        finally:
            for pid in pids:
                if not process_exited(pid):  # pragma: no cover - the bug
                    os.kill(pid, signal.SIGKILL)


class TestUncachedSweep:
    def test_shares_equal_points_without_hashing_the_source(
        self, monkeypatch, markers
    ):
        # Without a cache, point keys only group equal points within
        # the sweep, so no source file needs to be read and hashed.
        def refuse():
            raise AssertionError("an uncached sweep hashed the source tree")

        monkeypatch.setattr(cache_module, "code_version_tag", refuse)
        monkeypatch.setattr(
            supervisor_module, "code_version_tag", refuse, raising=False
        )
        points = counting(markers, [2, 3, 2])
        assert run_sweep(points) == [[2, 4], [3, 9], [2, 4]]
        assert runs(markers, 2) == 1
        assert runs(markers) == 2
