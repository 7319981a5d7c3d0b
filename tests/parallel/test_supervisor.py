"""Chaos suite for the supervised executor.

Hard crashes (``os._exit``), hangs past the deadline, mid-sweep
exceptions and SIGINT — the supervisor must detect every one, keep the
journal valid, never lose completed work, and make ``resume`` produce
results bit-identical to an uninterrupted run.

Crash-grade isolation needs the pooled path.  Without a timeout that
requires ``jobs >= 2`` *and* at least two outstanding points (a single
miss runs in-process); every crash test here is shaped accordingly.
A policy with a timeout runs every point in a worker.
"""

import io
import json
import os
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

SQUARE = "tests.parallel.point_functions:square_point"
FAILS = "tests.parallel.point_functions:always_fails_point"
FLAKY = "tests.parallel.point_functions:flaky_point"
CRASH = "tests.parallel.point_functions:crash_point"
ALWAYS_CRASH = "tests.parallel.point_functions:always_crash_point"
HANG = "tests.parallel.point_functions:hang_point"
FAIL_ONCE = "tests.parallel.point_functions:fail_once_point"
COUNTING = "tests.parallel.point_functions:counting_point"
SIGTERM_DEFAULT = "tests.parallel.point_functions:sigterm_is_default_point"

#: No backoff in tests: retries re-dispatch immediately.
FAST = {"backoff_base_s": 0.0, "backoff_max_s": 0.0}


def point_lines(path: Path) -> list[dict]:
    lines = []
    for line in path.read_text().splitlines():
        document = json.loads(line)  # every line must be valid JSON
        if document.get("type") == "point":
            lines.append(document)
    return lines


class TestCrashRecovery:
    def test_dead_worker_respawned_and_point_retried(self):
        # crash_point(seed=1) takes the whole worker down with os._exit;
        # the supervisor must notice the EOF, respawn, and retry with a
        # perturbed seed that lands in the passing region.
        points = [
            SweepPoint(CRASH, {"seed": 1}),
            SweepPoint(SQUARE, {"value": 3}),
        ]
        policy = RunnerConfig(max_retries=1, retry_seed_step=1000, **FAST)
        assert run_sweep(points, jobs=2, policy=policy) == [1001, 9]

    def test_always_crashing_point_skipped_with_journal(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        points = [
            SweepPoint(ALWAYS_CRASH, {"seed": 1}),
            SweepPoint(SQUARE, {"value": 2}),
            SweepPoint(SQUARE, {"value": 3}),
        ]
        policy = RunnerConfig(max_retries=1, retry_seed_step=1000, **FAST)
        report_stream = io.StringIO()
        outcome = supervise_sweep(
            points,
            jobs=2,
            policy=policy,
            journal=str(journal_path),
            on_error="skip",
            report_stream=report_stream,
        )
        assert outcome.results == [None, 4, 9]
        assert outcome.report.ok == 2
        assert outcome.report.failed == 1
        assert outcome.report.failures[0].status == "crashed"
        assert outcome.report.failures[0].attempts == 2
        assert "sweep report" in report_stream.getvalue()
        statuses = {
            record["index"]: record["status"]
            for record in point_lines(journal_path)
        }
        assert statuses == {0: "crashed", 1: "ok", 2: "ok"}

    def test_degrade_leaves_typed_failure_record(self):
        points = [
            SweepPoint(ALWAYS_CRASH, {"seed": 1}),
            SweepPoint(SQUARE, {"value": 5}),
        ]
        policy = RunnerConfig(max_retries=0, **FAST)
        outcome = supervise_sweep(
            points,
            jobs=2,
            policy=policy,
            on_error="degrade",
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
        policy = RunnerConfig(
            timeout_s=1.0, max_retries=1, retry_seed_step=1000, **FAST
        )
        started = time.monotonic()
        assert run_sweep(points, jobs=2, policy=policy) == [1001, 16]
        assert time.monotonic() - started < 30.0  # never waited the 60s

    def test_hung_worker_timeout_recorded_when_retries_exhausted(
        self, tmp_path
    ):
        journal_path = tmp_path / "sweep.jsonl"
        points = [
            SweepPoint(HANG, {"seed": 1}),
            SweepPoint(SQUARE, {"value": 4}),
        ]
        policy = RunnerConfig(timeout_s=0.5, max_retries=0, **FAST)
        outcome = supervise_sweep(
            points,
            jobs=2,
            policy=policy,
            journal=str(journal_path),
            on_error="skip",
            report_stream=io.StringIO(),
        )
        assert outcome.results == [None, 16]
        (record,) = [
            line for line in point_lines(journal_path) if line["index"] == 0
        ]
        assert record["status"] == "timeout"
        assert record["error_type"] == "WatchdogTimeout"


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
    def test_resume_requires_journal(self):
        with pytest.raises(ExperimentError, match="resume needs a journal"):
            run_sweep([SweepPoint(SQUARE, {"value": 1})], resume=True)

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ExperimentError, match="on_error"):
            run_sweep([SweepPoint(SQUARE, {"value": 1})], on_error="explode")

    def test_resume_skips_completed_points(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        points = [SweepPoint(SQUARE, {"value": v}) for v in range(4)]
        first = run_sweep(points, journal=str(journal_path))
        assert first == [0, 1, 4, 9]
        before = len(point_lines(journal_path))
        # No cache: resume must rebuild the results from journal values.
        again = run_sweep(
            points, journal=str(journal_path), resume=True
        )
        assert again == first
        assert len(point_lines(journal_path)) == before  # nothing re-ran

    def test_resume_ignores_records_from_other_code_versions(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        cache_v1 = SweepCache(root=tmp_path / "c1", version_tag="v1")
        cache_v2 = SweepCache(root=tmp_path / "c2", version_tag="v2")
        points = [SweepPoint(SQUARE, {"value": v}) for v in (2, 3)]
        run_sweep(points, cache=cache_v1, journal=str(journal_path))
        before = len(point_lines(journal_path))
        run_sweep(
            points, cache=cache_v2, journal=str(journal_path), resume=True
        )
        # Different version tag -> different keys -> everything re-ran.
        assert len(point_lines(journal_path)) == before + len(points)


class TestAcceptance:
    """ISSUE acceptance: crash mid-sweep -> skip completes -> resume
    re-executes only the failed point, bit-identical to a clean run."""

    def test_crashed_point_resumes_bit_identical(self, tmp_path):
        markers = tmp_path / "markers"
        markers.mkdir()
        values = [0, 1, 2, 3, 4, 5, 3, 1]  # 3 and 1 appear twice
        # Pre-mark every value except 3: only point 3 hard-crashes its
        # worker (first visit), everything else succeeds immediately.
        for value in values:
            if value != 3:
                (markers / f"seen-{value}").write_text("seen\n")
        points = [
            SweepPoint(FAIL_ONCE, {"value": v, "marker_dir": str(markers)})
            for v in values
        ]
        cache = SweepCache(root=tmp_path / "cache")
        journal_path = tmp_path / "sweep.jsonl"
        policy = RunnerConfig(max_retries=0, **FAST)

        partial = run_sweep(
            points,
            jobs=2,
            cache=cache,
            policy=policy,
            journal=str(journal_path),
            on_error="skip",
        )
        assert partial == [0, 1, 4, None, 16, 25, None, 1]
        assert len(point_lines(journal_path)) == 6  # one per distinct point
        # Every completed point is cached despite the crash.
        for value in values:
            hit, _ = cache.lookup(
                FAIL_ONCE, {"value": value, "marker_dir": str(markers)}
            )
            assert hit == (value != 3)
        before = len(point_lines(journal_path))

        resumed = run_sweep(
            points,
            jobs=2,
            cache=cache,
            policy=policy,
            journal=str(journal_path),
            resume=True,
        )
        # Only the crashed point re-ran, once for both its indices...
        assert len(point_lines(journal_path)) == before + 1
        # ...and the merged output matches an uninterrupted serial run
        # (markers all exist now, so a fresh sweep succeeds first try).
        clean = run_sweep(points, jobs=1)
        assert resumed == clean == [v * v for v in values]


def runs(markers: Path, value: int | None = None) -> int:
    """How many times ``counting_point`` executed (for ``value``, or at all)."""
    prefix = "run-" if value is None else f"run-{value}-"
    return sum(1 for path in markers.iterdir() if path.name.startswith(prefix))


class TestSharedPoints:
    """Equal points run once; every sharing index reads as if it ran alone."""

    VALUES = [2, 3, 2, 5, 3, 2]

    @pytest.fixture
    def markers(self, tmp_path):
        path = tmp_path / "markers"
        path.mkdir()
        return path

    def counting(self, markers: Path, values, **params) -> list[SweepPoint]:
        return [
            SweepPoint(COUNTING, {"value": v, "marker_dir": str(markers), **params})
            for v in values
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_duplicates_run_once_and_fill_every_index(self, markers, jobs):
        outcome = supervise_sweep(self.counting(markers, self.VALUES), jobs=jobs)
        assert outcome.results == [[v, v * v] for v in self.VALUES]
        assert [runs(markers, v) for v in (2, 3, 5)] == [1, 1, 1]
        report = outcome.report
        assert (report.total, report.ok, report.shared) == (6, 6, 3)
        assert (report.cached, report.resumed, report.failed) == (0, 0, 0)
        assert "3 shared" in report.render()

    def test_sharing_indices_get_independent_copies(self, markers):
        results = run_sweep(self.counting(markers, [4, 4]))
        results[0].append("mutated")
        assert results[1] == [4, 16]

    def test_cache_holds_one_entry_per_distinct_key(self, markers, tmp_path):
        cache = SweepCache(root=tmp_path / "cache")
        points = self.counting(markers, self.VALUES)
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
        # sweep stops there, with 2 and 3 done and journaled once each.
        journal_path = tmp_path / "sweep.jsonl"
        values = [2, 3, 2, 5, 3, 5, 7, 2]
        points = [
            SweepPoint(point.fn, {**point.params, "interrupt": True})
            if point.params["value"] == 5
            else point
            for point in self.counting(markers, values)
        ]
        with pytest.raises(SweepInterrupted):
            run_sweep(points, journal=str(journal_path))
        assert [line["index"] for line in point_lines(journal_path)] == [0, 1]

        resumed = run_sweep(points, journal=str(journal_path), resume=True)
        # Resume ran only 5 (once, for both its indices) and 7.
        assert [runs(markers, v) for v in (2, 3, 5, 7)] == [1, 1, 2, 1]
        keys = [line["key"] for line in point_lines(journal_path)]
        assert len(keys) == len(set(keys)) == 4
        assert resumed == run_sweep(points) == [[v, v * v] for v in values]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_degrade_reports_a_failure_at_every_sharing_index(self, markers, jobs):
        points = self.counting(markers, [1, 6, 1], fail=True)
        points[1] = SweepPoint(SQUARE, {"value": 6})
        outcome = supervise_sweep(
            points, jobs=jobs, on_error="degrade", report_stream=io.StringIO()
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
        journal_path = tmp_path / "sweep.jsonl"
        points = self.counting(markers, [1, 1, 1], fail=True)
        points.append(SweepPoint(SQUARE, {"value": 3}))
        outcome = supervise_sweep(
            points,
            jobs=2,
            journal=str(journal_path),
            on_error="skip",
            report_stream=io.StringIO(),
        )
        assert outcome.results == [None, None, None, 9]
        assert outcome.report.failed == 3
        assert runs(markers) == 1
        statuses = sorted(line["status"] for line in point_lines(journal_path))
        assert statuses == ["failed", "ok"]

    @pytest.mark.parametrize(
        "jobs, error", [(1, ValueError), (2, ExperimentError)]
    )
    def test_raise_raises_once_for_a_shared_failure(self, markers, jobs, error):
        points = self.counting(markers, [1, 1], fail=True)
        points.append(SweepPoint(SQUARE, {"value": 3}))
        with pytest.raises(error, match="point 1 is broken"):
            run_sweep(points, jobs=jobs)
        assert runs(markers) == 1


_SIGINT_SCRIPT = """
import sys
from repro.errors import SweepInterrupted
from repro.parallel import SweepCache, SweepPoint, run_sweep

cache_dir, journal_path = sys.argv[1:3]
points = [
    SweepPoint(
        "tests.parallel.point_functions:sleepy_square_point",
        {"value": value, "delay_s": 0.5},
    )
    for value in range(8)
]
print("ready", flush=True)
try:
    run_sweep(
        points,
        jobs=2,
        cache=SweepCache(root=cache_dir),
        journal=journal_path,
    )
except SweepInterrupted as error:
    print(f"interrupted: {error}", file=sys.stderr, flush=True)
    sys.exit(130)
sys.exit(0)
"""


def interrupt_sweep_script(
    cache_dir: Path, journal_path: Path, interrupt, **popen
) -> tuple[int, str]:
    """Run ``_SIGINT_SCRIPT`` and ``interrupt(process)`` it mid-sweep.

    The interrupt lands once at least two points have been journaled
    (so there is real completed work to preserve).  Returns the exit
    code and the script's stderr.
    """
    repo_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(repo_root / "src"), str(repo_root)])
    process = subprocess.Popen(
        [sys.executable, "-c", _SIGINT_SCRIPT, str(cache_dir), str(journal_path)],
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
            if journal_path.exists() and len(point_lines(journal_path)) >= 2:
                break
            if process.poll() is not None:
                break
            time.sleep(0.05)
        else:  # pragma: no cover - diagnosis aid
            pytest.fail("journal never accumulated two points")
        interrupt(process)
        _out, err = process.communicate(timeout=30.0)
    finally:
        if process.poll() is None:  # pragma: no cover - hung child
            process.kill()
            process.communicate()
    return process.returncode, err


class TestGracefulInterrupt:
    def test_sigint_flushes_journal_and_resume_completes(self, tmp_path):
        cache_dir = tmp_path / "cache"
        journal_path = tmp_path / "sweep.jsonl"
        returncode, err = interrupt_sweep_script(
            cache_dir,
            journal_path,
            lambda process: process.send_signal(signal.SIGINT),
        )
        assert returncode == 130, err
        assert "interrupted" in err
        assert "resume" in err

        # Graceful shutdown left a valid journal: every line parses,
        # and the interrupted trailer made it to disk.
        documents = [
            json.loads(line)
            for line in journal_path.read_text().splitlines()
        ]
        assert any(doc.get("type") == "interrupted" for doc in documents)
        completed = point_lines(journal_path)
        assert 2 <= len(completed) < 8
        assert all(record["status"] == "ok" for record in completed)

        # Resume finishes the tail; merged output is bit-identical to
        # an uninterrupted run.
        points = [
            SweepPoint(
                "tests.parallel.point_functions:sleepy_square_point",
                {"value": value, "delay_s": 0.5},
            )
            for value in range(8)
        ]
        resumed = run_sweep(
            points,
            jobs=2,
            cache=SweepCache(root=cache_dir),
            journal=str(journal_path),
            resume=True,
        )
        assert resumed == [value * value for value in range(8)]

    def test_sigterm_to_the_process_group_records_no_failure(self, tmp_path):
        # ``timeout -s TERM`` or ``kill -TERM -<pgid>`` reaches the busy
        # workers too, and they die at once.  Their points are
        # unfinished, not crashed, so resume re-runs them.  The script
        # sets no policy: a crash would be final at once, not retried.
        journal_path = tmp_path / "sweep.jsonl"
        returncode, err = interrupt_sweep_script(
            tmp_path / "cache",
            journal_path,
            lambda process: os.killpg(process.pid, signal.SIGTERM),
            start_new_session=True,
        )
        assert returncode == 130, err
        documents = [
            json.loads(line) for line in journal_path.read_text().splitlines()
        ]
        assert any(doc.get("type") == "interrupted" for doc in documents)
        completed = point_lines(journal_path)
        assert completed
        assert all(record["status"] == "ok" for record in completed)


class TestGracefulInterruptWithTimeout:
    """``--timeout`` runs every point in a worker, and Ctrl-C still exits
    resumable: the experiment runs on the main thread, so the supervisor
    installs its signal handlers."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cli_sigint_with_timeout_exits_resumable(self, tmp_path, jobs):
        repo_root = Path(__file__).resolve().parents[2]
        journal_path = tmp_path / "sweep.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "figure3",
                "--probes", "3000",
                "--cache-dir", str(tmp_path / "cache"),
                "--journal", str(journal_path),
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
                if journal_path.exists() and point_lines(journal_path):
                    break
                if process.poll() is not None:
                    break
                time.sleep(0.05)
            else:  # pragma: no cover - diagnosis aid
                pytest.fail("journal never recorded a point")
            process.send_signal(signal.SIGINT)
            _out, err = process.communicate(timeout=30.0)
        finally:
            if process.poll() is None:  # pragma: no cover - hung child
                process.kill()
                process.communicate()
        assert process.returncode == 130, err
        assert "resume" in err
        documents = [
            json.loads(line) for line in journal_path.read_text().splitlines()
        ]
        assert any(doc.get("type") == "interrupted" for doc in documents)
        if Path("/proc").is_dir():
            assert running_with_argument(str(journal_path)) == []


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
from repro.parallel import SweepPoint, run_sweep

points = [
    SweepPoint(
        "tests.parallel.point_functions:sleepy_pid_point",
        {"value": value, "delay_s": 0.3},
    )
    for value in range(40)
]
run_sweep(points, jobs=2, journal=sys.argv[1])
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
        journal_path = tmp_path / "sweep.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo_root / "src"), str(repo_root)]
        )
        process = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SCRIPT, str(journal_path)],
            env=env,
            cwd=str(repo_root),
        )
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if journal_path.exists() and len(point_lines(journal_path)) >= 2:
                    break
                time.sleep(0.05)
            else:  # pragma: no cover - diagnosis aid
                pytest.fail("journal never accumulated two points")
        finally:
            process.kill()  # SIGKILL: no chance to reap its workers
            process.wait(timeout=30.0)
        pids = {record["value"] for record in point_lines(journal_path)}
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
