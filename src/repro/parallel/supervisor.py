"""Supervised sweep executor: crash-safe, journaled, resumable.

The engine's old pool path was all-or-nothing: ``pool.map`` blocked on
every point, one worker failure propagated after the batch, and a hard
crash (``os._exit``, OOM kill) could wedge the pool.  The supervisor
replaces it with per-task dispatch over dedicated pipes:

* each worker owns one duplex pipe; an in-flight task is pinned to its
  worker, so a dead process (pipe EOF) is detected immediately and its
  task — and only its task — is reassigned to a respawned worker;
* a per-point wall-clock **deadline** (``policy.timeout_s``) is
  enforced from the parent by *killing* the overdue worker, which
  reclaims the CPU and leaves nothing running.  A policy with a
  timeout therefore runs every point in a worker process, even at
  ``jobs=1``; without one, ``jobs=1`` sweeps and single points run
  in-process;
* failures eligible for retry (kernel-level
  :class:`~repro.errors.SimulationError`, timeouts, crashes) are
  re-dispatched up to ``policy.max_retries`` times with perturbed seeds
  and deterministic jittered exponential backoff;
* every outcome is appended to the optional persistent
  :class:`~repro.parallel.journal.SweepJournal` and successful values
  are written to the result cache **as they complete**, so an abort at
  point 900/1000 keeps the other 899;
* ``on_error`` picks the failure policy: ``"raise"`` stops dispatching
  and re-raises the first final failure once in-flight work has been
  collected, ``"skip"`` substitutes ``None``, ``"degrade"``
  substitutes a typed :class:`PointFailure` record — both of the
  latter finish the sweep and print a :class:`SweepReport`;
* SIGINT/SIGTERM trigger graceful shutdown: flush journal and cache,
  kill the workers, and raise :class:`~repro.errors.SweepInterrupted`
  naming the resumable state.  A second SIGINT forces the default
  handler (hard exit).

``resume=True`` replays a previous journal: points recorded ``ok``
under the current code-version tag are served from the journal (and
re-warmed into the cache) and only failed or unfinished points
execute, so an interrupted sweep's merged results are bit-identical to
an uninterrupted run.

Points with equal :func:`~repro.parallel.cache.point_key` run once per
sweep: a point is a pure function of its parameters (the cache's
contract), so the first point of each key executes and its value — or
its failure — is copied to every index that shares the key.  Results,
report tallies and ``on_error`` handling read as if each point had run
alone; the cache and the journal hold one record per distinct key.
"""

from __future__ import annotations

import copy
import gc
import heapq
import multiprocessing
import signal
import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as connection_wait
from typing import Any, Mapping, Sequence, TextIO

from repro import errors as _errors
from repro.errors import (
    ExperimentError,
    SimulationError,
    SweepInterrupted,
    WatchdogTimeout,
)
from repro.parallel.cache import SweepCache, code_version_tag, point_key
from repro.parallel.engine import SweepPoint, backoff_delay_s, resolve_point_fn
from repro.parallel.journal import PointRecord, SweepJournal, load_journal

#: Valid ``on_error`` failure policies.
ON_ERROR_POLICIES: tuple[str, ...] = ("raise", "skip", "degrade")

#: Upper bound on one ``connection.wait`` nap, so signal flags and
#: retry ready-times are observed promptly even under quiet workers.
_POLL_INTERVAL_S = 0.2


@dataclass(frozen=True)
class PointFailure:
    """Typed record standing in for a failed point's value.

    Under ``on_error="degrade"`` these appear *in the results list* at
    the failed indices; under every policy they populate
    :attr:`SweepReport.failures`.
    """

    index: int
    fn: str
    key: str
    status: str  # "failed" | "timeout" | "crashed"
    error: str
    error_type: str
    attempts: int

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (report files, journals)."""
        return {
            "index": self.index,
            "fn": self.fn,
            "key": self.key,
            "status": self.status,
            "error": self.error,
            "error_type": self.error_type,
            "attempts": self.attempts,
        }


@dataclass
class SweepReport:
    """Outcome tally of one supervised sweep."""

    total: int
    ok: int = 0
    cached: int = 0
    resumed: int = 0
    retried: int = 0
    #: Points that reused the outcome of an equal point in the sweep.
    shared: int = 0
    failures: list[PointFailure] = field(default_factory=list)
    elapsed_s: float = 0.0
    journal_path: str | None = None

    @property
    def failed(self) -> int:
        """Number of points that exhausted their attempts."""
        return len(self.failures)

    def render(self) -> str:
        """Human-readable sweep report (printed on degraded sweeps)."""
        lines = [
            f"sweep report: {self.ok}/{self.total} points ok"
            f" ({self.cached} cached, {self.resumed} resumed,"
            f" {self.shared} shared, {self.retried} retries)"
            f" in {self.elapsed_s:.1f}s"
        ]
        for failure in self.failures:
            lines.append(
                f"  point[{failure.index}] {failure.fn} {failure.status} "
                f"after {failure.attempts} attempt(s): "
                f"{failure.error_type}: {failure.error}"
            )
        if self.journal_path is not None:
            lines.append(f"  journal: {self.journal_path}")
        return "\n".join(lines)


@dataclass
class SweepOutcome:
    """Results (in point order) plus the report that produced them."""

    results: list[Any]
    report: SweepReport


def perturbed_params(
    params: Mapping[str, Any], attempt: int, seed_step: int
) -> dict[str, Any]:
    """The point's kwargs for retry ``attempt`` (0 = first try).

    Retries perturb the point's ``seed`` parameter, when it has one, by
    ``seed_step`` per attempt.  Spec-driven points carry their seed
    inside a ``spec`` document instead; the same perturbation applies to
    ``params["spec"]["seed"]``.
    """
    kwargs = dict(params)
    if attempt and "seed" in kwargs:
        kwargs["seed"] = kwargs["seed"] + attempt * seed_step
    spec = kwargs.get("spec")
    if attempt and isinstance(spec, Mapping) and "seed" in spec:
        reseeded = dict(spec)
        reseeded["seed"] = reseeded["seed"] + attempt * seed_step
        kwargs["spec"] = reseeded
    return kwargs


#: The serialised form a worker failure takes across the process
#: boundary: ``(exception type name, message, formatted traceback)``.
ErrorRecord = tuple[str, str, str]


def serialize_error(error: BaseException) -> ErrorRecord:
    """Flatten an exception into a picklable record for the parent."""
    return (type(error).__name__, str(error), traceback.format_exc())


def worker_error(fn: str, record: ErrorRecord) -> Exception:
    """Rebuild a worker failure in the parent.

    The original exception type is preserved when it is one of ours
    (so the runner still tells a timeout from a failure); foreign types
    degrade to :class:`ExperimentError` carrying the worker traceback.
    """
    error_type, message, worker_traceback = record
    exc_class = getattr(_errors, error_type, None)
    detail = f"sweep point {fn} failed: {message}"
    if isinstance(exc_class, type) and issubclass(exc_class, Exception):
        return exc_class(detail)
    return ExperimentError(
        f"{detail}\n--- worker traceback ---\n{worker_traceback}"
    )


def _retryable(error_type: str) -> bool:
    """True when a failure type is eligible for a reseeded retry."""
    exc_class = getattr(_errors, error_type, None)
    return isinstance(exc_class, type) and issubclass(
        exc_class, SimulationError
    )


def _mp_context(start_method: str | None) -> multiprocessing.context.BaseContext:
    """Fork where available (cheap workers), spawn otherwise.

    The worker protocol is spawn-safe — points are picklable
    descriptions and the worker is a module-level function — so
    ``start_method`` may force ``"spawn"`` (the tests do) at the cost of
    per-worker interpreter start-up.
    """
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else "spawn"
    return multiprocessing.get_context(start_method)


class _Task:
    """One distinct point's execution state inside the supervisor.

    ``index`` is the first point with this key; ``indices`` lists every
    point that shares the key (``index`` included) and so its outcome.
    """

    __slots__ = ("index", "indices", "point", "key", "attempt", "started")

    def __init__(self, index: int, point: SweepPoint, key: str):
        self.index = index
        self.indices = [index]
        self.point = point
        self.key = key
        self.attempt = 0
        self.started: float | None = None


class _Worker:
    """A supervised worker process and its dedicated pipe."""

    __slots__ = ("process", "connection", "task", "deadline")

    def __init__(self, process: Any, connection: Connection):
        self.process = process
        self.connection = connection
        self.task: _Task | None = None
        self.deadline: float | None = None


def _worker_main(
    connection: Connection, inherited: Sequence[Connection]
) -> None:
    """Worker loop: one attempt per message, outcomes over the pipe.

    SIGINT is ignored so a terminal Ctrl-C (delivered to the whole
    foreground process group) leaves shutdown sequencing to the
    supervisor.  SIGTERM gets its default action back: a forked worker
    inherits the supervisor's graceful-shutdown handler, which would
    swallow the SIGTERM the supervisor kills it with.

    ``inherited`` are the supervisor's pipe ends that a forked worker
    holds copies of: its own and every earlier worker's.  Closing them
    lets ``recv`` see EOF, and the worker exit, once the supervisor is
    gone, even when it died without reaping its workers.

    A finished network leaves its ledger rows, datagrams and timers in
    reference cycles that only a rare full collection frees, so the
    worker collects after every point.  The heap it started with is
    frozen first, which keeps each collection down to the new garbage.
    """
    for end in inherited:
        end.close()
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    gc.freeze()
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if message is None:
            return
        index, fn, params = message
        try:
            outcome: tuple[int, str, Any] = (
                index,
                "ok",
                resolve_point_fn(fn)(**params),
            )
        except BaseException as error:  # noqa: BLE001 - serialised for parent
            outcome = (index, "err", serialize_error(error))
        try:
            connection.send(outcome)
        except (BrokenPipeError, OSError):
            return
        except Exception:  # noqa: BLE001 - e.g. unpicklable point value
            try:
                connection.send(
                    (
                        index,
                        "err",
                        (
                            "ExperimentError",
                            "point result could not be pickled back "
                            "to the supervisor",
                            "",
                        ),
                    )
                )
            except (BrokenPipeError, OSError):
                return
        gc.collect()


class _Supervision:
    """State machine for one supervised sweep (serial or pooled)."""

    def __init__(
        self,
        points: Sequence[SweepPoint],
        jobs: int,
        cache: SweepCache | None,
        policy: Any,
        start_method: str | None,
        journal: SweepJournal | None,
        on_error: str,
        resume: bool,
        report_stream: TextIO | None,
    ):
        self.points = list(points)
        self.jobs = jobs
        self.cache = cache
        self.start_method = start_method
        self.journal = journal
        self.on_error = on_error
        self.resume = resume
        self.report_stream = report_stream
        # A ``None`` policy means no timeout and no retry.
        self.timeout_s: float | None = getattr(policy, "timeout_s", None)
        self.max_retries = max(0, int(getattr(policy, "max_retries", 0)))
        self.seed_step = int(getattr(policy, "retry_seed_step", 0))
        self.backoff_base_s = max(
            0.0, float(getattr(policy, "backoff_base_s", 0.0))
        )
        self.backoff_max_s = max(
            0.0, float(getattr(policy, "backoff_max_s", 0.0))
        )
        self.version = (
            cache.version_tag if cache is not None else code_version_tag()
        )
        self.results: list[Any] = [None] * len(self.points)
        self.report = SweepReport(
            total=len(self.points),
            journal_path=str(journal.path) if journal is not None else None,
        )
        self._interrupted = False
        self._signal_count = 0
        self._abort = False
        self._raise_error: BaseException | None = None
        self._retry_sequence = 0
        #: Supervisor ends of the live workers' pipes (see _spawn_worker).
        self._parent_ends: set[Connection] = set()

    # -- signal handling ---------------------------------------------------

    def _on_signal(self, signum: int, frame: Any) -> None:
        self._signal_count += 1
        self._interrupted = True
        if self._signal_count >= 2 and signum == signal.SIGINT:
            # Second Ctrl-C: the user means it — stop being graceful.
            signal.signal(signal.SIGINT, signal.default_int_handler)
            raise KeyboardInterrupt

    def _install_signals(self) -> dict[int, Any]:
        if threading.current_thread() is not threading.main_thread():
            return {}
        previous: dict[int, Any] = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, self._on_signal)
            except (ValueError, OSError):  # pragma: no cover - odd runtime
                pass
        return previous

    @staticmethod
    def _restore_signals(previous: Mapping[int, Any]) -> None:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover - odd runtime
                pass

    # -- bookkeeping -------------------------------------------------------

    def _journal_record(self, record: PointRecord) -> None:
        if self.journal is not None:
            self.journal.record(record)

    def _fill(self, task: _Task, value: Any) -> None:
        """Put ``value`` at every index of ``task``, a copy at each sharer."""
        self.results[task.index] = value
        for index in task.indices[1:]:
            self.results[index] = copy.deepcopy(value)

    def _complete_ok(
        self, task: _Task, value: Any, attempts: int, cached: bool = False
    ) -> None:
        self._fill(task, value)
        self.report.ok += len(task.indices)
        if cached:
            self.report.cached += len(task.indices)
        duration = (
            time.monotonic() - task.started if task.started is not None else 0.0
        )
        if self.cache is not None and not cached:
            self.cache.put(task.point.fn, task.point.params, value)
        self._journal_record(
            PointRecord(
                key=task.key,
                fn=task.point.fn,
                index=task.index,
                status="ok",
                attempts=attempts,
                duration_s=duration,
                version=self.version,
                value=value,
                cached=cached,
            )
        )

    def _complete_failure(
        self, task: _Task, status: str, record: ErrorRecord, attempts: int
    ) -> None:
        error_type, message, _ = record
        duration = (
            time.monotonic() - task.started if task.started is not None else 0.0
        )
        self._journal_record(
            PointRecord(
                key=task.key,
                fn=task.point.fn,
                index=task.index,
                status=status,
                attempts=attempts,
                duration_s=duration,
                version=self.version,
                error=message,
                error_type=error_type,
            )
        )
        for index in task.indices:
            failure = PointFailure(
                index=index,
                fn=task.point.fn,
                key=task.key,
                status=status,
                error=message,
                error_type=error_type,
                attempts=attempts,
            )
            self.report.failures.append(failure)
            self.results[index] = failure if self.on_error == "degrade" else None
        if self.on_error == "raise":
            self._abort = True
            if self._raise_error is None:
                self._raise_error = worker_error(task.point.fn, record)

    # -- resume / cache triage ---------------------------------------------

    def _triage(self) -> list[_Task]:
        """Group equal points, serve resumed and cached ones; return the rest."""
        distinct: dict[str, _Task] = {}
        for index, point in enumerate(self.points):
            key = point_key(point.fn, point.params, self.version)
            first = distinct.get(key)
            if first is None:
                distinct[key] = _Task(index, point, key)
            else:
                first.indices.append(index)
        self.report.shared = len(self.points) - len(distinct)
        resume_map: dict[str, PointRecord] = {}
        if self.resume and self.journal is not None:
            resume_map = load_journal(self.journal.path)
        tasks: list[_Task] = []
        for task in distinct.values():
            point = task.point
            record = resume_map.get(task.key)
            if (
                record is not None
                and record.status == "ok"
                and record.version == self.version
            ):
                self._fill(task, record.value)
                self.report.ok += len(task.indices)
                self.report.resumed += len(task.indices)
                if self.cache is not None:
                    hit, _ = self.cache.lookup(point.fn, point.params)
                    if not hit:
                        self.cache.put(point.fn, point.params, record.value)
                continue
            if self.cache is not None:
                hit, value = self.cache.lookup(point.fn, point.params)
                if hit:
                    task.started = time.monotonic()
                    self._complete_ok(task, value, attempts=0, cached=True)
                    continue
            tasks.append(task)
        return tasks

    # -- serial executor ---------------------------------------------------

    def _run_serial(self, tasks: Sequence[_Task]) -> None:
        for task in tasks:
            if self._interrupted or self._abort:
                return
            self._run_serial_task(task)

    def _run_serial_task(self, task: _Task) -> None:
        task.started = time.monotonic()
        last_record: ErrorRecord | None = None
        last_error: BaseException | None = None
        last_status = "failed"
        attempts = 0
        for attempt in range(self.max_retries + 1):
            if attempt:
                if self._interrupted:
                    return  # unfinished: no record, resume re-runs it
                delay = backoff_delay_s(
                    attempt,
                    self.backoff_base_s,
                    self.backoff_max_s,
                    token=task.key,
                )
                if delay > 0.0:
                    time.sleep(delay)
                self.report.retried += len(task.indices)
            params = perturbed_params(
                task.point.params, attempt, self.seed_step
            )
            attempts = attempt + 1
            try:
                value = resolve_point_fn(task.point.fn)(**params)
            except KeyboardInterrupt:
                self._interrupted = True
                return
            except WatchdogTimeout as error:  # an engine Watchdog budget
                last_record = serialize_error(error)
                last_error = error
                last_status = "timeout"
                continue
            except SimulationError as error:
                last_record = serialize_error(error)
                last_error = error
                last_status = "failed"
                continue
            except Exception as error:  # noqa: BLE001 - isolation boundary
                self._complete_failure(
                    task, "failed", serialize_error(error), attempts
                )
                if self.on_error == "raise":
                    self._raise_error = error  # original object, serially
                return
            self._complete_ok(task, value, attempts)
            return
        assert last_record is not None
        self._complete_failure(task, last_status, last_record, attempts)
        if self.on_error == "raise" and last_error is not None:
            self._raise_error = last_error

    # -- pooled executor ---------------------------------------------------

    def _spawn_worker(self, context: Any) -> _Worker:
        parent_end, child_end = context.Pipe(duplex=True)
        # A forked child holds a copy of every open parent end; a
        # spawned one inherits none.
        inherited = (
            [parent_end, *self._parent_ends]
            if context.get_start_method() == "fork"
            else []
        )
        process = context.Process(
            target=_worker_main, args=(child_end, inherited), daemon=True
        )
        process.start()
        child_end.close()
        self._parent_ends.add(parent_end)
        return _Worker(process, parent_end)

    def _kill_worker(self, worker: _Worker) -> None:
        self._parent_ends.discard(worker.connection)
        try:
            worker.connection.close()
        except OSError:  # pragma: no cover - already closed
            pass
        process = worker.process
        if process.is_alive():
            process.terminate()
            process.join(0.5)
            if process.is_alive():  # pragma: no cover - stubborn worker
                process.kill()
                process.join(0.5)

    def _dispatch(
        self,
        worker: _Worker,
        task: _Task,
        busy: dict[Connection, _Worker],
        idle: list[_Worker],
        context: Any,
        queue: "deque[_Task]",
    ) -> None:
        if task.started is None:
            task.started = time.monotonic()
        params = perturbed_params(
            task.point.params, task.attempt, self.seed_step
        )
        try:
            worker.connection.send((task.index, task.point.fn, params))
        except (BrokenPipeError, OSError):
            # The worker died while idle: replace it, requeue the task.
            self._kill_worker(worker)
            idle.append(self._spawn_worker(context))
            queue.appendleft(task)
            return
        worker.task = task
        worker.deadline = (
            time.monotonic() + self.timeout_s
            if self.timeout_s is not None
            else None
        )
        busy[worker.connection] = worker

    def _after_attempt_failure(
        self,
        task: _Task,
        status: str,
        record: ErrorRecord,
        retryable: bool,
        retries: list[tuple[float, int, _Task]],
    ) -> None:
        if retryable and task.attempt < self.max_retries and not self._abort:
            task.attempt += 1
            self.report.retried += len(task.indices)
            delay = backoff_delay_s(
                task.attempt,
                self.backoff_base_s,
                self.backoff_max_s,
                token=task.key,
            )
            self._retry_sequence += 1
            heapq.heappush(
                retries,
                (time.monotonic() + delay, self._retry_sequence, task),
            )
        else:
            self._complete_failure(task, status, record, task.attempt + 1)

    def _collect(
        self,
        worker: _Worker,
        busy: dict[Connection, _Worker],
        idle: list[_Worker],
        retries: list[tuple[float, int, _Task]],
        context: Any,
    ) -> None:
        task = worker.task
        assert task is not None
        try:
            _index, status, payload = worker.connection.recv()
        except (EOFError, OSError):
            # Hard crash mid-point (os._exit, OOM kill, segfault).
            del busy[worker.connection]
            self._kill_worker(worker)
            if self._interrupted:
                # Most likely the SIGTERM sent to the whole process
                # group: the point is unfinished, so resume re-runs it.
                return
            exitcode = worker.process.exitcode
            record: ErrorRecord = (
                "WorkerCrashed",
                f"worker died mid-point (exit code {exitcode})",
                "",
            )
            # Respawn unconditionally (surplus idle workers are cheap
            # and reaped at shutdown); deciding "is a worker still
            # needed" here would race the retry this crash may schedule.
            if not self._abort:
                idle.append(self._spawn_worker(context))
            self._after_attempt_failure(
                task, "crashed", record, retryable=True, retries=retries
            )
            return
        del busy[worker.connection]
        worker.task = None
        worker.deadline = None
        idle.append(worker)
        if status == "ok":
            self._complete_ok(task, payload, attempts=task.attempt + 1)
            return
        error_type = payload[0]
        failure_status = "timeout" if error_type == "WatchdogTimeout" else "failed"
        self._after_attempt_failure(
            task,
            failure_status,
            payload,
            retryable=_retryable(error_type),
            retries=retries,
        )

    def _enforce_deadlines(
        self,
        busy: dict[Connection, _Worker],
        idle: list[_Worker],
        retries: list[tuple[float, int, _Task]],
        context: Any,
    ) -> None:
        now = time.monotonic()
        for connection, worker in list(busy.items()):
            if worker.deadline is None or now <= worker.deadline:
                continue
            task = worker.task
            assert task is not None
            del busy[connection]
            self._kill_worker(worker)
            if not (self._abort or self._interrupted):
                idle.append(self._spawn_worker(context))
            record: ErrorRecord = (
                "WatchdogTimeout",
                f"sweep point exceeded its {self.timeout_s:g}s wall-clock "
                "budget; worker killed",
                "",
            )
            self._after_attempt_failure(
                task, "timeout", record, retryable=True, retries=retries
            )

    def _wait_timeout(
        self,
        busy: Mapping[Connection, _Worker],
        retries: Sequence[tuple[float, int, _Task]],
    ) -> float:
        now = time.monotonic()
        timeout = _POLL_INTERVAL_S
        for worker in busy.values():
            if worker.deadline is not None:
                timeout = min(timeout, worker.deadline - now)
        if retries:
            timeout = min(timeout, retries[0][0] - now)
        return max(0.01, timeout)

    def _run_pooled(self, tasks: Sequence[_Task]) -> None:
        context = _mp_context(self.start_method)
        queue: deque[_Task] = deque(tasks)
        retries: list[tuple[float, int, _Task]] = []
        workers = min(self.jobs, len(tasks))
        idle: list[_Worker] = [
            self._spawn_worker(context) for _ in range(workers)
        ]
        busy: dict[Connection, _Worker] = {}
        try:
            while not self._interrupted:
                now = time.monotonic()
                while retries and retries[0][0] <= now:
                    _, _, task = heapq.heappop(retries)
                    queue.append(task)
                if not self._abort:
                    while queue and idle:
                        self._dispatch(
                            idle.pop(), queue.popleft(), busy, idle, context,
                            queue,
                        )
                if not busy:
                    if self._abort:
                        return  # raise-mode: drop undispatched work
                    if retries:
                        # Everything left is backing off; nap until the
                        # first retry is due (in small, signal-aware
                        # increments).
                        time.sleep(
                            min(
                                _POLL_INTERVAL_S,
                                max(0.01, retries[0][0] - time.monotonic()),
                            )
                        )
                        continue
                    if queue:  # pragma: no cover - no idle worker survived
                        raise ExperimentError(
                            "supervised pool lost every worker"
                        )
                    return
                ready = connection_wait(
                    list(busy), timeout=self._wait_timeout(busy, retries)
                )
                for connection in ready:
                    worker = busy.get(connection)
                    if worker is not None:
                        self._collect(worker, busy, idle, retries, context)
                self._enforce_deadlines(busy, idle, retries, context)
        finally:
            self._shutdown_workers(list(idle) + list(busy.values()))

    def _shutdown_workers(self, workers: Sequence[_Worker]) -> None:
        self._parent_ends.clear()
        for worker in workers:
            if worker.task is None:
                try:
                    worker.connection.send(None)
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + 1.0
        for worker in workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(0.5)
                if worker.process.is_alive():  # pragma: no cover - stubborn
                    worker.process.kill()
                    worker.process.join(0.5)
            try:
                worker.connection.close()
            except OSError:  # pragma: no cover - already closed
                pass

    # -- orchestration -----------------------------------------------------

    def run(self) -> SweepOutcome:
        started = time.monotonic()
        tasks = self._triage()
        if self.journal is not None:
            self.journal.start_sweep(
                total=len(self.points),
                to_run=len(tasks),
                version_tag=self.version,
                policy={
                    "timeout_s": self.timeout_s,
                    "max_retries": self.max_retries,
                    "on_error": self.on_error,
                },
            )
        previous_handlers = self._install_signals()
        try:
            if tasks:
                if self.timeout_s is None and (
                    self.jobs == 1 or len(tasks) == 1
                ):
                    self._run_serial(tasks)
                else:
                    self._run_pooled(tasks)
        except KeyboardInterrupt:
            # Handler not installed (nested sweep / non-main thread) or
            # a second Ctrl-C landed between points.
            self._interrupted = True
        finally:
            self._restore_signals(previous_handlers)
        self.report.elapsed_s = time.monotonic() - started
        completed = self.report.ok + self.report.failed
        if self._interrupted:
            if self.journal is not None:
                self.journal.interrupted(completed, len(self.points))
            where = (
                f"journal: {self.report.journal_path}"
                if self.report.journal_path is not None
                else "no journal; completed points survive in the cache"
            )
            raise SweepInterrupted(
                f"sweep interrupted after {completed}/{len(self.points)} "
                f"points; {where} — re-run with resume to finish the rest"
            )
        if self.journal is not None:
            self.journal.finish(ok=self.report.ok, failed=self.report.failed)
        if self._raise_error is not None:
            raise self._raise_error
        if self.report.failures and self.report_stream is not None:
            print(self.report.render(), file=self.report_stream, flush=True)
        return SweepOutcome(results=self.results, report=self.report)


def supervise_sweep(
    points: Sequence[SweepPoint],
    jobs: int = 1,
    cache: SweepCache | None = None,
    policy: Any = None,
    start_method: str | None = None,
    journal: SweepJournal | str | None = None,
    on_error: str | None = None,
    resume: bool | None = None,
    report_stream: TextIO | None = None,
) -> SweepOutcome:
    """Run a sweep under supervision; the engine's ``run_sweep`` wraps this.

    ``journal`` / ``on_error`` / ``resume`` left as ``None`` fall back
    to the ``journal_path`` / ``on_error`` / ``resume`` attributes of
    ``policy`` (the :class:`~repro.experiments.runner.RunnerConfig`
    shape), so one policy object travels from the CLI into every sweep
    an experiment makes.  ``report_stream`` defaults to ``sys.stderr``;
    pass a file-like object to capture the degraded-sweep report, or
    rely on the returned :class:`SweepOutcome`'s report.
    """
    if on_error is None:
        on_error = getattr(policy, "on_error", None) or "raise"
    if on_error not in ON_ERROR_POLICIES:
        raise ExperimentError(
            f"on_error must be one of {', '.join(ON_ERROR_POLICIES)}, "
            f"got {on_error!r}"
        )
    if journal is None:
        journal_path = getattr(policy, "journal_path", None)
        journal = SweepJournal(journal_path) if journal_path else None
        owns_journal = journal is not None
    elif isinstance(journal, SweepJournal):
        owns_journal = False
    else:
        journal = SweepJournal(journal)
        owns_journal = True
    if resume is None:
        resume = bool(getattr(policy, "resume", False))
    if resume and journal is None:
        raise ExperimentError(
            "resume needs a journal: pass journal=/--journal with the "
            "path of the interrupted sweep's journal"
        )
    if report_stream is None:
        report_stream = sys.stderr
    supervision = _Supervision(
        points,
        jobs=jobs,
        cache=cache,
        policy=policy,
        start_method=start_method,
        journal=journal,
        on_error=on_error,
        resume=resume,
        report_stream=report_stream,
    )
    try:
        return supervision.run()
    finally:
        if owns_journal and journal is not None:
            journal.close()
