"""Supervised sweep executor: crash-safe, and finished from the cache.

The engine's old pool path was all-or-nothing: ``pool.map`` blocked on
every point, one worker failure propagated after the batch, and a hard
crash (``os._exit``, OOM kill) could wedge the pool.  The supervisor
replaces it with per-task dispatch over dedicated pipes:

* each worker owns one duplex pipe; an in-flight task is pinned to its
  worker, so a dead process (pipe EOF) is detected immediately and its
  task — and only its task — is reassigned to a respawned worker;
* a per-point wall-clock **deadline** (``policy.timeout_s``) is
  enforced from the parent by *killing* the overdue worker, which
  reclaims the CPU and leaves nothing running.  It is the only
  timeout: a policy with one runs every point in a worker process,
  even at ``jobs=1``; without one, ``jobs=1`` sweeps and single points
  run in-process;
* failures eligible for retry (kernel-level
  :class:`~repro.errors.SimulationError`, timeouts, crashes) run again
  at once, up to ``policy.max_retries`` times, each at a seed
  perturbed by :data:`RETRY_SEED_STEP`.  Serial and pooled attempts
  share one decision between a retry and a final failure;
* successful values are written to the result cache **as they
  complete**, so an abort at point 900/1000 keeps the other 899;
* ``on_error`` picks the failure policy: ``"raise"`` stops dispatching
  and re-raises the first final failure once in-flight work has been
  collected, ``"skip"`` substitutes ``None``, ``"degrade"``
  substitutes a typed :class:`PointFailure` record — both of the
  latter finish the sweep and print a :class:`SweepReport`;
* SIGINT/SIGTERM trigger graceful shutdown: kill the workers and raise
  :class:`~repro.errors.SweepInterrupted`.  A second SIGINT forces the
  default handler (hard exit).

The cache is the only record of finished points.  Running an
interrupted sweep again with the same cache serves every finished
point from it and executes only the rest, so the merged results equal
an uninterrupted run.  Without a cache nothing is kept.

Points with equal :func:`~repro.parallel.cache.point_key` run once per
sweep: a point is a pure function of its parameters (the cache's
contract), so the first point of each key executes and its value — or
its failure — is copied to every index that shares the key.  Results,
report tallies and ``on_error`` handling read as if each point had run
alone; the cache holds one entry per distinct key.
"""

from __future__ import annotations

import copy
import gc
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
from repro.errors import ExperimentError, SimulationError, SweepInterrupted
from repro.parallel.cache import SweepCache, code_version_tag, point_key
from repro.parallel.engine import SweepPoint, resolve_point_fn

#: Valid ``on_error`` failure policies.
ON_ERROR_POLICIES: tuple[str, ...] = ("raise", "skip", "degrade")

#: Upper bound on one ``connection.wait`` nap, so signal flags are
#: observed promptly even under quiet workers.
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


@dataclass
class SweepReport:
    """Outcome tally of one supervised sweep."""

    total: int
    ok: int = 0
    cached: int = 0
    retried: int = 0
    #: Points that reused the outcome of an equal point in the sweep.
    shared: int = 0
    failures: list[PointFailure] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def failed(self) -> int:
        """Number of points that exhausted their attempts."""
        return len(self.failures)

    def render(self) -> str:
        """Human-readable sweep report (printed on degraded sweeps)."""
        lines = [
            f"sweep report: {self.ok}/{self.total} points ok"
            f" ({self.cached} cached, {self.shared} shared,"
            f" {self.retried} retries) in {self.elapsed_s:.1f}s"
        ]
        for failure in self.failures:
            lines.append(
                f"  point[{failure.index}] {failure.fn} {failure.status} "
                f"after {failure.attempts} attempt(s): "
                f"{failure.error_type}: {failure.error}"
            )
        return "\n".join(lines)


@dataclass
class SweepOutcome:
    """Results (in point order) plus the report that produced them."""

    results: list[Any]
    report: SweepReport


#: Seed offset added per retry attempt.  A large odd constant, so
#: perturbed seeds never collide with a user's natural seed sweep.
RETRY_SEED_STEP = 100_003


def perturbed_params(params: Mapping[str, Any], attempt: int) -> dict[str, Any]:
    """The point's kwargs for retry ``attempt`` (0 = first try).

    Retries perturb the point's ``seed`` parameter, when it has one, by
    :data:`RETRY_SEED_STEP` per attempt.  Spec-driven points carry
    their seed inside a ``spec`` document instead; the same
    perturbation applies to ``params["spec"]["seed"]``.
    """
    kwargs = dict(params)
    if attempt and "seed" in kwargs:
        kwargs["seed"] = kwargs["seed"] + attempt * RETRY_SEED_STEP
    spec = kwargs.get("spec")
    if attempt and isinstance(spec, Mapping) and "seed" in spec:
        reseeded = dict(spec)
        reseeded["seed"] = reseeded["seed"] + attempt * RETRY_SEED_STEP
        kwargs["spec"] = reseeded
    return kwargs


#: The serialised form a worker failure takes across the process
#: boundary: ``(exception type name, message, formatted traceback)``.
ErrorRecord = tuple[str, str, str]

#: Failure status of an attempt by the error type of its record; every
#: other type is ``"failed"``.  ``WorkerCrashed`` names no exception
#: class: the supervisor writes it when a worker's pipe hits EOF.
_STATUS_OF_ERROR = {"WatchdogTimeout": "timeout", "WorkerCrashed": "crashed"}


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
    """True for a worker crash and for any :mod:`repro.errors` subclass
    of :class:`~repro.errors.SimulationError` (timeouts included)."""
    if error_type == "WorkerCrashed":
        return True
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

    __slots__ = ("index", "indices", "point", "key", "attempt")

    def __init__(self, index: int, point: SweepPoint, key: str):
        self.index = index
        self.indices = [index]
        self.point = point
        self.key = key
        self.attempt = 0


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
        on_error: str,
        report_stream: TextIO | None,
    ):
        self.points = list(points)
        self.jobs = jobs
        self.cache = cache
        self.start_method = start_method
        self.on_error = on_error
        self.report_stream = report_stream
        # A ``None`` policy means no timeout and no retry.
        self.timeout_s: float | None = getattr(policy, "timeout_s", None)
        self.max_retries: int = getattr(policy, "max_retries", 0)
        self.version = (
            cache.version_tag if cache is not None else code_version_tag()
        )
        self.results: list[Any] = [None] * len(self.points)
        self.report = SweepReport(total=len(self.points))
        self._interrupted = False
        self._signal_count = 0
        self._abort = False
        self._raise_error: BaseException | None = None
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

    def _fill(self, task: _Task, value: Any) -> None:
        """Put ``value`` at every index of ``task``, a copy at each sharer."""
        self.results[task.index] = value
        for index in task.indices[1:]:
            self.results[index] = copy.deepcopy(value)

    def _complete_ok(self, task: _Task, value: Any, cached: bool = False) -> None:
        self._fill(task, value)
        self.report.ok += len(task.indices)
        if cached:
            self.report.cached += len(task.indices)
        elif self.cache is not None:
            self.cache.put(task.point.fn, task.point.params, value)

    def _attempt_failed(
        self,
        task: _Task,
        record: ErrorRecord,
        error: BaseException | None = None,
    ) -> bool:
        """Decide between a retry and a final failure after one attempt.

        Both executors route every failed attempt through here.  A
        retry-eligible failure with attempts left returns True, and the
        caller runs ``task`` again at once at its next perturbed seed.
        Otherwise the failure is final and recorded at every index of
        the task.  Under ``on_error="raise"`` the sweep then stops and
        re-raises ``error``, the original exception of an in-process
        attempt, or else the failure rebuilt from ``record``.
        """
        error_type, message, _ = record
        if (
            _retryable(error_type)
            and task.attempt < self.max_retries
            and not self._abort
        ):
            task.attempt += 1
            self.report.retried += len(task.indices)
            return True
        status = _STATUS_OF_ERROR.get(error_type, "failed")
        for index in task.indices:
            failure = PointFailure(
                index=index,
                fn=task.point.fn,
                key=task.key,
                status=status,
                error=message,
                error_type=error_type,
                attempts=task.attempt + 1,
            )
            self.report.failures.append(failure)
            self.results[index] = failure if self.on_error == "degrade" else None
        if self.on_error == "raise":
            self._abort = True
            if self._raise_error is None:
                self._raise_error = (
                    error if error is not None else worker_error(task.point.fn, record)
                )
        return False

    # -- cache triage --------------------------------------------------------

    def _triage(self) -> list[_Task]:
        """Group equal points and serve cached ones; return the rest."""
        distinct: dict[str, _Task] = {}
        for index, point in enumerate(self.points):
            key = point_key(point.fn, point.params, self.version)
            first = distinct.get(key)
            if first is None:
                distinct[key] = _Task(index, point, key)
            else:
                first.indices.append(index)
        self.report.shared = len(self.points) - len(distinct)
        tasks: list[_Task] = []
        for task in distinct.values():
            if self.cache is not None:
                hit, value = self.cache.lookup(task.point.fn, task.point.params)
                if hit:
                    self._complete_ok(task, value, cached=True)
                    continue
            tasks.append(task)
        return tasks

    # -- serial executor ---------------------------------------------------

    def _run_serial(self, tasks: Sequence[_Task]) -> None:
        queue = deque(tasks)
        while queue and not (self._interrupted or self._abort):
            task = queue.popleft()
            params = perturbed_params(task.point.params, task.attempt)
            try:
                value = resolve_point_fn(task.point.fn)(**params)
            except KeyboardInterrupt:
                self._interrupted = True
            except Exception as error:  # noqa: BLE001 - isolation boundary
                if self._attempt_failed(task, serialize_error(error), error):
                    queue.appendleft(task)
            else:
                self._complete_ok(task, value)

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
        params = perturbed_params(task.point.params, task.attempt)
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

    def _collect(
        self,
        worker: _Worker,
        busy: dict[Connection, _Worker],
        idle: list[_Worker],
        queue: "deque[_Task]",
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
                # group: the point is unfinished, and a re-run runs it.
                return
            exitcode = worker.process.exitcode
            # Respawn unconditionally (surplus idle workers are cheap
            # and reaped at shutdown); deciding "is a worker still
            # needed" here would race the retry this crash may queue.
            if not self._abort:
                idle.append(self._spawn_worker(context))
            record: ErrorRecord = (
                "WorkerCrashed",
                f"worker died mid-point (exit code {exitcode})",
                "",
            )
            if self._attempt_failed(task, record):
                queue.append(task)
            return
        del busy[worker.connection]
        worker.task = None
        worker.deadline = None
        idle.append(worker)
        if status == "ok":
            self._complete_ok(task, payload)
        elif self._attempt_failed(task, payload):
            queue.append(task)

    def _enforce_deadlines(
        self,
        busy: dict[Connection, _Worker],
        idle: list[_Worker],
        queue: "deque[_Task]",
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
            if self._attempt_failed(task, record):
                queue.append(task)

    @staticmethod
    def _wait_timeout(busy: Mapping[Connection, _Worker]) -> float:
        now = time.monotonic()
        timeout = _POLL_INTERVAL_S
        for worker in busy.values():
            if worker.deadline is not None:
                timeout = min(timeout, worker.deadline - now)
        return max(0.01, timeout)

    def _run_pooled(self, tasks: Sequence[_Task]) -> None:
        context = _mp_context(self.start_method)
        queue: deque[_Task] = deque(tasks)
        workers = min(self.jobs, len(tasks))
        idle: list[_Worker] = [
            self._spawn_worker(context) for _ in range(workers)
        ]
        busy: dict[Connection, _Worker] = {}
        try:
            while not self._interrupted:
                if not self._abort:
                    while queue and idle:
                        self._dispatch(
                            idle.pop(), queue.popleft(), busy, idle, context,
                            queue,
                        )
                if not busy:
                    if queue and not self._abort:  # pragma: no cover
                        raise ExperimentError(
                            "supervised pool lost every worker"
                        )
                    return  # done, or raise-mode dropping undispatched work
                ready = connection_wait(
                    list(busy), timeout=self._wait_timeout(busy)
                )
                for connection in ready:
                    worker = busy.get(connection)
                    if worker is not None:
                        self._collect(worker, busy, idle, queue, context)
                self._enforce_deadlines(busy, idle, queue, context)
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

    def _interruption(self) -> SweepInterrupted:
        """The error that tells how to finish an interrupted sweep."""
        finished = (
            f"sweep interrupted with {self.report.ok}/{len(self.points)} "
            "points finished"
        )
        if self.report.failed:
            finished += f" and {self.report.failed} failed"
        if self.cache is None:
            return SweepInterrupted(
                f"{finished}; without a cache the finished points were not "
                "kept, so running it again starts over"
            )
        return SweepInterrupted(
            f"{finished}; the finished points are cached in "
            f"{self.cache.root}: run the same command again with the same "
            "cache to finish the rest"
        )

    def run(self) -> SweepOutcome:
        started = time.monotonic()
        tasks = self._triage()
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
        if self._interrupted:
            raise self._interruption()
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
    on_error: str | None = None,
    report_stream: TextIO | None = None,
) -> SweepOutcome:
    """Run a sweep under supervision; the engine's ``run_sweep`` wraps this.

    ``on_error`` left as ``None`` falls back to the ``on_error``
    attribute of ``policy`` (the
    :class:`~repro.experiments.runner.RunnerConfig` shape), so one
    policy object travels from the CLI into every sweep an experiment
    makes.  ``report_stream`` defaults to ``sys.stderr``; pass a
    file-like object to capture the degraded-sweep report, or rely on
    the returned :class:`SweepOutcome`'s report.
    """
    if on_error is None:
        on_error = getattr(policy, "on_error", None) or "raise"
    if on_error not in ON_ERROR_POLICIES:
        raise ExperimentError(
            f"on_error must be one of {', '.join(ON_ERROR_POLICIES)}, "
            f"got {on_error!r}"
        )
    return _Supervision(
        points,
        jobs=jobs,
        cache=cache,
        policy=policy,
        start_method=start_method,
        on_error=on_error,
        report_stream=sys.stderr if report_stream is None else report_stream,
    ).run()
