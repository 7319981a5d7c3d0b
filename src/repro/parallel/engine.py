"""Process-pool sweep engine for embarrassingly-parallel experiments.

Every paper artefact is a grid of *independent* simulation points —
``(scenario parameters, seed)`` tuples whose results are merged into a
table or figure.  The engine fans those points across worker processes
and merges results **in point order**, so parallel output is
bit-identical to the serial path; ``jobs=1`` never touches
``multiprocessing`` at all.

Points are described, not closed over: a :class:`SweepPoint` names its
function by dotted path (``"repro.experiments.ranges:loss_point"``) and
carries a JSON-serialisable parameter mapping.  That makes points
picklable under any start method (the engine is spawn-safe) and gives
the :class:`~repro.parallel.cache.SweepCache` a canonical content
address for each result.

Execution is delegated to the supervised executor
(:mod:`repro.parallel.supervisor`): per-point dispatch with wall-clock
deadlines, dead/hung-worker detection with respawn and task
reassignment, bounded retry with jittered exponential backoff and
perturbed seeds, an optional persistent journal
(:mod:`repro.parallel.journal`) with ``resume`` support, and a failure
policy (``on_error = "raise" | "skip" | "degrade"``).  Completed
results are persisted to the cache *as they finish*, so one failing
point never discards the work of the others.

The hardened runner's per-point policy travels into the workers: a
:class:`~repro.experiments.runner.RunnerConfig`-shaped object (anything
with ``timeout_s`` / ``max_retries`` / ``retry_seed_step`` /
``backoff_base_s`` / ``backoff_max_s`` / ``on_error`` /
``journal_path`` / ``resume``) applies the same semantics to each
point, whether it runs in-process or in a pool worker.
"""

from __future__ import annotations

import hashlib
import importlib
import multiprocessing
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro import errors as _errors
from repro.errors import ExperimentError, SimulationError, WatchdogTimeout
from repro.parallel.cache import SweepCache
from repro.parallel.journal import SweepJournal

#: ``(timeout_s, max_retries, retry_seed_step, backoff_base_s,
#: backoff_max_s)`` — the picklable form a runner policy takes on its
#: way into a worker.  Legacy three-element tuples (no backoff) are
#: still accepted everywhere a policy tuple is.
PolicyTuple = tuple[float | None, int, int, float, float]

_NO_POLICY: PolicyTuple = (None, 0, 0, 0.0, 0.0)


@dataclass(frozen=True)
class SweepPoint:
    """One independent unit of sweep work.

    ``fn`` is a dotted path ``"package.module:function"``; ``params``
    are keyword arguments for it, restricted to JSON-serialisable values
    so the point can be content-addressed and shipped to spawn workers.
    """

    fn: str
    params: Mapping[str, Any] = field(default_factory=dict)


def resolve_point_fn(fn: str) -> Callable[..., Any]:
    """Import and return the function a dotted ``module:name`` path names."""
    module_name, _, attr = fn.partition(":")
    if not module_name or not attr:
        raise ExperimentError(
            f"point function path must look like 'pkg.mod:fn', got {fn!r}"
        )
    try:
        module = importlib.import_module(module_name)
        return getattr(module, attr)
    except (ImportError, AttributeError) as error:
        raise ExperimentError(
            f"cannot resolve point function {fn!r}: {error}"
        ) from error


def backoff_delay_s(
    attempt: int, base_s: float, max_s: float, token: str = ""
) -> float:
    """Jittered exponential backoff before retry ``attempt`` (1-based).

    Deterministic: the jitter is derived from a SHA-256 over
    ``token:attempt`` rather than a live RNG, so two runs of the same
    sweep back off identically and reports stay reproducible.  The raw
    delay doubles per attempt up to ``max_s``; jitter scales it into
    ``[0.5, 1.0] * raw`` so a fleet of retrying points never
    synchronises.  ``base_s <= 0`` disables backoff entirely.
    """
    if base_s <= 0.0 or attempt < 1:
        return 0.0
    cap = max(base_s, max_s)
    raw = min(base_s * (2.0 ** (attempt - 1)), cap)
    digest = hashlib.sha256(f"{token}:{attempt}".encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / 2.0**64
    return raw * (0.5 + 0.5 * unit)


def _policy_tuple(policy: Any) -> PolicyTuple:
    """Flatten a RunnerConfig-shaped object into a picklable tuple."""
    if policy is None:
        return _NO_POLICY
    return (
        getattr(policy, "timeout_s", None),
        max(0, getattr(policy, "max_retries", 0)),
        getattr(policy, "retry_seed_step", 0),
        max(0.0, getattr(policy, "backoff_base_s", 0.0)),
        max(0.0, getattr(policy, "backoff_max_s", 0.0)),
    )


def _normalise_policy(policy: Sequence[Any]) -> PolicyTuple:
    """Widen a legacy 3-tuple policy to the 5-element form."""
    timeout_s = policy[0]
    max_retries = max(0, int(policy[1]))
    seed_step = int(policy[2])
    base_s = float(policy[3]) if len(policy) > 3 else 0.0
    max_s = float(policy[4]) if len(policy) > 4 else base_s
    return (timeout_s, max_retries, seed_step, base_s, max_s)


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


class _TimedCall:
    """Run a thunk under an optional wall-clock budget (same semantics
    as the runner's ``_Attempt``: an expired call is abandoned, not
    killed — the supervised pool path *kills* overdue workers instead,
    so prefer ``jobs > 1`` when the leak matters)."""

    def __init__(self, thunk: Callable[[], Any]):
        self._thunk = thunk
        self._value: Any = None
        self._error: BaseException | None = None

    def _target(self) -> None:
        try:
            self._value = self._thunk()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            self._error = error

    def __call__(self, timeout_s: float | None) -> Any:
        if timeout_s is None:
            self._target()
        else:
            worker = threading.Thread(target=self._target, daemon=True)
            worker.start()
            worker.join(timeout_s)
            if worker.is_alive():
                raise WatchdogTimeout(
                    f"sweep point exceeded its {timeout_s:g}s wall-clock budget"
                )
        if self._error is not None:
            raise self._error
        return self._value


def run_point_once(
    fn: str, params: Mapping[str, Any], timeout_s: float | None = None
) -> Any:
    """One attempt of one point — no retries, no seed perturbation."""
    function = resolve_point_fn(fn)
    return _TimedCall(lambda: function(**dict(params)))(timeout_s)


def execute_point(
    fn: str, params: Mapping[str, Any], policy: Sequence[Any] = _NO_POLICY
) -> Any:
    """Run one point under the (timeout, backoff, reseeded-retry) policy.

    Retries — like the hardened runner — only fire on
    :class:`~repro.errors.SimulationError` (kernel-level failures are
    the seed-sensitive ones), sleep a deterministic jittered exponential
    backoff between attempts, and perturb the point's seed by
    ``retry_seed_step`` per attempt (see :func:`perturbed_params`).
    """
    timeout_s, max_retries, seed_step, base_s, max_s = _normalise_policy(policy)
    last_error: BaseException | None = None
    for attempt in range(max_retries + 1):
        if attempt:
            delay = backoff_delay_s(attempt, base_s, max_s, token=fn)
            if delay > 0.0:
                time.sleep(delay)
        kwargs = perturbed_params(params, attempt, seed_step)
        try:
            return run_point_once(fn, kwargs, timeout_s)
        except SimulationError as error:
            last_error = error
    assert last_error is not None
    raise last_error


#: The serialised form a worker failure takes across the process
#: boundary: ``(exception type name, message, formatted traceback)``.
ErrorRecord = tuple[str, str, str]


def serialize_error(error: BaseException) -> ErrorRecord:
    """Flatten an exception into a picklable record for the parent."""
    return (type(error).__name__, str(error), traceback.format_exc())


def worker_error(fn: str, record: ErrorRecord) -> Exception:
    """Rebuild a worker failure in the parent.

    The original exception type is preserved when it is one of ours
    (so runner retry/timeout semantics still apply); foreign types
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


def _reraise(fn: str, record: ErrorRecord) -> None:
    """Raise a worker failure in the parent with its original type."""
    raise worker_error(fn, record)


def _mp_context(start_method: str | None) -> multiprocessing.context.BaseContext:
    """Fork where available (cheap workers), spawn otherwise.

    The engine itself is spawn-safe — points are picklable descriptions
    and the worker is a module-level function — so ``start_method`` may
    force ``"spawn"`` (the tests do) at the cost of per-worker
    interpreter start-up.
    """
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else "spawn"
    return multiprocessing.get_context(start_method)


def run_sweep(
    points: Sequence[SweepPoint | tuple[str, Mapping[str, Any]]],
    jobs: int = 1,
    cache: SweepCache | None = None,
    policy: Any = None,
    start_method: str | None = None,
    journal: SweepJournal | str | None = None,
    on_error: str | None = None,
    resume: bool | None = None,
) -> list[Any]:
    """Evaluate every point and return the values **in point order**.

    ``jobs=1`` is the in-process serial path (no pool, exceptions
    propagate with their original tracebacks); ``jobs>1`` fans cache
    misses across a supervised worker pool that detects crashed and
    hung workers, respawns them and retries their points.  With a
    ``cache``, hits are served from disk and only misses are executed;
    either way the returned list lines up index-for-index with
    ``points``, so parallel, serial and warm-cache runs are
    interchangeable.

    Points with equal content addresses run once: the first executes
    and every equal point gets a copy of its value (or of its failure).
    This relies on the cache's contract that a point is a pure function
    of its parameters.  The cache and the journal hold one record per
    distinct point.

    Completed results are persisted to the cache and ``journal`` as
    each point finishes — a failure at point 900/1000 never discards
    the other 899.  ``on_error`` selects the failure policy: ``raise``
    (default) re-raises the first final failure, ``skip`` leaves
    ``None`` at the failed index, ``degrade`` leaves a typed
    :class:`~repro.parallel.supervisor.PointFailure` record; both
    non-raising modes print a sweep report to stderr.  ``resume=True``
    (requires a journal) skips points the journal already records as
    ``ok`` under the current code version.  ``journal``/``on_error``/
    ``resume`` left as ``None`` fall back to the same-named attributes
    of ``policy``.

    SIGINT/SIGTERM during the sweep trigger a graceful shutdown —
    journal and cache are flushed and :class:`~repro.errors.\
    SweepInterrupted` names the resumable state.  Note that a single
    outstanding point always runs in-process (no pool start-up cost),
    so crash-grade isolation needs ``jobs >= 2`` *and* at least two
    points left to run.
    """
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    normalised = [
        point if isinstance(point, SweepPoint) else SweepPoint(point[0], point[1])
        for point in points
    ]
    from repro.parallel.supervisor import supervise_sweep

    outcome = supervise_sweep(
        normalised,
        jobs=jobs,
        cache=cache,
        policy=policy,
        start_method=start_method,
        journal=journal,
        on_error=on_error,
        resume=resume,
    )
    return outcome.results


def _pmap_worker(task: tuple[Callable[[Any], Any], Any]) -> tuple[str, Any]:
    """Top-level (hence spawn-picklable) worker: run one item, never raise.

    Exceptions cross the process boundary as structured records so the
    parent can re-raise the right type with the worker's traceback.
    """
    function, item = task
    try:
        return ("ok", function(item))
    except BaseException as error:  # noqa: BLE001 - serialised for the parent
        return ("err", serialize_error(error))


def pmap(
    function: Callable[[Any], Any],
    items: Iterable[Any],
    jobs: int = 1,
    start_method: str | None = None,
) -> list[Any]:
    """Ordered parallel map for picklable callables (no cache layer).

    The generic escape hatch :func:`repro.experiments.replication`
    uses: ``function`` must be a module-level (hence picklable)
    callable when ``jobs > 1``.

    Failure semantics: worker exceptions are serialised back to the
    parent and re-raised for the **first failing item in item order** —
    with their original type when it is a :mod:`repro.errors` class, or
    wrapped in :class:`ExperimentError` carrying the worker's traceback
    otherwise.  Results of the other items are discarded (``pmap`` has
    no cache; use :func:`run_sweep` with a cache and ``on_error`` when
    partial progress must survive a failure).  On the serial path
    (``jobs=1``) exceptions propagate unwrapped with their original
    tracebacks.
    """
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    item_list = list(items)
    if jobs == 1 or len(item_list) <= 1:
        return [function(item) for item in item_list]
    context = _mp_context(start_method)
    processes = min(jobs, len(item_list))
    tasks = [(function, item) for item in item_list]
    with context.Pool(processes=processes) as pool:
        outcomes = pool.map(_pmap_worker, tasks)
    results: list[Any] = []
    for (status, payload), _item in zip(outcomes, item_list):
        if status != "ok":
            _reraise(getattr(function, "__name__", repr(function)), payload)
        results.append(payload)
    return results
