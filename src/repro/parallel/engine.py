"""Process-pool sweep engine for embarrassingly-parallel experiments.

Every paper artefact is a grid of *independent* simulation points —
``(scenario parameters, seed)`` tuples whose results are merged into a
table or figure.  The engine fans those points across worker processes
and merges results **in point order**, so parallel output is
bit-identical to the serial path.

Points are described, not closed over: a :class:`SweepPoint` names its
function by dotted path (``"repro.scenario.points:scenario_point"``) and
carries a JSON-serialisable parameter mapping.  That makes points
picklable under any start method (the engine is spawn-safe) and gives
the :class:`~repro.parallel.cache.SweepCache` a canonical content
address for each result.

Execution is delegated to the supervised executor
(:mod:`repro.parallel.supervisor`), the one place where a point is
retried, timed out or isolated: per-point dispatch with wall-clock
deadlines enforced by killing the worker, dead/hung-worker detection
with respawn and task reassignment, bounded immediate retry at
perturbed seeds, and a failure policy (``on_error = "raise" | "skip" |
"degrade"``).  Completed results are persisted to the cache *as they
finish*, so one failing point never discards the work of the others,
and running an interrupted sweep again with the same cache executes
only the points it had not finished.

The hardened runner's policy travels with the sweep: a
:class:`~repro.experiments.runner.RunnerConfig`-shaped object (anything
with ``timeout_s`` / ``max_retries`` / ``on_error``) applies the same
semantics to each point, whatever the worker count.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ExperimentError
from repro.parallel.cache import SweepCache


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


def run_sweep(
    points: Sequence[SweepPoint | tuple[str, Mapping[str, Any]]],
    jobs: int = 1,
    cache: SweepCache | None = None,
    policy: Any = None,
    start_method: str | None = None,
) -> list[Any]:
    """Evaluate every point and return the values **in point order**.

    Without a ``timeout_s`` in ``policy``, ``jobs=1`` is the in-process
    serial path (no pool, exceptions propagate with their original
    tracebacks).  ``jobs>1``, or any ``jobs`` under a timeout, runs
    cache misses on a supervised worker pool that detects crashed and
    hung workers, respawns them and retries their points; a foreign
    exception from a worker comes back as an
    :class:`~repro.errors.ExperimentError` carrying the worker
    traceback.  With a
    ``cache``, hits are served from disk and only misses are executed;
    either way the returned list lines up index-for-index with
    ``points``, so parallel, serial and warm-cache runs are
    interchangeable.

    Points with equal content addresses run once: the first executes
    and every equal point gets a copy of its value (or of its failure).
    This relies on the cache's contract that a point is a pure function
    of its parameters.  The cache holds one entry per distinct point.

    Completed results are persisted to the cache as each point
    finishes — a failure at point 900/1000 never discards the other
    899, and running the same sweep again with the same cache executes
    only what is missing.  ``policy.on_error`` selects the failure
    policy: ``raise`` (the default, also without a policy) re-raises
    the first final failure, ``skip`` leaves ``None`` at the failed
    index, ``degrade`` leaves a typed
    :class:`~repro.parallel.supervisor.PointFailure` record; both
    non-raising modes print a sweep report to stderr.

    SIGINT/SIGTERM during the sweep trigger a graceful shutdown —
    finished points are already in the cache, the workers are reaped
    and :class:`~repro.errors.SweepInterrupted` says how to finish the
    rest.  A timeout runs every point in a worker process, even at
    ``jobs=1``, because a deadline is enforced by killing the worker.
    Without one, a single outstanding point runs in-process (no pool
    start-up cost), so crash-grade isolation needs ``jobs >= 2`` *and*
    at least two points left to run.
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
    )
    return outcome.results
