"""Parallel sweep engine + supervisor + result cache.

Public surface:

* :class:`~repro.parallel.engine.SweepPoint` / :func:`~repro.parallel.engine.run_sweep`
  — describe independent ``(scenario, seed)`` points and fan them
  across a supervised worker pool, merging results in deterministic
  point order.
* :func:`~repro.parallel.supervisor.supervise_sweep` — the crash-safe
  executor underneath ``run_sweep`` and the only place a point is
  retried or timed out: deadlines enforced by killing the worker,
  dead/hung-worker detection with respawn, immediate reseeded retries,
  ``on_error`` failure policies, graceful SIGINT/SIGTERM shutdown.
* :class:`~repro.parallel.cache.SweepCache` — content-addressed result
  store keyed on canonical parameters + seed + code-version tag, and
  the only record of finished points: running an interrupted sweep
  again with the same cache executes only the points it lacks.
"""

from repro.parallel.cache import (
    SweepCache,
    code_version_tag,
    default_cache_dir,
    point_key,
)
from repro.parallel.engine import SweepPoint, run_sweep
from repro.parallel.supervisor import (
    PointFailure,
    SweepOutcome,
    SweepReport,
    supervise_sweep,
)

__all__ = [
    "PointFailure",
    "SweepCache",
    "SweepOutcome",
    "SweepPoint",
    "SweepReport",
    "code_version_tag",
    "default_cache_dir",
    "point_key",
    "run_sweep",
    "supervise_sweep",
]
