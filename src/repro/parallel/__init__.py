"""Parallel sweep engine + supervisor + journal + result cache.

Public surface:

* :class:`~repro.parallel.engine.SweepPoint` / :func:`~repro.parallel.engine.run_sweep`
  — describe independent ``(scenario, seed)`` points and fan them
  across a supervised worker pool, merging results in deterministic
  point order.
* :func:`~repro.parallel.supervisor.supervise_sweep` — the crash-safe
  executor underneath ``run_sweep`` and the only place a point is
  retried or timed out: deadlines enforced by killing the worker,
  dead/hung-worker detection with respawn, journaled outcomes,
  ``--resume`` and ``on_error`` failure policies, graceful
  SIGINT/SIGTERM shutdown.
* :class:`~repro.parallel.journal.SweepJournal` /
  :func:`~repro.parallel.journal.load_journal` — persistent JSONL
  journal of per-point outcomes enabling bit-identical resume.
* :class:`~repro.parallel.cache.SweepCache` — content-addressed result
  store keyed on canonical parameters + seed + code-version tag.
"""

from repro.parallel.cache import (
    SweepCache,
    code_version_tag,
    default_cache_dir,
    point_key,
)
from repro.parallel.engine import (
    SweepPoint,
    backoff_delay_s,
    run_sweep,
)
from repro.parallel.journal import PointRecord, SweepJournal, load_journal
from repro.parallel.supervisor import (
    PointFailure,
    SweepOutcome,
    SweepReport,
    supervise_sweep,
)

__all__ = [
    "PointFailure",
    "PointRecord",
    "SweepCache",
    "SweepJournal",
    "SweepOutcome",
    "SweepPoint",
    "SweepReport",
    "backoff_delay_s",
    "code_version_tag",
    "default_cache_dir",
    "load_journal",
    "point_key",
    "run_sweep",
    "supervise_sweep",
]
