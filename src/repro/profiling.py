"""Profiling harness: ``python -m repro.cli profile <experiment>``.

Wraps one experiment run in :mod:`cProfile` and renders a top-N report
(by cumulative and by self time), so every perf PR starts from the same
baseline instead of a hand-rolled one-off script.  The profiled run is
always serial and uncached — a pool would move the work out of the
profiled process, and a cache hit would profile JSON decoding.

``output`` dumps the raw stats to a ``.pstats`` file (loadable with
:mod:`pstats` or snakeviz) so profiles can be archived next to bench
artefacts; ``sort`` narrows the rendered report to one ordering.

cProfile labels a function by (file, first line, name), and every
dataclass-generated method of one name shares a label (``__init__`` is
``('<string>', 2, '__init__')`` for all of them).  The stock snapshot
keeps one entry per label, dropping the others' calls from every count;
:class:`_Profile` sums the entries that share a label instead.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Any

from repro.errors import ConfigurationError
from repro.experiments.registry import get_experiment

#: Accepted ``sort`` values: pstats sort keys, or ``both`` for the
#: two-section report.
PROFILE_SORTS = ("both", "cumulative", "tottime")

_Row = tuple[float, ...]


def _label(code: Any) -> tuple[str, int, str]:
    """cProfile's key for a profiled code object or built-in."""
    if isinstance(code, str):
        return ("~", 0, code)
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _add(total: _Row | None, row: _Row) -> _Row:
    return row if total is None else tuple(a + b for a, b in zip(total, row))


class _Profile(cProfile.Profile):
    """A cProfile whose snapshot keeps every entry that shares a label."""

    def snapshot_stats(self) -> None:
        entries = self.getstats()
        totals: dict[tuple[str, int, str], _Row] = {}
        callers: dict[tuple[str, int, str], dict[Any, _Row]] = {}
        for entry in entries:
            func = _label(entry.code)
            row = (
                entry.callcount - entry.reccallcount,
                entry.callcount,
                entry.inlinetime,
                entry.totaltime,
            )
            totals[func] = _add(totals.get(func), row)
            callers.setdefault(func, {})
        for entry in entries:
            func = _label(entry.code)
            for sub in entry.calls or ():
                callee = callers.get(_label(sub.code))
                if callee is not None:
                    row = (
                        sub.callcount,
                        sub.callcount - sub.reccallcount,
                        sub.inlinetime,
                        sub.totaltime,
                    )
                    callee[func] = _add(callee.get(func), row)
        self.stats = {func: (*row, callers[func]) for func, row in totals.items()}


def profile_experiment(
    name: str,
    seed: int = 1,
    duration_s: float = 10.0,
    probes: int = 200,
    top: int = 25,
    sort: str = "both",
    output: str | None = None,
) -> str:
    """Run one registered experiment under cProfile; return the report.

    ``sort`` is one of :data:`PROFILE_SORTS`; ``output`` additionally
    dumps the raw profile to that path (conventionally ``*.pstats``).
    """
    if sort not in PROFILE_SORTS:
        raise ConfigurationError(
            f"unknown profile sort {sort!r}; accepted: {list(PROFILE_SORTS)}"
        )
    experiment = get_experiment(name)
    profiler = _Profile()
    profiler.enable()
    try:
        experiment.invoke(
            None, seed=seed, duration_s=duration_s, probes=probes, jobs=1,
            cache=None,
        )
    finally:
        profiler.disable()
    if output is not None:
        profiler.dump_stats(output)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs()
    buffer.write(f"profile: {name} (seed={seed})\n")
    if output is not None:
        buffer.write(f"raw stats: {output}\n")
    if sort in ("both", "cumulative"):
        buffer.write(f"\n=== top {top} by cumulative time ===\n")
        stats.sort_stats(pstats.SortKey.CUMULATIVE).print_stats(top)
    if sort in ("both", "tottime"):
        buffer.write(f"\n=== top {top} by self time ===\n")
        stats.sort_stats(pstats.SortKey.TIME).print_stats(top)
    return buffer.getvalue()
