"""Metric tables, failure counting and summaries (no simulator imports).

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names, units and directions; ``BENCHMARK.json`` at the repo root lists
the same metrics and ``test_suite.py`` keeps the two in step.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .workloads import result_digest


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen
    #: (end-to-end metrics only).
    bound: float | None = None
    #: A count of simulated work: two runs of one seed must agree on it
    #: exactly, whatever the host did.
    exact: bool = False


#: Seconds one ``run`` measures for, per workload (``bench`` takes it
#: as ``--seconds``).
RUN_SECONDS = 15

#: Repetitions of the experiment call per measurement, at the least.
MIN_REPS = 3

#: Fresh interpreters timed to the first ``build()`` per measurement.
SETUP_SAMPLES = 5

#: ``scenario.point_p90_s`` needs this many points (ten beyond the p90);
#: with fewer it reports the maximum.
P90_MIN_POINTS = 100

#: Seeds whose result digests are pinned in ``reference.json``.
PINNED_SEEDS = (1, 2, 3)

REFERENCE = Path(__file__).with_name("reference.json")

#: The time bounds cover the drift between two sets of seeded runs of
#: the same code measured back to back on a shared 2-vCPU host (up to
#: +32%, see README.md); a tighter bound fails unchanged code.
END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("cpu_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    # 1 - fail_ratio.  BENCHMARK.json takes no metric that reads 0 on a
    # healthy tree, so the failure metric is declared as its complement;
    # the bound is below one point out of any run's attempted count, so
    # any failed point is a regression.
    Metric("pass_ratio", "ratio", "higher", 0.0001),
)

#: Printed by ``run`` beside the end-to-end metrics; ``bench`` reports
#: the same numbers as its result line's ``attempted``/``failed``.
FAIL_RATIO = Metric("fail_ratio", "ratio", "lower")

PER_LAYER = (
    Metric("sim.events", "count", "lower", exact=True),
    Metric("sim.events_per_s", "1/s", "higher"),
    Metric("sim.cancel_ratio", "ratio", "lower", exact=True),
    Metric("sim.self_s", "s", "lower"),
    Metric("channel.transmits", "count", "lower", exact=True),
    Metric("channel.fanout", "rx/frame", "lower", exact=True),
    Metric("channel.moves", "count", "lower", exact=True),
    Metric("channel.self_s", "s", "lower"),
    Metric("phy.receptions", "count", "lower", exact=True),
    Metric("phy.rx_ok_ratio", "ratio", "higher", exact=True),
    Metric("phy.timeline_mean", "entries", "lower", exact=True),
    Metric("phy.vector_share", "ratio", "lower", exact=True),
    Metric("phy.self_s", "s", "lower"),
    Metric("mac.data_tx", "count", "lower", exact=True),
    Metric("mac.retries", "count", "lower", exact=True),
    Metric("mac.tx_success_ratio", "ratio", "higher", exact=True),
    Metric("mac.self_s", "s", "lower"),
    Metric("net.datagrams", "count", "lower", exact=True),
    Metric("net.self_s", "s", "lower"),
    Metric("transport.tcp_segments", "count", "lower", exact=True),
    Metric("transport.self_s", "s", "lower"),
    Metric("apps.delivery_ratio", "ratio", "higher", exact=True),
    Metric("apps.self_s", "s", "lower"),
    Metric("scenario.builds", "count", "lower", exact=True),
    Metric("scenario.build_s", "s", "lower"),
    Metric("scenario.point_p50_s", "s", "lower"),
    Metric("scenario.point_p90_s", "s", "lower"),
    Metric("parallel.points", "count", "lower", exact=True),
    Metric("parallel.busy_ratio", "ratio", "higher"),
    Metric("obs.sdus", "count", "lower", exact=True),
    Metric("obs.self_s", "s", "lower"),
    Metric("trace.overhead", "ratio", "lower"),
    Metric("trace.coverage", "ratio", "higher"),
)

COUNTS = tuple(metric.name for metric in PER_LAYER if metric.exact)

UNITS = {metric.name: metric.unit for metric in (*END_TO_END, FAIL_RATIO, *PER_LAYER)}


def load_reference() -> dict[str, dict[str, str]]:
    """``{workload: {seed: result digest}}`` from ``reference.json``."""
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def pinned_digest(workload: str, seed: int) -> str | None:
    return load_reference().get(workload, {}).get(str(seed))


def count_failures(
    reps: Sequence[list[str] | None], pinned: str | None
) -> tuple[int, int]:
    """``(attempted, failed)`` points over a measurement's repetitions.

    ``reps`` holds each repetition's point digests, or ``None`` when the
    call raised.  A point fails when its repetition raised, when its
    digest differs from the most common digest at its index, or — when
    ``pinned`` is given — when its repetition's whole-result digest
    differs from the pinned one.
    """
    done = [points for points in reps if points is not None]
    size = max((len(points) for points in done), default=1)
    padded = [list(points) + [None] * (size - len(points)) for points in done]
    majority = [Counter(column).most_common(1)[0][0] for column in zip(*padded)]
    attempted = size * len(reps)
    failed = size * (len(reps) - len(done))
    for points, row in zip(done, padded):
        if pinned is not None and result_digest(points) != pinned:
            failed += size
        else:
            failed += sum(digest != expected for digest, expected in zip(row, majority))
    return attempted, failed


def summary(values: Sequence[float]) -> dict[str, float]:
    """Median and quartiles (``statistics.quantiles(n=4)``) of ``values``."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}
