"""The four benchmark workloads and the digest that checks their output.

Each workload is one call (or two) into ``repro``'s public experiment
functions, with ``seed`` passed through as the experiment's ``seed=``.
A workload returns its *points*: the elements of the experiment's
result list, each digested on its own so a failure can be counted per
point.  Nothing here imports ``repro`` at module level — the harness
parent never imports the simulator; only the measurement children do.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: The mobile field's station layout is drawn from this seed, not from
#: ``--seed``.  A random 250-station layout moves the event count by
#: about ±20% between seeds (how many nearest-neighbour flows fall in
#: range), which would swamp any host-time regression; with the layout
#: pinned, ``--seed`` drives the simulation RNG and the work repeats to
#: ±0.3%.
MOBILE_LAYOUT_SEED = 1


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``call(seed, jobs, cache)`` runs it and returns its points.
    ``jobs`` is the worker count of the timed runs (traced runs always
    use 1); ``fresh_cache`` gives every call its own empty sweep cache.
    ``modules`` are imported before any wrapper is installed, so the
    wrappers see (and restore) every binding the workload will use.
    """

    name: str
    why: str
    call: Callable[[int, int, Any], list[Any]]
    modules: tuple[str, ...]
    jobs: int = 1
    fresh_cache: bool = False


def _four_node(seed: int, jobs: int, cache: Any) -> list[Any]:
    from repro.experiments.four_nodes import run_figure7

    return run_figure7(duration_s=3.0, seed=seed, jobs=jobs, cache=cache)


def _range_probes(seed: int, jobs: int, cache: Any) -> list[Any]:
    from repro.experiments.ranges import run_figure3, run_table3

    return [
        *run_figure3(probes=200, seed=seed, jobs=jobs, cache=cache),
        *run_table3(probes=200, seed=seed, jobs=jobs, cache=cache),
    ]


@contextmanager
def _simulation_seed(seed: int) -> Iterator[list[Any]]:
    """Make ``repro.scenario.build`` simulate every spec with ``seed``.

    ``scale_point`` draws the layout and seeds the simulation from one
    ``seed``; this keeps its pinned layout and moves only the
    simulation's randomness.  The rebinding delegates to whatever
    ``build`` was bound before (a tracing or first-build wrapper
    included) and is undone on exit.  Yields the networks built.
    """
    import repro.scenario as scenario

    build = scenario.build
    nets: list[Any] = []

    def seeded_build(spec: Any) -> Any:
        nets.append(build(dataclasses.replace(spec, seed=seed)))
        return nets[-1]

    scenario.build = seeded_build
    try:
        yield nets
    finally:
        scenario.build = build


def _mobile_field(seed: int, jobs: int, cache: Any) -> list[Any]:
    # The total alone can repeat across seeds while deliveries move
    # between flows, so every flow's goodput is a point as well.
    from repro.experiments.multihop import scale_point
    from repro.scenario.points import flow_throughputs_kbps

    with _simulation_seed(seed) as nets:
        total_bps = scale_point(
            n=250, duration_s=15.0, seed=MOBILE_LAYOUT_SEED, spacing_m=300.0,
            mobile_speed_m_s=1.5,
        )
    return [total_bps, *flow_throughputs_kbps(nets[0])]


def _mac_surface(seed: int, jobs: int, cache: Any) -> list[Any]:
    from repro.experiments.mac_surface import run_mac_surface

    return run_mac_surface(duration_s=1.0, seed=seed, jobs=jobs, cache=cache)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "four-node",
            "the paper's headline 25/80/25 m four-station sessions: highest event "
            "rate per host second, time in phy, mac, sim and TCP",
            _four_node,
            ("repro.experiments.four_nodes",),
        ),
        Workload(
            "range-probes",
            "116 short two-station loss probes at the sensitivity edge: build and "
            "per-point overhead weigh most, no contention",
            _range_probes,
            ("repro.experiments.ranges",),
        ),
        Workload(
            "mobile-field",
            "250 walking stations on the spatial medium: grid culling and "
            "pair-cache eviction in channel, light MAC load",
            _mobile_field,
            ("repro.experiments.multihop", "repro.scenario"),
        ),
        Workload(
            "mac-surface",
            "26 saturated-contention DCF points with the audit ledger on, on a "
            "2-worker supervised pool with cache writes",
            _mac_surface,
            ("repro.experiments.mac_surface", "repro.parallel"),
            jobs=2,
            fresh_cache=True,
        ),
    )
}


def canonical(value: Any) -> Any:
    """A JSON-ready form of an experiment result (dataclasses, enums, tuples)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    return value


def digest(value: Any) -> str:
    """SHA-256 of the canonical JSON (floats keep every digit via repr)."""
    text = json.dumps(canonical(value), sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(point_digests: list[str]) -> str:
    """One digest for a whole workload result, from its point digests."""
    return hashlib.sha256("\n".join(point_digests).encode()).hexdigest()
