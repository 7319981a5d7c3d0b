"""MAC parameter-response surfaces (ROADMAP item 4).

The source paper measures DCF at the fixed Table 1 constants; the
response of throughput/delay/fairness to the *parameters themselves*
(CWmin/CWmax, retry limit, slot and SIFS timing, queue depth) is where
the MAC-tuning literature lives ("Effects of MAC Parameters on IEEE
802.11 DCF", PAPERS.md).  This experiment sweeps each knob one at a
time around the 802.11b defaults, at several saturated-station counts,
through the declarative sweep engine — every point is a
:class:`~repro.scenario.specs.ScenarioSpec` with a
``stack.mac.<knob>`` override, so the sweep cache, the parallel pool
and the golden suite all see plain canonical spec JSON.

Geometry matters: the contenders sit on a ring, *equidistant* from the
sink at the centre.  On a line the nearer station's frame survives
simultaneous transmissions (physical capture — the SINR model decodes
the stronger frame), which silently halves the collision cost and
breaks the Bianchi comparison; on the ring simultaneous frames arrive
power-matched and both die, which is exactly the collision semantics
the analytic model (:mod:`repro.analysis.analytic`) assumes.  The
conformance harness (``tests/conformance/``) pins this agreement.

Reported per point:

* aggregate saturation throughput (sim) vs the closed-form prediction;
* mean one-way delay of delivered, timestamped packets;
* Jain's fairness index over per-flow delivered bits, computed from
  the flight recorder's packet-conservation ledger (the PR 5 per-flow
  accounting), not from the sinks — so fairness reflects what the MAC
  actually delivered end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.analysis.analytic import jain_index, predict_scenario
from repro.analysis.tables import render_table
from repro.errors import ExperimentError
from repro.obs.ledger import DELIVERED
from repro.parallel import SweepCache
from repro.scenario import (
    FlowSpec,
    ObservabilitySpec,
    ScenarioNetwork,
    ScenarioSpec,
    StackSpec,
    SweepAxis,
    SweepSpec,
    TopologySpec,
    TrafficSpec,
    run_scenarios,
)

_BASE_PORT = 5001

#: Ring radius: well inside the 11 Mbps range, far enough out that the
#: log-distance model is in its calibrated regime.
RING_RADIUS_M = 5.0

#: Saturated-contender counts of the default surface.
DEFAULT_STATIONS: tuple[int, ...] = (2, 5)

#: Application payload (bytes) — the paper's large-packet setting.
DEFAULT_PAYLOAD_BYTES = 1024

#: One-at-a-time axes: (label, dotted spec key, values).  Each sweeps
#: around the Table 1 default with the other knobs at their defaults.
SURFACE_AXES: tuple[tuple[str, str, tuple[Any, ...]], ...] = (
    ("cw_min", "stack.mac.cw_min_slots", (16, 32, 128)),
    ("cw_max", "stack.mac.cw_max_slots", (64, 1024)),
    ("retry", "stack.mac.short_retry_limit", (1, 7)),
    ("slot_us", "stack.mac.slot_time_us", (9.0, 20.0)),
    ("sifs_us", "stack.mac.sifs_us", (10.0, 16.0)),
    ("queue", "stack.mac.queue_frames", (5, 200)),
)


def ring_positions(stations: int, radius_m: float = RING_RADIUS_M) -> tuple:
    """Sink at the origin, ``stations`` contenders equidistant on a ring."""
    return ((0.0, 0.0),) + tuple(
        (
            radius_m * math.cos(2.0 * math.pi * k / stations),
            radius_m * math.sin(2.0 * math.pi * k / stations),
        )
        for k in range(stations)
    )


def saturation_spec(
    stations: int,
    duration_s: float = 1.0,
    warmup_s: float = 0.25,
    seed: int = 1,
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
    rate_mbps: float = 11.0,
) -> ScenarioSpec:
    """``stations`` saturated CBR contenders around one sink.

    Every sender runs saturated, timestamped CBR to the sink on its own
    port; the recorder's audit ledger is on so the extractor can do
    per-flow conservation accounting.  The MAC runs at the Table 1
    constants; set a knob with a ``stack.mac.*`` override.
    """
    flows = tuple(
        FlowSpec(
            kind="cbr",
            src=index,
            dst=0,
            port=_BASE_PORT + index,
            payload_bytes=payload_bytes,
            rate_bps=None,  # saturated: measure the channel, not the offer
            timestamped=True,
        )
        for index in range(1, stations + 1)
    )
    return ScenarioSpec(
        name="mac-surface",
        topology=TopologySpec(
            positions_m=ring_positions(stations), fast_sigma_db=0.0
        ),
        stack=StackSpec(data_rate_mbps=rate_mbps),
        traffic=TrafficSpec(flows=flows),
        seed=seed,
        duration_s=duration_s,
        warmup_s=warmup_s,
        observability=ObservabilitySpec(audit=True),
    )


def mac_surface_metrics(net: ScenarioNetwork) -> list[float]:
    """Extractor: ``[aggregate_bps, mean_delay_s, jain_index]``.

    Fairness comes from the audit ledger's per-flow delivered bytes
    (origin address x destination), so a flow the MAC starved to zero
    still contributes a zero share.
    """
    assert net.spec is not None
    assert net.recorder is not None, "mac-surface specs run with audit on"
    duration_s = net.spec.duration_s
    total_bps = sum(
        flow.sink.throughput_bps(duration_s) for flow in net.flows
    )
    samples = 0
    weighted_delay = 0.0
    for flow in net.flows:
        count = flow.sink.delays.count
        if count:
            samples += count
            weighted_delay += count * flow.sink.delays.mean_s
    mean_delay_s = weighted_delay / samples if samples else 0.0

    ledger = net.recorder.ledger
    delivered_bits: dict[tuple[int, int], int] = {}
    for entry in ledger.entries.values():
        if entry.state is DELIVERED:
            key = (entry.origin, entry.dst)
            delivered_bits[key] = (
                delivered_bits.get(key, 0) + entry.size_bytes * 8
            )
    shares = [
        float(
            delivered_bits.get(
                (
                    net.nodes[flow.spec.src].address,
                    net.nodes[flow.spec.dst].address,
                ),
                0,
            )
        )
        for flow in net.flows
    ]
    return [total_bps, mean_delay_s, jain_index(shares)]


_MAC_SURFACE_METRICS = "repro.experiments.mac_surface:mac_surface_metrics"


@dataclass(frozen=True)
class MacSurfacePoint:
    """One swept point of the response surface."""

    stations: int
    axis: str
    value: Any
    throughput_bps: float
    model_bps: float
    mean_delay_s: float
    jain: float

    @property
    def model_delta(self) -> float:
        """Relative sim-vs-model disagreement (signed)."""
        return self.throughput_bps / self.model_bps - 1.0


def surface_sweeps(
    stations: Sequence[int] = DEFAULT_STATIONS,
    duration_s: float = 1.0,
    warmup_s: float = 0.25,
    seed: int = 1,
    pins: Mapping[str, Any] | None = None,
) -> list[tuple[int, str, Any, ScenarioSpec]]:
    """The expanded surface: ``(stations, axis, value, spec)`` rows.

    ``pins`` maps an axis label (``cw_min``, ``retry``, ...) to a single
    value, collapsing that axis to one pinned point — the CLI's
    ``--set stack.mac.<knob>=<value>`` form.
    """
    pins = dict(pins or {})
    labels = {label for label, _, _ in SURFACE_AXES}
    unknown = sorted(set(pins) - labels)
    if unknown:
        raise ExperimentError(
            f"unknown mac-surface axis pin(s) {unknown}; "
            f"accepted: {sorted(labels)}"
        )
    rows: list[tuple[int, str, Any, ScenarioSpec]] = []
    for n in stations:
        base = saturation_spec(
            n, duration_s=duration_s, warmup_s=warmup_s, seed=seed
        )
        for label, key, values in SURFACE_AXES:
            axis_values = (pins[label],) if label in pins else values
            sweep = SweepSpec(base=base, axes=(SweepAxis(key, axis_values),))
            for value, spec in zip(axis_values, sweep.expand()):
                rows.append((n, label, value, spec))
    return rows


def run_mac_surface(
    stations: Sequence[int] = DEFAULT_STATIONS,
    duration_s: float = 1.0,
    warmup_s: float = 0.25,
    seed: int = 1,
    jobs: int = 1,
    cache: SweepCache | None = None,
    policy=None,
    pins: Mapping[str, Any] | None = None,
) -> list[MacSurfacePoint]:
    """Measure the full response surface; one sim per (n, axis, value)."""
    warmup_s = min(warmup_s, duration_s / 2)
    rows = surface_sweeps(
        stations, duration_s=duration_s, warmup_s=warmup_s, seed=seed,
        pins=pins,
    )
    values = run_scenarios(
        [spec for _, _, _, spec in rows],
        extract=_MAC_SURFACE_METRICS,
        jobs=jobs,
        cache=cache,
        policy=policy,
    )
    return [
        MacSurfacePoint(
            stations=n,
            axis=axis,
            value=value,
            throughput_bps=total_bps,
            model_bps=predict_scenario(spec).throughput_bps,
            mean_delay_s=mean_delay_s,
            jain=jain,
        )
        for (n, axis, value, spec), (total_bps, mean_delay_s, jain) in zip(
            rows, values
        )
    ]


def format_mac_surface(points: list[MacSurfacePoint]) -> str:
    """The response-surface table, one row per swept point."""
    return render_table(
        [
            "stations",
            "axis",
            "value",
            "sim (Mbps)",
            "model (Mbps)",
            "delta (%)",
            "delay (ms)",
            "Jain",
        ],
        [
            (
                point.stations,
                point.axis,
                point.value,
                point.throughput_bps / 1e6,
                point.model_bps / 1e6,
                point.model_delta * 100.0,
                point.mean_delay_s * 1e3,
                point.jain,
            )
            for point in points
        ],
        title=(
            "Extension - MAC parameter-response surfaces "
            "(11 Mbps, saturated UDP, ring topology)"
        ),
    )
