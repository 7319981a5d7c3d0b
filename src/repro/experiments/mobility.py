"""Extension experiment ``link-lifetime``: range assumptions vs mobility.

Quantifies the paper's closing §3.2 remark: with the measured (short)
transmission ranges, a moving station breaks its links far sooner than
ns-2's 250 m folklore predicts, so routing protocols recalculate
proportionally more often.

A receiver walks straight away from a transmitter that streams CBR
probes; the link lifetime is the time until delivery stalls for good.
The analytic expectation is simply range / speed, so the ratio between
the ns-2 and calibrated lifetimes should approach 250 / range(rate).

The walking receiver is just ``topology.mobility`` in the scenario spec
(:func:`lifetime_spec`); the ns-2 comparison point swaps in the ``ns2``
radio preset and ``two-ray`` propagation — all data, no wiring.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import render_table
from repro.core.params import ALL_RATES, Rate
from repro.parallel import SweepCache
from repro.scenario import (
    FlowSpec,
    MobilitySpec,
    ScenarioNetwork,
    ScenarioSpec,
    StackSpec,
    TopologySpec,
    TrafficSpec,
    run_scenarios,
)

_PORT = 5001

#: Probe pacing for the walking-receiver stream.
_PROBE_INTERVAL_S = 0.02


@dataclass(frozen=True)
class LinkLifetime:
    """Observed lifetime of one walking-away link."""

    rate: Rate
    radio_preset: str
    speed_m_s: float
    lifetime_s: float

    @property
    def break_distance_m(self) -> float:
        """Distance covered before the link died (starts at 5 m)."""
        return 5.0 + self.speed_m_s * self.lifetime_s


def _usable_lifetime_s(
    rx_times_ns: list[int],
    offered_per_s: float,
    window_s: float = 1.0,
    usable_fraction: float = 0.5,
) -> float:
    """Last window in which delivery ran at >= half the offered rate.

    Using the last-ever packet would overstate the lifetime badly: under
    log-normal shadowing the occasional lucky frame lands far beyond the
    range.  A link a routing protocol would call "up" must still be
    *delivering*, hence the windowed definition.
    """
    if not rx_times_ns:
        return 0.0
    threshold = offered_per_s * window_s * usable_fraction
    counts: dict[int, int] = {}
    for time_ns in rx_times_ns:
        counts[int(time_ns / (window_s * 1e9))] = (
            counts.get(int(time_ns / (window_s * 1e9)), 0) + 1
        )
    usable_bins = [index for index, count in counts.items() if count >= threshold]
    if not usable_bins:
        return 0.0
    return (max(usable_bins) + 1) * window_s


def lifetime_spec(
    rate_mbps: float,
    speed_m_s: float,
    ns2_preset: bool,
    seed: int,
    horizon_s: float = 80.0,
) -> ScenarioSpec:
    """One walking-receiver link: CBR probes, mobility on the sink node."""
    return ScenarioSpec(
        name="link-lifetime",
        topology=TopologySpec.line(
            0.0,
            5.0,
            propagation="two-ray" if ns2_preset else None,
            mobility=(MobilitySpec(node=1, speed_m_s=speed_m_s),),
        ),
        stack=StackSpec(
            data_rate_mbps=rate_mbps, radio="ns2" if ns2_preset else None
        ),
        traffic=TrafficSpec(
            flows=(
                FlowSpec(
                    kind="cbr",
                    src=0,
                    dst=1,
                    port=_PORT,
                    payload_bytes=512,
                    rate_bps=512 * 8 / _PROBE_INTERVAL_S,
                ),
            )
        ),
        seed=seed,
        duration_s=horizon_s,
    )


def usable_lifetime(net: ScenarioNetwork) -> float:
    """Extractor: windowed usable lifetime of flow 0, in seconds."""
    flow = net.flow(0)
    assert flow.spec.rate_bps is not None
    offered_per_s = flow.spec.rate_bps / (flow.spec.payload_bytes * 8)
    return _usable_lifetime_s(flow.sink.rx_times_ns, offered_per_s=offered_per_s)


_USABLE_LIFETIME = "repro.experiments.mobility:usable_lifetime"


def run_link_lifetimes(
    speed_m_s: float = 10.0,
    seed: int = 1,
    jobs: int = 1,
    cache: SweepCache | None = None,
    policy=None,
) -> list[LinkLifetime]:
    """Calibrated vs ns-2 lifetimes at every rate."""
    grid = [
        (rate, ns2_preset)
        for rate in reversed(ALL_RATES)
        for ns2_preset in (False, True)
    ]
    specs = [
        lifetime_spec(rate.mbps, speed_m_s, ns2_preset, seed)
        for rate, ns2_preset in grid
    ]
    lifetimes = run_scenarios(
        specs, extract=_USABLE_LIFETIME, jobs=jobs, cache=cache, policy=policy
    )
    return [
        LinkLifetime(
            rate=rate,
            radio_preset="ns-2" if ns2_preset else "calibrated",
            speed_m_s=speed_m_s,
            lifetime_s=lifetime_s,
        )
        for (rate, ns2_preset), lifetime_s in zip(grid, lifetimes)
    ]


def format_link_lifetimes(results: list[LinkLifetime]) -> str:
    """Lifetime table with the ns-2 / calibrated ratio per rate."""
    by_rate: dict[Rate, dict[str, LinkLifetime]] = {}
    for result in results:
        by_rate.setdefault(result.rate, {})[result.radio_preset] = result
    rows = []
    for rate, presets in by_rate.items():
        calibrated = presets["calibrated"]
        ns2 = presets["ns-2"]
        rows.append(
            (
                str(rate),
                round(calibrated.lifetime_s, 1),
                round(calibrated.break_distance_m, 1),
                round(ns2.lifetime_s, 1),
                round(ns2.break_distance_m, 1),
                round(ns2.lifetime_s / max(calibrated.lifetime_s, 0.01), 2),
            )
        )
    return render_table(
        [
            "rate",
            "calibrated life (s)",
            "break at (m)",
            "ns-2 life (s)",
            "break at (m)",
            "ns-2/calibrated",
        ],
        rows,
        title=(
            "Extension - link lifetime of a receiver walking away at "
            f"{results[0].speed_m_s:g} m/s"
        ),
    )
