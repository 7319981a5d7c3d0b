"""Experiments ``figure3``, ``figure4`` and ``table3``: transmission ranges.

Methodology (paper §3.2): two stations at a preset NIC rate, the packet
loss rate recorded as a function of distance.  MAC retries are disabled
so the application-level loss equals the per-frame loss (each probe is
transmitted exactly once), and probes are paced far below saturation.

Control-frame ranges fall out of the same sweep: RTS/CTS/ACK travel at
the basic rates, so the control range at 2 (1) Mbps is the data range of
a 2 (1) Mbps sweep — exactly how Table 3 presents them.

Each (rate, distance, seed) cell is one declarative
:class:`~repro.scenario.ScenarioSpec` (:func:`loss_spec`); the
:func:`probe_loss` extractor drains in-flight probes after the horizon
before reading the loss, and sweeps are cached on the spec itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.ascii_plot import line_plot
from repro.analysis.tables import render_table
from repro.channel.weather import DayConditions
from repro.core.params import ALL_RATES, Rate
from repro.errors import ExperimentError
from repro.experiments import paper
from repro.parallel import SweepCache, SweepPoint, run_sweep
from repro.scenario import (
    FlowSpec,
    MacParamsSpec,
    ScenarioNetwork,
    ScenarioSpec,
    StackSpec,
    TopologySpec,
    TrafficSpec,
    WeatherSpec,
    scenario_sweep_points,
)

_PORT = 5001

#: Figure 3's x axis: 20 m to 150 m.
FIGURE3_DISTANCES_M: tuple[float, ...] = tuple(range(20, 151, 10))
#: Figure 4's x axis: 50 m to 160 m (the 1 Mbps range region).
FIGURE4_DISTANCES_M: tuple[float, ...] = tuple(range(50, 161, 10))

#: Probe pacing: 5 ms spacing is far below saturation even at 1 Mbps.
_PROBE_INTERVAL_S = 0.005


@dataclass(frozen=True)
class LossCurve:
    """One loss-vs-distance curve."""

    label: str
    rate: Rate
    distances_m: tuple[float, ...]
    loss_rates: tuple[float, ...]


@dataclass(frozen=True)
class RangeEstimate:
    """A Table-3 row: estimated range vs the paper's band."""

    rate: Rate
    kind: str  # "data" or "control"
    estimated_m: float
    paper_band_m: tuple[float, float]

    @property
    def within_band(self) -> bool:
        """True when the estimate falls inside the paper's band."""
        low, high = self.paper_band_m
        return low <= self.estimated_m <= high


def loss_spec(
    rate_mbps: float,
    distance_m: float,
    probes: int,
    seed: int,
    payload_bytes: int = 512,
    weather: WeatherSpec | None = None,
) -> ScenarioSpec:
    """One loss-probe cell: no MAC retries, paced probes, two stations."""
    return ScenarioSpec(
        name="loss-probe",
        topology=TopologySpec.line(0.0, float(distance_m), weather=weather),
        stack=StackSpec(
            data_rate_mbps=rate_mbps,
            mac=MacParamsSpec(short_retry_limit=0, long_retry_limit=0),
        ),
        traffic=TrafficSpec(
            flows=(
                FlowSpec(
                    kind="cbr",
                    src=0,
                    dst=1,
                    port=_PORT,
                    payload_bytes=payload_bytes,
                    rate_bps=payload_bytes * 8 / _PROBE_INTERVAL_S,
                ),
            )
        ),
        seed=seed,
        duration_s=probes * _PROBE_INTERVAL_S,
    )


def probe_loss(net: ScenarioNetwork) -> float:
    """Extractor: stop the source, drain in-flight probes, read the loss."""
    flow = net.flow(0)
    flow.source.stop()
    net.sim.run()
    if flow.source.packets_accepted == 0:
        raise ExperimentError("probe source never transmitted")
    return max(0.0, 1.0 - flow.sink.packets / flow.source.packets_accepted)


_PROBE_LOSS = "repro.experiments.ranges:probe_loss"


def _loss_points(
    rate: Rate,
    distances_m: Sequence[float],
    probes: int,
    seed: int,
    weather: DayConditions | None,
) -> list[SweepPoint]:
    """One spec point per distance, seeded exactly like the serial loop."""
    weather_spec = (
        WeatherSpec.from_conditions(weather) if weather is not None else None
    )
    specs = [
        loss_spec(
            rate.mbps,
            float(distance),
            probes,
            seed + int(distance),
            weather=weather_spec,
        )
        for distance in distances_m
    ]
    return scenario_sweep_points(specs, extract=_PROBE_LOSS)


def run_loss_sweep(
    rate: Rate,
    distances_m: Sequence[float] = FIGURE3_DISTANCES_M,
    probes: int = 200,
    seed: int = 1,
    weather: DayConditions | None = None,
    label: str | None = None,
    jobs: int = 1,
    cache: SweepCache | None = None,
    policy=None,
) -> LossCurve:
    """Loss rate at each distance for one rate."""
    losses = run_sweep(
        _loss_points(rate, distances_m, probes, seed, weather),
        jobs=jobs,
        cache=cache,
        policy=policy,
    )
    return LossCurve(
        label=label if label is not None else str(rate),
        rate=rate,
        distances_m=tuple(distances_m),
        loss_rates=tuple(losses),
    )


def run_figure3(
    probes: int = 200,
    seed: int = 1,
    distances_m: Sequence[float] = FIGURE3_DISTANCES_M,
    jobs: int = 1,
    cache: SweepCache | None = None,
    policy=None,
) -> list[LossCurve]:
    """The four loss-vs-distance curves of Figure 3 (11 Mbps first).

    All rates × distances go through one sweep call, so ``jobs`` workers
    see the whole grid at once instead of one curve at a time.
    """
    rates = list(reversed(ALL_RATES))
    points = [
        point
        for rate in rates
        for point in _loss_points(rate, distances_m, probes, seed, None)
    ]
    losses = run_sweep(points, jobs=jobs, cache=cache, policy=policy)
    stride = len(distances_m)
    return [
        LossCurve(
            label=str(rate),
            rate=rate,
            distances_m=tuple(distances_m),
            loss_rates=tuple(losses[index * stride : (index + 1) * stride]),
        )
        for index, rate in enumerate(rates)
    ]


def run_figure4(
    probes: int = 200,
    seed: int = 1,
    distances_m: Sequence[float] = FIGURE4_DISTANCES_M,
    jobs: int = 1,
    cache: SweepCache | None = None,
    policy=None,
) -> list[LossCurve]:
    """The 1 Mbps curve measured on two different days (Figure 4)."""
    days = (DayConditions.good_day(), DayConditions.bad_day())
    points = [
        point
        for day in days
        for point in _loss_points(Rate.MBPS_1, distances_m, probes, seed, day)
    ]
    losses = run_sweep(points, jobs=jobs, cache=cache, policy=policy)
    stride = len(distances_m)
    return [
        LossCurve(
            label=day.name,
            rate=Rate.MBPS_1,
            distances_m=tuple(distances_m),
            loss_rates=tuple(losses[index * stride : (index + 1) * stride]),
        )
        for index, day in enumerate(days)
    ]


def estimate_tx_range(curve: LossCurve, threshold: float = 0.5) -> float:
    """Distance at which the loss curve crosses ``threshold``.

    Linear interpolation between the bracketing samples; returns the
    first (last) distance when the curve starts above (stays below) the
    threshold.
    """
    distances = curve.distances_m
    losses = curve.loss_rates
    if losses[0] >= threshold:
        return distances[0]
    for index in range(1, len(losses)):
        if losses[index] >= threshold:
            d0, d1 = distances[index - 1], distances[index]
            l0, l1 = losses[index - 1], losses[index]
            if l1 == l0:
                return d1
            return d0 + (threshold - l0) * (d1 - d0) / (l1 - l0)
    return distances[-1]


def run_table3(
    probes: int = 200,
    seed: int = 1,
    jobs: int = 1,
    cache: SweepCache | None = None,
    policy=None,
) -> list[RangeEstimate]:
    """Table 3: data ranges for all rates + control ranges at 2/1 Mbps."""
    distances = FIGURE3_DISTANCES_M + (160.0,)
    points = [
        point
        for rate in ALL_RATES
        for point in _loss_points(rate, distances, probes, seed, None)
    ]
    losses = run_sweep(points, jobs=jobs, cache=cache, policy=policy)
    stride = len(distances)
    curves = {
        rate: LossCurve(
            label=str(rate),
            rate=rate,
            distances_m=distances,
            loss_rates=tuple(losses[index * stride : (index + 1) * stride]),
        )
        for index, rate in enumerate(ALL_RATES)
    }
    estimates = [
        RangeEstimate(
            rate=rate,
            kind="data",
            estimated_m=estimate_tx_range(curves[rate]),
            paper_band_m=paper.TABLE3_DATA_RANGE_M[rate],
        )
        for rate in reversed(ALL_RATES)
    ]
    for rate in (Rate.MBPS_2, Rate.MBPS_1):
        estimates.append(
            RangeEstimate(
                rate=rate,
                kind="control",
                estimated_m=estimate_tx_range(curves[rate]),
                paper_band_m=paper.TABLE3_CONTROL_RANGE_M[rate],
            )
        )
    return estimates


def format_loss_curves(curves: list[LossCurve], title: str) -> str:
    """Table + ASCII plot of loss curves."""
    headers = ["distance (m)"] + [curve.label for curve in curves]
    rows = []
    for index, distance in enumerate(curves[0].distances_m):
        rows.append(
            [distance] + [curve.loss_rates[index] for curve in curves]
        )
    table = render_table(headers, rows, title=title)
    plot = line_plot(
        list(curves[0].distances_m),
        {curve.label: list(curve.loss_rates) for curve in curves},
        y_min=0.0,
        y_max=1.0,
        title=f"{title} (packet loss vs distance)",
    )
    return f"{table}\n\n{plot}"


def format_table3(estimates: list[RangeEstimate]) -> str:
    """Paper-vs-measured rendering of Table 3."""
    return render_table(
        ["rate", "kind", "estimated (m)", "paper band (m)", "within band"],
        [
            (
                str(e.rate),
                e.kind,
                round(e.estimated_m, 1),
                f"{e.paper_band_m[0]:g}-{e.paper_band_m[1]:g}",
                "yes" if e.within_band else "NO",
            )
            for e in estimates
        ],
        title="Table 3 - transmission range estimates",
    )
