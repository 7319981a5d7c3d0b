"""Extension experiment ``delay``: queueing delay vs offered load.

The paper measures throughput only; the same instrumentation also
yields one-way delay.  This experiment sweeps the offered CBR load from
well below saturation to beyond it: the mean and tail delay stay near
the single-frame service time until the load approaches Equation (1)'s
capacity, then explode as the MAC queue fills — the textbook hockey
stick that makes the saturation point visible from the delay side.

Each offered load is one :class:`~repro.scenario.ScenarioSpec` whose
flow rate *is* the offered load (:func:`delay_spec` computes it from the
Equation-(1) capacity), so the cached result is keyed on the physical
workload, not on how this module derived it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.tables import render_table
from repro.core.params import Rate
from repro.core.throughput_model import ThroughputModel
from repro.parallel import SweepCache
from repro.scenario import (
    FlowSpec,
    ScenarioNetwork,
    ScenarioSpec,
    StackSpec,
    TopologySpec,
    TrafficSpec,
    run_scenarios,
)

_PORT = 5001

#: Offered loads as fractions of the Equation-(1) capacity.
DEFAULT_LOAD_FRACTIONS: tuple[float, ...] = (0.2, 0.5, 0.8, 0.95, 1.1)


@dataclass(frozen=True)
class DelayPoint:
    """Delay statistics at one offered load."""

    load_fraction: float
    offered_bps: float
    delivered_bps: float
    mean_delay_s: float
    p99_delay_s: float


def delay_spec(
    rate_mbps: float,
    payload_bytes: int,
    load_fraction: float,
    duration_s: float,
    warmup_s: float,
    seed: int,
) -> ScenarioSpec:
    """One offered-load cell: timestamped CBR at a fraction of capacity."""
    rate = Rate.from_mbps(rate_mbps)
    capacity_bps = ThroughputModel().max_throughput_bps(payload_bytes, rate)
    return ScenarioSpec(
        name="delay-vs-load",
        topology=TopologySpec.line(0, 10, fast_sigma_db=0.0),
        stack=StackSpec(data_rate_mbps=rate_mbps),
        traffic=TrafficSpec(
            flows=(
                FlowSpec(
                    kind="cbr",
                    src=0,
                    dst=1,
                    port=_PORT,
                    payload_bytes=payload_bytes,
                    rate_bps=load_fraction * capacity_bps,
                    timestamped=True,
                ),
            )
        ),
        seed=seed,
        duration_s=duration_s,
        warmup_s=warmup_s,
    )


def delay_metrics(net: ScenarioNetwork) -> list[float]:
    """Extractor: ``[offered, delivered, mean_delay, p99]`` for flow 0."""
    assert net.spec is not None
    flow = net.flow(0)
    assert flow.spec.rate_bps is not None
    return [
        flow.spec.rate_bps,
        flow.sink.throughput_bps(net.spec.duration_s),
        flow.sink.delays.mean_s,
        flow.sink.delays.percentile_s(0.99),
    ]


_DELAY_METRICS = "repro.experiments.delay:delay_metrics"


def run_delay_sweep(
    rate: Rate = Rate.MBPS_11,
    payload_bytes: int = 512,
    load_fractions: Sequence[float] = DEFAULT_LOAD_FRACTIONS,
    duration_s: float = 5.0,
    warmup_s: float = 1.0,
    seed: int = 1,
    jobs: int = 1,
    cache: SweepCache | None = None,
    policy=None,
) -> list[DelayPoint]:
    """One delay measurement per offered load."""
    specs = [
        delay_spec(
            rate.mbps, payload_bytes, fraction, duration_s, warmup_s, seed
        )
        for fraction in load_fractions
    ]
    values = run_scenarios(
        specs, extract=_DELAY_METRICS, jobs=jobs, cache=cache, policy=policy
    )
    return [
        DelayPoint(
            load_fraction=fraction,
            offered_bps=offered_bps,
            delivered_bps=delivered_bps,
            mean_delay_s=mean_delay_s,
            p99_delay_s=p99_delay_s,
        )
        for fraction, (offered_bps, delivered_bps, mean_delay_s, p99_delay_s)
        in zip(load_fractions, values)
    ]


def format_delay_sweep(points: list[DelayPoint], rate: Rate) -> str:
    """Delay-vs-load table."""
    return render_table(
        [
            "load (xEq1)",
            "offered (Mbps)",
            "delivered (Mbps)",
            "mean delay (ms)",
            "p99 delay (ms)",
        ],
        [
            (
                point.load_fraction,
                point.offered_bps / 1e6,
                point.delivered_bps / 1e6,
                point.mean_delay_s * 1e3,
                point.p99_delay_s * 1e3,
            )
            for point in points
        ],
        title=f"Extension - one-way delay vs offered load at {rate}",
    )
