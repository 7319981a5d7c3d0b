"""Experiment ``figure2``: ideal vs measured TCP/UDP throughput.

Two stations well inside transmission range, a saturated source, and the
analytic bound of Equation (1)/(2) next to the simulated application
throughput — with and without RTS/CTS, for UDP (CBR) and TCP (ftp).

Scenarios are declarative: :func:`measured_spec` builds the
:class:`~repro.scenario.ScenarioSpec` for one panel, the run function
sweeps the four specs through :func:`repro.scenario.run_scenarios`
(cached on the canonical spec serialisation), and the module-level
extractors read the metric off the built network.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import render_table
from repro.core.params import Rate
from repro.core.throughput_model import ThroughputModel
from repro.errors import ExperimentError
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

#: Port both workloads use at the receiver.
_PORT = 5001


@dataclass(frozen=True)
class Figure2Result:
    """One bar pair of Figure 2."""

    rate: Rate
    transport: str  # "udp" or "tcp"
    rts_cts: bool
    ideal_mbps: float
    measured_mbps: float

    @property
    def ratio(self) -> float:
        """measured / ideal."""
        if self.ideal_mbps == 0:
            return 0.0
        return self.measured_mbps / self.ideal_mbps


def measured_spec(
    rate_mbps: float,
    transport: str,
    rts_cts: bool,
    payload_bytes: int,
    duration_s: float,
    warmup_s: float,
    seed: int,
) -> ScenarioSpec:
    """The scenario for one measured Figure-2 panel."""
    if transport == "udp":
        flow = FlowSpec(
            kind="cbr", src=0, dst=1, port=_PORT, payload_bytes=payload_bytes
        )
    elif transport == "tcp":
        flow = FlowSpec(kind="bulk-tcp", src=0, dst=1, port=_PORT)
    else:
        raise ExperimentError(f"unknown transport {transport!r}")
    return ScenarioSpec(
        name=f"figure2-{transport}-{'rts' if rts_cts else 'basic'}",
        topology=TopologySpec.line(0, 10, fast_sigma_db=0.0),
        stack=StackSpec(data_rate_mbps=rate_mbps, rts_enabled=rts_cts),
        traffic=TrafficSpec(flows=(flow,)),
        seed=seed,
        duration_s=duration_s,
        warmup_s=warmup_s,
    )


def goodput_mbps(net: ScenarioNetwork) -> float:
    """Extractor: flow-0 goodput in Mbps over the scenario horizon."""
    assert net.spec is not None
    return net.flow(0).throughput_bps(net.spec.duration_s) / 1e6


def rx_times(net: ScenarioNetwork) -> list[int]:
    """Extractor: flow-0 delivery timestamps (ns).

    The full delivery trace rather than an aggregate, so a sweep of
    :func:`udp_trace_spec` points shows that parallel and serial
    execution are bit-identical at the event level.
    """
    return [int(time_ns) for time_ns in net.flow(0).sink.rx_times_ns]


_GOODPUT_MBPS = "repro.experiments.two_nodes:goodput_mbps"


def udp_trace_spec(
    rate_mbps: float,
    distance_m: float,
    duration_s: float,
    payload_bytes: int,
    seed: int,
) -> ScenarioSpec:
    """A saturated two-node UDP run with the default dynamic channel."""
    return ScenarioSpec(
        name="two-node-udp-trace",
        topology=TopologySpec.line(0, distance_m),
        stack=StackSpec(data_rate_mbps=rate_mbps),
        traffic=TrafficSpec(
            flows=(
                FlowSpec(
                    kind="cbr",
                    src=0,
                    dst=1,
                    port=_PORT,
                    payload_bytes=payload_bytes,
                ),
            )
        ),
        seed=seed,
        duration_s=duration_s,
    )


def run_figure2(
    rate: Rate = Rate.MBPS_11,
    payload_bytes: int = 512,
    duration_s: float = 3.0,
    warmup_s: float = 0.3,
    seed: int = 1,
    jobs: int = 1,
    cache: SweepCache | None = None,
    policy=None,
) -> list[Figure2Result]:
    """All four panels of Figure 2 for one rate."""
    model = ThroughputModel()
    panels = [
        (transport, rts_cts)
        for transport in ("udp", "tcp")
        for rts_cts in (False, True)
    ]
    specs = [
        measured_spec(
            rate.mbps, transport, rts_cts, payload_bytes, duration_s, warmup_s, seed
        )
        for transport, rts_cts in panels
    ]
    measured = run_scenarios(
        specs, extract=_GOODPUT_MBPS, jobs=jobs, cache=cache, policy=policy
    )
    return [
        Figure2Result(
            rate=rate,
            transport=transport,
            rts_cts=rts_cts,
            ideal_mbps=model.max_throughput_bps(payload_bytes, rate, rts_cts)
            / 1e6,
            measured_mbps=value,
        )
        for (transport, rts_cts), value in zip(panels, measured)
    ]


def format_figure2(results: list[Figure2Result]) -> str:
    """Paper-style ideal-vs-real rendering."""
    return render_table(
        ["transport", "RTS/CTS", "ideal (Mbps)", "measured (Mbps)", "measured/ideal"],
        [
            (
                r.transport.upper(),
                "yes" if r.rts_cts else "no",
                r.ideal_mbps,
                r.measured_mbps,
                r.ratio,
            )
            for r in results
        ],
        title=f"Figure 2 - theoretical vs actual throughput at {results[0].rate}",
    )
