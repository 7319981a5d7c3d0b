"""Experiments ``figure7``/``figure9``/``figure11``/``figure12``.

Two concurrent sessions on a four-station line (paper §3.3).  The
asymmetric placements put the second session's receiver S4 on the far
side, the symmetric placement reverses session 2 (S4 -> S3) so both
receivers sit in the middle.

The paper's observations the runner reproduces:

* 11 Mbps (Figures 6-7): the sessions interact even though d(S1, S3)
  exceeds every transmission range — physical carrier sensing and PLCP
  locking couple them; the exposed receiver S2 cannot return its MAC
  ACKs while S3/S4 are active, so session 1 starves.
* 2 Mbps (Figures 8-9): larger ranges give the stations a more uniform
  view of the channel and the system is visibly more balanced.
* TCP narrows the gap in both cases (TCP-ACKs make the load pattern
  less asymmetric and congestion control throttles the winner).

Every panel is one :class:`~repro.scenario.ScenarioSpec`
(:func:`panel_spec`): the two sessions are just the spec's flow list,
so the same scenario vocabulary covers hidden/exposed-station setups of
any station count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import render_table
from repro.channel.placement import (
    figure6_placement,
    figure8_placement,
    figure10_placement,
)
from repro.core.params import Rate
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

_BASE_PORT = 5001
#: The paper's "constant size packets of 512 bytes".
_PAYLOAD_BYTES = 512
#: Goodput is measured after the first second of each session.
_WARMUP_S = 1.0

#: (sender index, receiver index) per session, 0-based station indices.
ASYMMETRIC_SESSIONS = ((0, 1), (2, 3))  # S1->S2, S3->S4
SYMMETRIC_SESSIONS = ((0, 1), (3, 2))  # S1->S2, S4->S3


@dataclass(frozen=True)
class SessionThroughput:
    """One bar of a four-node figure."""

    label: str
    kbps: float


@dataclass(frozen=True)
class FourNodeResult:
    """One (transport, RTS/CTS) panel of a four-node figure."""

    scenario: str
    rate: Rate
    transport: str
    rts_cts: bool
    sessions: tuple[SessionThroughput, SessionThroughput]

    @property
    def session1_kbps(self) -> float:
        """Throughput of session 1 (S1 -> S2)."""
        return self.sessions[0].kbps

    @property
    def session2_kbps(self) -> float:
        """Throughput of session 2."""
        return self.sessions[1].kbps

    @property
    def ratio(self) -> float:
        """session2 / session1 — the asymmetry measure."""
        if self.session1_kbps == 0:
            return float("inf")
        return self.session2_kbps / self.session1_kbps


def _session_flows(
    transport: str, sessions: tuple[tuple[int, int], ...]
) -> tuple[FlowSpec, ...]:
    if transport not in ("udp", "tcp"):
        raise ExperimentError(f"unknown transport {transport!r}")
    flows = []
    for session_index, (tx, rx) in enumerate(sessions):
        port = _BASE_PORT + session_index
        if transport == "udp":
            flows.append(
                FlowSpec(
                    kind="cbr",
                    src=tx,
                    dst=rx,
                    port=port,
                    payload_bytes=_PAYLOAD_BYTES,
                )
            )
        else:
            flows.append(FlowSpec(kind="bulk-tcp", src=tx, dst=rx, port=port))
    return tuple(flows)


_PLACEMENTS = {
    "figure6": figure6_placement,
    "figure8": figure8_placement,
    "figure10": figure10_placement,
}


def panel_spec(
    placement: str,
    rate_mbps: float,
    transport: str,
    rts_cts: bool,
    sessions: tuple[tuple[int, int], ...],
    duration_s: float,
    seed: int,
) -> ScenarioSpec:
    """The spec for one named-placement panel (JSON-friendly arguments)."""
    if placement not in _PLACEMENTS:
        raise ExperimentError(f"unknown placement {placement!r}")
    layout = _PLACEMENTS[placement]()
    return ScenarioSpec(
        name=layout.name,
        topology=TopologySpec.line(*(x for x, _ in layout.positions)),
        stack=StackSpec(
            data_rate_mbps=Rate.from_mbps(rate_mbps).mbps, rts_enabled=rts_cts
        ),
        traffic=TrafficSpec(
            flows=_session_flows(
                transport, tuple((int(tx), int(rx)) for tx, rx in sessions)
            )
        ),
        seed=seed,
        duration_s=duration_s,
        warmup_s=_WARMUP_S,
    )


def panel_rows(net: ScenarioNetwork) -> list:
    """Extractor: ``[scenario, [[label, kbps], [label, kbps]]]``."""
    assert net.spec is not None
    return [
        net.spec.name,
        [
            [handle.label, handle.throughput_bps(net.spec.duration_s) / 1e3]
            for handle in net.flows
        ],
    ]


_PANEL_ROWS = "repro.experiments.four_nodes:panel_rows"


def panel_result(
    rate: Rate, transport: str, rts_cts: bool, rows: list
) -> FourNodeResult:
    """The :class:`FourNodeResult` of one panel's :func:`panel_rows`."""
    scenario, session_rows = rows
    return FourNodeResult(
        scenario=scenario,
        rate=rate,
        transport=transport,
        rts_cts=rts_cts,
        sessions=tuple(
            SessionThroughput(label=label, kbps=kbps)
            for label, kbps in session_rows
        ),
    )


def _run_figure(
    placement_name: str,
    rate: Rate,
    sessions,
    duration_s: float,
    seed: int,
    jobs: int = 1,
    cache: SweepCache | None = None,
    policy=None,
) -> list[FourNodeResult]:
    panels = [
        (transport, rts_cts)
        for transport in ("udp", "tcp")
        for rts_cts in (False, True)
    ]
    specs = [
        panel_spec(
            placement_name,
            rate.mbps,
            transport,
            rts_cts,
            sessions,
            duration_s,
            seed,
        )
        for transport, rts_cts in panels
    ]
    values = run_scenarios(
        specs, extract=_PANEL_ROWS, jobs=jobs, cache=cache, policy=policy
    )
    return [
        panel_result(rate, transport, rts_cts, rows)
        for (transport, rts_cts), rows in zip(panels, values)
    ]


def run_figure7(
    duration_s: float = 10.0,
    seed: int = 1,
    jobs: int = 1,
    cache: SweepCache | None = None,
    policy=None,
) -> list[FourNodeResult]:
    """Figure 7: asymmetric scenario at 11 Mbps (25 / 80 / 25 m)."""
    return _run_figure(
        "figure6", Rate.MBPS_11, ASYMMETRIC_SESSIONS, duration_s, seed,
        jobs=jobs, cache=cache, policy=policy,
    )


def run_figure9(
    duration_s: float = 10.0,
    seed: int = 1,
    jobs: int = 1,
    cache: SweepCache | None = None,
    policy=None,
) -> list[FourNodeResult]:
    """Figure 9: asymmetric scenario at 2 Mbps (25 / 90 / 25 m)."""
    return _run_figure(
        "figure8", Rate.MBPS_2, ASYMMETRIC_SESSIONS, duration_s, seed,
        jobs=jobs, cache=cache, policy=policy,
    )


def run_figure11(
    duration_s: float = 10.0,
    seed: int = 1,
    jobs: int = 1,
    cache: SweepCache | None = None,
    policy=None,
) -> list[FourNodeResult]:
    """Figure 11: symmetric scenario at 11 Mbps (25 / 60 / 25 m)."""
    return _run_figure(
        "figure10", Rate.MBPS_11, SYMMETRIC_SESSIONS, duration_s, seed,
        jobs=jobs, cache=cache, policy=policy,
    )


def run_figure12(
    duration_s: float = 10.0,
    seed: int = 1,
    jobs: int = 1,
    cache: SweepCache | None = None,
    policy=None,
) -> list[FourNodeResult]:
    """Figure 12: symmetric scenario at 2 Mbps (25 / 60 / 25 m)."""
    return _run_figure(
        "figure10", Rate.MBPS_2, SYMMETRIC_SESSIONS, duration_s, seed,
        jobs=jobs, cache=cache, policy=policy,
    )


def format_four_node(results: list[FourNodeResult], title: str) -> str:
    """Figure-style session throughput table."""
    return render_table(
        [
            "transport",
            "RTS/CTS",
            results[0].sessions[0].label + " (Kbps)",
            results[0].sessions[1].label + " (Kbps)",
            "ratio (s2/s1)",
        ],
        [
            (
                r.transport.upper(),
                "yes" if r.rts_cts else "no",
                round(r.session1_kbps, 1),
                round(r.session2_kbps, 1),
                round(r.ratio, 2) if r.session1_kbps > 0 else "inf",
            )
            for r in results
        ],
        title=title,
    )
