"""Experiments ``fault-blackout`` / ``fault-crash``: throughput under faults.

The paper's testbed lost links for minutes at a time (Figure 4 shows the
1 Mbps range differing day to day) and stations came and went; these
experiments inject those events deliberately and show the stack
degrading and recovering instead of falling over:

* **fault-blackout** — a UDP flow through a total link outage injected
  mid-session.  Throughput collapses during the window, then recovers
  (with a drain burst: frames queued at the MAC during the outage go
  out once the link returns).
* **fault-crash** — a TCP bulk transfer whose *sender* station loses
  power mid-stream and reboots later.  The original connection dies
  without a FIN; on reboot the application opens a fresh connection and
  goodput resumes.

Both scenarios are pure :class:`~repro.scenario.ScenarioSpec` data — the
fault window is a ``faults`` entry and the crash restart is the spec's
``restart_flows`` wiring, not a hand-built callback.  Each run sweeps
its spec through :func:`repro.scenario.run_scenarios`, so it is cached
on the canonical spec document, timed out and retried like every other
experiment's simulations: the extractor returns the result as a JSON
document and the ``run_*`` function rebuilds the dataclass.
"""

from __future__ import annotations

import bisect
from dataclasses import asdict, dataclass
from typing import Any

from repro.analysis.tables import render_table
from repro.core.params import Rate
from repro.errors import ConfigurationError
from repro.parallel import SweepCache
from repro.scenario import (
    FaultSpec,
    FlowSpec,
    ScenarioNetwork,
    ScenarioSpec,
    StackSpec,
    TopologySpec,
    TrafficSpec,
    run_scenarios,
)

#: Port used by both workloads at the receiver.
_PORT = 5001

_BLACKOUT_RESULT = "repro.experiments.fault_resilience:blackout_result"
_CRASH_RESULT = "repro.experiments.fault_resilience:crash_result"


@dataclass(frozen=True)
class PhaseThroughput:
    """Goodput over one phase of a faulted run."""

    label: str
    start_s: float
    end_s: float
    mbps: float


def _phase_mbps(
    rx_times_ns: list[int],
    rx_bytes: list[int],
    start_s: float,
    end_s: float,
) -> float:
    lo = bisect.bisect_left(rx_times_ns, round(start_s * 1e9))
    hi = bisect.bisect_left(rx_times_ns, round(end_s * 1e9))
    window_s = end_s - start_s
    if window_s <= 0:
        return 0.0
    return sum(rx_bytes[lo:hi]) * 8 / window_s / 1e6


def _run_spec(
    cls: type,
    spec: ScenarioSpec,
    extract: str,
    cache: SweepCache | None,
    policy: Any,
) -> Any:
    """Sweep one spec and rebuild the extractor's document as ``cls``."""
    [document] = run_scenarios([spec], extract=extract, cache=cache, policy=policy)
    fields = dict(document)
    fields["phases"] = tuple(
        PhaseThroughput(**phase) for phase in fields["phases"]
    )
    return cls(**fields)


# ------------------------------------------------------------- blackout


@dataclass(frozen=True)
class BlackoutResult:
    """Outcome of the link-blackout scenario."""

    phases: tuple[PhaseThroughput, ...]
    blackout_start_s: float
    blackout_end_s: float
    packets_received: int
    mac_retries: int
    mac_drops: int

    @property
    def degraded(self) -> bool:
        """True when the outage visibly suppressed throughput."""
        before, during, _ = self.phases
        return during.mbps < before.mbps * 0.1


def blackout_spec(
    duration_s: float = 15.0,
    blackout_s: float = 5.0,
    offered_mbps: float = 1.5,
    rate_mbps: float = 11.0,
    seed: int = 1,
) -> ScenarioSpec:
    """UDP through a total link outage centred in the run."""
    if duration_s < blackout_s + 4.0:
        raise ConfigurationError(
            f"duration ({duration_s:g}s) must leave at least 2s of clean "
            f"channel either side of the {blackout_s:g}s blackout"
        )
    start_s = (duration_s - blackout_s) / 2
    return ScenarioSpec(
        name="fault-blackout",
        topology=TopologySpec.line(0, 10, fast_sigma_db=0.0),
        stack=StackSpec(data_rate_mbps=rate_mbps),
        traffic=TrafficSpec(
            flows=(
                FlowSpec(
                    kind="cbr",
                    src=0,
                    dst=1,
                    port=_PORT,
                    payload_bytes=512,
                    rate_bps=offered_mbps * 1e6,
                ),
            )
        ),
        faults=(
            FaultSpec(
                kind="link-blackout",
                start_s=start_s,
                duration_s=blackout_s,
                node_a=0,
                node_b=1,
            ),
        ),
        seed=seed,
        duration_s=duration_s,
    )


def blackout_result(net: ScenarioNetwork) -> dict[str, Any]:
    """Extractor: a :func:`blackout_spec` run as a :class:`BlackoutResult` dict."""
    assert net.spec is not None
    fault = net.spec.faults[0]
    start_s = fault.start_s
    assert fault.duration_s is not None
    end_s = start_s + fault.duration_s
    sink = net.flow(0).sink
    rx_bytes = [512] * len(sink.rx_times_ns)
    phases = tuple(
        PhaseThroughput(
            label,
            lo,
            hi,
            _phase_mbps(sink.rx_times_ns, rx_bytes, lo, hi),
        )
        for label, lo, hi in (
            ("before", 0.0, start_s),
            ("blackout", start_s, end_s),
            ("after", end_s, net.spec.duration_s),
        )
    )
    mac = net[0].mac.counters
    result = BlackoutResult(
        phases=phases,
        blackout_start_s=start_s,
        blackout_end_s=end_s,
        packets_received=sink.packets,
        mac_retries=mac.retries,
        mac_drops=mac.tx_drops,
    )
    return asdict(result)


def run_link_blackout(
    duration_s: float = 15.0,
    blackout_s: float = 5.0,
    offered_mbps: float = 1.5,
    rate: Rate = Rate.MBPS_11,
    seed: int = 1,
    cache: SweepCache | None = None,
    policy: Any = None,
) -> BlackoutResult:
    """UDP flow with a total link outage centred in the run."""
    spec = blackout_spec(
        duration_s=duration_s,
        blackout_s=blackout_s,
        offered_mbps=offered_mbps,
        rate_mbps=rate.mbps,
        seed=seed,
    )
    return _run_spec(BlackoutResult, spec, _BLACKOUT_RESULT, cache, policy)


def format_link_blackout(result: BlackoutResult) -> str:
    """Phase table plus the sender's MAC-level cost of the outage."""
    table = render_table(
        ["phase", "window (s)", "goodput (Mbps)"],
        [
            (p.label, f"{p.start_s:g}-{p.end_s:g}", p.mbps)
            for p in result.phases
        ],
        title=(
            f"fault-blackout - UDP through a "
            f"{result.blackout_end_s - result.blackout_start_s:g}s link outage"
        ),
    )
    verdict = "degraded, then recovered" if result.degraded else "UNEXPECTED"
    return (
        f"{table}\n"
        f"packets received: {result.packets_received}, sender MAC retries: "
        f"{result.mac_retries}, sender MAC drops: {result.mac_drops}\n"
        f"verdict: {verdict}"
    )


# ---------------------------------------------------------- node crash


@dataclass(frozen=True)
class CrashResult:
    """Outcome of the sender-crash/reboot scenario."""

    phases: tuple[PhaseThroughput, ...]
    crash_s: float
    reboot_s: float
    old_connection_reason: str | None
    connections_seen: int
    bytes_after_reboot: int

    @property
    def recovered(self) -> bool:
        """True when goodput resumed on a fresh connection after reboot."""
        return self.connections_seen >= 2 and self.bytes_after_reboot > 0


def crash_spec(
    duration_s: float = 15.0,
    crash_s: float = 5.0,
    downtime_s: float = 4.0,
    seed: int = 1,
) -> ScenarioSpec:
    """TCP bulk transfer whose sender crashes and reboots mid-stream.

    The reboot restart is declarative: ``restart_flows=(0,)`` tells the
    node-crash fault to start a fresh source for flow 0 when the station
    comes back.
    """
    if duration_s < crash_s + downtime_s + 2.0:
        raise ConfigurationError(
            f"duration ({duration_s:g}s) must leave at least 2s after the "
            f"reboot at {crash_s + downtime_s:g}s"
        )
    return ScenarioSpec(
        name="fault-crash",
        topology=TopologySpec.line(0, 10, fast_sigma_db=0.0),
        traffic=TrafficSpec(
            flows=(FlowSpec(kind="bulk-tcp", src=0, dst=1, port=_PORT),)
        ),
        faults=(
            FaultSpec(
                kind="node-crash",
                start_s=crash_s,
                duration_s=downtime_s,
                node=0,
                restart_flows=(0,),
            ),
        ),
        seed=seed,
        duration_s=duration_s,
    )


def crash_result(net: ScenarioNetwork) -> dict[str, Any]:
    """Extractor: a :func:`crash_spec` run as a :class:`CrashResult` dict."""
    assert net.spec is not None
    fault = net.spec.faults[0]
    crash_s = fault.start_s
    assert fault.duration_s is not None
    reboot_s = crash_s + fault.duration_s
    flow = net.flow(0)
    receiver = flow.sink
    phases = tuple(
        PhaseThroughput(
            label,
            lo,
            hi,
            _phase_mbps(receiver.rx_times_ns, receiver.rx_bytes, lo, hi),
        )
        for label, lo, hi in (
            ("before", 0.0, crash_s),
            ("down", crash_s, reboot_s),
            ("after", reboot_s, net.spec.duration_s),
        )
    )
    reboot_ns = round(reboot_s * 1e9)
    bytes_after = sum(
        nbytes
        for time_ns, nbytes in zip(receiver.rx_times_ns, receiver.rx_bytes)
        if time_ns >= reboot_ns
    )
    result = CrashResult(
        phases=phases,
        crash_s=crash_s,
        reboot_s=reboot_s,
        # The sender started at t=0; a reboot appends a fresh one.
        old_connection_reason=flow.sources[0].close_reason,
        connections_seen=len(receiver.connections),
        bytes_after_reboot=bytes_after,
    )
    return asdict(result)


def run_node_crash(
    duration_s: float = 15.0,
    crash_s: float = 5.0,
    downtime_s: float = 4.0,
    seed: int = 1,
    cache: SweepCache | None = None,
    policy: Any = None,
) -> CrashResult:
    """TCP bulk transfer whose sender crashes and reboots mid-stream."""
    spec = crash_spec(
        duration_s=duration_s, crash_s=crash_s, downtime_s=downtime_s, seed=seed
    )
    return _run_spec(CrashResult, spec, _CRASH_RESULT, cache, policy)


def format_node_crash(result: CrashResult) -> str:
    """Phase table plus the connection-lifecycle story."""
    table = render_table(
        ["phase", "window (s)", "goodput (Mbps)"],
        [
            (p.label, f"{p.start_s:g}-{p.end_s:g}", p.mbps)
            for p in result.phases
        ],
        title=(
            f"fault-crash - TCP sender crashes at {result.crash_s:g}s, "
            f"reboots at {result.reboot_s:g}s"
        ),
    )
    verdict = "recovered on a fresh connection" if result.recovered else "UNEXPECTED"
    return (
        f"{table}\n"
        f"old connection closed: {result.old_connection_reason}, connections "
        f"seen by receiver: {result.connections_seen}, bytes after reboot: "
        f"{result.bytes_after_reboot}\n"
        f"verdict: {verdict}"
    )
