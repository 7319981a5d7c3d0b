"""Shared scenario recipes for the observability tests.

Each helper returns a small deterministic :class:`ScenarioSpec` whose
run provably produces the packet fates its name says — the drop-reason
tests assert on exactly those fates, and the recorder/export tests just
need *some* audited traffic.
"""

from __future__ import annotations

from repro.scenario import (
    FaultSpec,
    FlowSpec,
    MacParamsSpec,
    ObservabilitySpec,
    ScenarioSpec,
    StackSpec,
    TopologySpec,
    TrafficSpec,
    build,
)

AUDITED = ObservabilitySpec(audit=True)


def two_node_udp_spec(duration_s: float = 0.5, **obs) -> ScenarioSpec:
    """A clean short-range CBR flow: mostly deliveries."""
    return ScenarioSpec(
        name="obs-two-node",
        topology=TopologySpec.line(0.0, 10.0, fast_sigma_db=0.0),
        traffic=TrafficSpec(
            flows=(
                FlowSpec(kind="cbr", src=0, dst=1, payload_bytes=512,
                         rate_bps=5e5),
            )
        ),
        seed=1,
        duration_s=duration_s,
        observability=ObservabilitySpec(audit=True, **obs),
    )


def run_audited(spec):
    """Build, run to the spec horizon and shut down; returns the net."""
    net = build(spec)
    net.run(spec.duration_s)
    net.sim.shutdown()
    return net


def hidden_terminal_spec(duration_s: float = 2.0) -> ScenarioSpec:
    """Two senders that cannot hear each other, one common receiver.

    Their frames collide at the receiver, so retry-limit drops carry
    receiver-side rx-failure evidence -> ``rx-collision``.
    """
    return ScenarioSpec(
        name="obs-hidden-terminal",
        topology=TopologySpec.line(0.0, 100.0, 50.0, fast_sigma_db=0.0),
        traffic=TrafficSpec(
            flows=(
                FlowSpec(kind="cbr", src=0, dst=2, payload_bytes=512,
                         rate_bps=1e6, port=5001),
                FlowSpec(kind="cbr", src=1, dst=2, payload_bytes=512,
                         rate_bps=1e6, port=5002),
            )
        ),
        seed=1,
        duration_s=duration_s,
        observability=AUDITED,
    )


def out_of_range_spec(duration_s: float = 1.0) -> ScenarioSpec:
    """A link far beyond reception *and* detection range.

    The receiver never locks onto a frame, so there is no collision
    evidence and retry-limit drops stay ``retry-limit``.
    """
    return ScenarioSpec(
        name="obs-out-of-range",
        topology=TopologySpec.line(0.0, 200.0, fast_sigma_db=0.0),
        traffic=TrafficSpec(
            flows=(
                FlowSpec(kind="cbr", src=0, dst=1, payload_bytes=512,
                         rate_bps=2e5),
            )
        ),
        seed=1,
        duration_s=duration_s,
        observability=AUDITED,
    )


def tiny_queue_spec(duration_s: float = 1.0) -> ScenarioSpec:
    """Offered load far beyond the link rate into a 2-frame MAC queue."""
    return ScenarioSpec(
        name="obs-tiny-queue",
        topology=TopologySpec.line(0.0, 10.0, fast_sigma_db=0.0),
        stack=StackSpec(mac=MacParamsSpec(queue_frames=2)),
        traffic=TrafficSpec(
            flows=(
                FlowSpec(kind="cbr", src=0, dst=1, payload_bytes=1000,
                         rate_bps=8e6),
            )
        ),
        seed=1,
        duration_s=duration_s,
        observability=AUDITED,
    )


def crash_spec(duration_s: float = 2.0) -> ScenarioSpec:
    """The sender crashes mid-flight with a full MAC queue."""
    return ScenarioSpec(
        name="obs-crash",
        topology=TopologySpec.line(0.0, 10.0, fast_sigma_db=0.0),
        traffic=TrafficSpec(
            flows=(
                FlowSpec(kind="cbr", src=0, dst=1, payload_bytes=512,
                         rate_bps=2e6),
            )
        ),
        faults=(
            FaultSpec(kind="node-crash", start_s=0.5, duration_s=1.0, node=0),
        ),
        seed=1,
        duration_s=duration_s,
        observability=AUDITED,
    )


def bulk_tcp_spec(duration_s: float = 1.0) -> ScenarioSpec:
    """A bulk TCP transfer over a clean short link."""
    return ScenarioSpec(
        name="obs-bulk-tcp",
        topology=TopologySpec.line(0.0, 10.0, fast_sigma_db=0.0),
        traffic=TrafficSpec(flows=(FlowSpec(kind="bulk-tcp", src=0, dst=1),)),
        seed=1,
        duration_s=duration_s,
        observability=AUDITED,
    )


def saturated_spec(duration_s: float = 0.5) -> ScenarioSpec:
    """Saturating CBR cut off mid-run: a backlog dies in flight."""
    return ScenarioSpec(
        name="obs-saturated",
        topology=TopologySpec.line(0.0, 10.0, fast_sigma_db=0.0),
        traffic=TrafficSpec(
            flows=(
                FlowSpec(kind="cbr", src=0, dst=1, payload_bytes=1000,
                         rate_bps=8e6),
            )
        ),
        seed=1,
        duration_s=duration_s,
        observability=AUDITED,
    )


def no_route_spec(duration_s: float = 0.5) -> ScenarioSpec:
    """Strict shortest-path tables over a partitioned topology.

    The destination sits on an island the build-time BFS never reaches,
    so every SDU dies at its origin with a typed ``no-route`` drop —
    and the books must still balance exactly.
    """
    return ScenarioSpec(
        name="obs-no-route",
        topology=TopologySpec.line(0.0, 5000.0, fast_sigma_db=0.0),
        stack=StackSpec(routing="shortest-path"),
        traffic=TrafficSpec(
            flows=(
                FlowSpec(kind="cbr", src=0, dst=1, payload_bytes=512,
                         rate_bps=2e5),
            )
        ),
        seed=1,
        duration_s=duration_s,
        observability=AUDITED,
    )
