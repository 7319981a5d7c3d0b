"""Every typed drop reason, produced by a real network.

One deterministic scenario per terminal state: the point is that the
taxonomy is *reachable* and that each recipe's books still balance
exactly — no SDU leaked, none double-counted.
"""

from __future__ import annotations

from repro.obs.ledger import DROP_REASONS

from tests.obs.util import (
    bulk_tcp_spec,
    crash_spec,
    hidden_terminal_spec,
    out_of_range_spec,
    run_audited,
    saturated_spec,
    tiny_queue_spec,
    two_node_udp_spec,
)


def report_of(spec, after=None):
    net = run_audited(spec) if after is None else after(spec)
    report = net.recorder.report
    assert report is not None, "recorder was never finalized"
    assert report.balanced, report.problems
    assert report.violations == ()
    closed = report.delivered + sum(report.drops.values())
    assert closed == report.opened
    return report


def test_clean_link_delivers():
    report = report_of(two_node_udp_spec())
    assert report.delivered > 0
    assert report.drops["retry-limit"] == 0
    assert report.drops["rx-collision"] == 0


def test_hidden_terminal_produces_rx_collision():
    report = report_of(hidden_terminal_spec())
    assert report.drops["rx-collision"] > 0


def test_out_of_range_link_produces_pure_retry_limit():
    report = report_of(out_of_range_spec())
    assert report.drops["retry-limit"] > 0
    # No frame ever locked at the receiver, so nothing can be blamed on
    # a collision.
    assert report.drops["rx-collision"] == 0
    assert report.delivered == 0


def test_tiny_queue_produces_queue_overflow():
    report = report_of(tiny_queue_spec())
    assert report.drops["queue-overflow"] > 0
    assert report.delivered > 0


def test_node_crash_produces_fault_crash_and_never_leaks():
    report = report_of(crash_spec())
    assert report.drops["fault-crash"] > 0
    assert report.delivered > 0
    # The one permitted racy anomaly: a frame already in the air when
    # the MAC was flushed may still be received.
    assert set(report.anomalies) <= {"deliver-after-crash"}


def test_tcp_abort_reclassifies_in_flight_segments():
    from repro.scenario import build

    spec = bulk_tcp_spec()
    net = build(spec)
    net.run(spec.duration_s)
    net[0].tcp.abort_all()
    net.sim.shutdown()
    report = net.recorder.report
    assert report.balanced, report.problems
    assert report.drops["tcp-abort"] > 0


def test_saturated_run_ends_with_sdus_in_flight():
    report = report_of(saturated_spec())
    assert report.drops["sim-end-in-flight"] > 0


def test_saturated_contenders_never_overflow_their_own_queues():
    from repro.experiments.mac_surface import saturation_spec

    # Saturated sources offer only when their MAC queue has room.
    report = report_of(saturation_spec(2, duration_s=0.5))
    assert report.drops["queue-overflow"] == 0
    assert report.delivered > 0
    assert report.drops["sim-end-in-flight"] > 0


def test_breakdown_covers_only_known_reasons():
    report = report_of(hidden_terminal_spec(duration_s=1.0))
    assert set(report.drops) == set(DROP_REASONS)


def test_unreachable_destination_produces_no_route():
    from tests.obs.util import no_route_spec

    report = report_of(no_route_spec())
    assert report.drops["no-route"] > 0
    assert report.delivered == 0
    # The route miss happens before the MAC: nothing was ever on the air.
    assert report.drops["retry-limit"] == 0
