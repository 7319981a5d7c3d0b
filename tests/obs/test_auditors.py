"""Unit tests for the online invariant auditors.

Each test synthesises the exact trace stream that would (or would not)
violate one invariant and checks the auditor's verdict, including the
sim-time stamp in the violation message.
"""

from __future__ import annotations

import pytest

from repro.apps.cbr import CbrSource
from repro.apps.sink import UdpSink
from repro.channel.placement import figure6_placement
from repro.core.params import Rate
from repro.errors import AuditError
from repro.obs.auditors import AirtimeAuditor, NavAuditor, TcpMonotonicAuditor
from repro.scenario import build_network
from repro.sim.tracing import TraceRecord, Tracer


def rec(time_ns, category, event, **fields):
    return TraceRecord(time_ns, category, event, fields)


def subscribed(auditor):
    """A tracer that feeds ``auditor`` the way the flight recorder does."""
    tracer = Tracer()
    auditor.attach(tracer)
    return tracer


class TestNavAuditor:
    def test_future_nav_passes(self):
        auditor = NavAuditor()
        auditor.on_record(rec(1000, "mac.1", "nav", until_ns=5000))
        assert auditor.violations == []

    def test_nav_into_the_past_violates(self):
        auditor = NavAuditor()
        auditor.on_record(rec(1000, "mac.1", "nav", until_ns=900))
        assert len(auditor.violations) == 1
        assert "NavAuditor" in auditor.violations[0]
        assert "[t=0.000001s]" in auditor.violations[0]

    def test_other_mac_events_are_ignored(self):
        auditor = NavAuditor()
        tracer = subscribed(auditor)
        tracer.emit(1000, "mac.1", "tx_start", dur_ns=-5)
        tracer.emit(1000, "mac.1", "nav", until_ns=900)
        assert len(auditor.violations) == 1

    def test_on_violation_callback_fires_immediately(self):
        auditor = NavAuditor()

        def boom(message):
            raise AuditError(message)

        auditor.on_violation = boom
        with pytest.raises(AuditError, match="NAV"):
            auditor.on_record(rec(1000, "mac.1", "nav", until_ns=0))


class TestTcpMonotonicAuditor:
    def state(self, t, una, nxt, rcv, cat="tcp.1:5001"):
        return rec(t, cat, "state", snd_una=una, snd_nxt=nxt, rcv_nxt=rcv)

    def test_forward_progress_passes(self):
        auditor = TcpMonotonicAuditor()
        auditor.on_record(self.state(10, 0, 100, 0))
        auditor.on_record(self.state(20, 100, 200, 50))
        assert auditor.violations == []

    def test_snd_una_moving_backwards_violates(self):
        auditor = TcpMonotonicAuditor()
        auditor.on_record(self.state(10, 100, 200, 0))
        auditor.on_record(self.state(20, 50, 200, 0))
        assert any("snd_una moved backwards" in v for v in auditor.violations)

    def test_rcv_nxt_moving_backwards_violates(self):
        auditor = TcpMonotonicAuditor()
        auditor.on_record(self.state(10, 0, 0, 500))
        auditor.on_record(self.state(20, 0, 0, 400))
        assert any("rcv_nxt moved backwards" in v for v in auditor.violations)

    def test_snd_una_overtaking_snd_nxt_violates(self):
        auditor = TcpMonotonicAuditor()
        auditor.on_record(self.state(10, 300, 200, 0))
        assert any("overtook" in v for v in auditor.violations)

    def test_reopen_resets_the_sequence_baseline(self):
        # A crash-reboot cycle restarts the flow on the same port; the
        # fresh connection legitimately starts back at sequence 0.
        auditor = TcpMonotonicAuditor()
        auditor.on_record(self.state(10, 5000, 6000, 7000))
        auditor.on_record(rec(20, "tcp.1:5001", "open", role="active", peer=2))
        auditor.on_record(self.state(30, 0, 100, 0))
        assert auditor.violations == []

    def test_connections_are_tracked_independently(self):
        auditor = TcpMonotonicAuditor()
        auditor.on_record(self.state(10, 900, 900, 900, cat="tcp.1:5001"))
        auditor.on_record(self.state(20, 0, 100, 0, cat="tcp.2:5001"))
        assert auditor.violations == []


class TestAirtimeAuditor:
    def tx(self, t, dur, cat="phy.n1"):
        return rec(t, cat, "tx_start", dur_ns=dur)

    def test_sequential_transmissions_pass(self):
        auditor = AirtimeAuditor()
        auditor.on_record(self.tx(0, 100))
        auditor.on_record(self.tx(200, 100))
        auditor.finalize(end_ns=1000)
        assert auditor.violations == []
        assert auditor.union_busy_ns == 200

    def test_half_duplex_overlap_violates(self):
        auditor = AirtimeAuditor()
        auditor.on_record(self.tx(0, 500))
        auditor.on_record(self.tx(100, 100))  # starts mid-transmission
        assert any("previous one runs until" in v for v in auditor.violations)

    def test_cumulative_airtime_beyond_the_clock_violates(self):
        auditor = AirtimeAuditor()
        # Consistent per-event, but the running total outruns the clock.
        auditor.on_record(self.tx(0, 1000))
        auditor.on_record(self.tx(1000, 1000))
        auditor.on_record(self.tx(1500, 100))
        assert any("accumulated" in v for v in auditor.violations)

    def test_stations_occupy_the_union_not_the_sum(self):
        auditor = AirtimeAuditor()
        auditor.on_record(self.tx(0, 1000, cat="phy.n1"))
        auditor.on_record(self.tx(500, 1000, cat="phy.n2"))  # overlaps n1
        auditor.finalize(end_ns=10_000)
        assert auditor.violations == []
        assert auditor.union_busy_ns == 1500

    def test_finalize_catches_medium_overcommit(self):
        # The union accumulator cannot overrun its own end through
        # on_record, so the finalize check is a defensive backstop;
        # poke the counter directly to prove it still fires.
        auditor = AirtimeAuditor()
        auditor.on_record(self.tx(0, 600, cat="phy.n1"))
        auditor._union_busy_ns = 5000
        auditor.finalize(end_ns=1000)
        assert any("medium occupied" in v for v in auditor.violations)

    def test_non_tx_events_are_ignored(self):
        auditor = AirtimeAuditor()
        tracer = subscribed(auditor)
        tracer.emit(10, "phy.n1", "rx_end", ok=True, dur_ns=500)
        tracer.emit(20, "phy.n1", "tx_start", dur_ns=100)
        auditor.finalize(end_ns=1000)
        assert auditor.violations == []
        assert auditor.union_busy_ns == 100


class TestAirtimeReaders:
    """Per-station airtime: what ``examples/inspect_the_mac.py`` prints."""

    def test_empty_audit(self):
        auditor = AirtimeAuditor()
        assert auditor.observed_span_ns == 0
        assert auditor.stations == ()
        assert auditor.airtime_share("s1") == 0.0
        assert auditor.busy_fraction() == 0.0

    def test_manual_events(self):
        auditor = AirtimeAuditor()
        tracer = subscribed(auditor)
        tracer.emit(0, "phy.a", "tx_start", dur_ns=400)
        tracer.emit(400, "phy.a", "tx_end")
        tracer.emit(600, "phy.b", "tx_start", dur_ns=400)
        tracer.emit(1000, "phy.b", "tx_end")
        assert auditor.observed_span_ns == 1000
        assert auditor.airtime_share("a") == pytest.approx(0.4)
        assert auditor.airtime_share("b") == pytest.approx(0.4)
        assert auditor.airtime_share("c") == 0.0
        assert auditor.busy_fraction() == pytest.approx(0.8)
        assert [(s.name, s.transmissions, s.airtime_ns) for s in auditor.stations] == [
            ("a", 1, 400),
            ("b", 1, 400),
        ]

    def test_a_frame_in_the_air_counts_at_its_start(self):
        # The run may end before tx_end: the frame's whole airtime is
        # charged at tx_start, and the span runs to its end.
        auditor = AirtimeAuditor()
        tracer = subscribed(auditor)
        tracer.emit(100, "phy.a", "tx_start", dur_ns=300)
        tracer.emit(200, "phy.b", "tx_start", dur_ns=300)
        assert auditor.observed_span_ns == 400
        assert auditor.airtime_share("a") == pytest.approx(0.75)
        # Overlapping transmissions push the summed fraction above 1.
        assert auditor.busy_fraction() == pytest.approx(1.5)
        assert auditor.union_busy_ns == 400

    def test_report_lists_stations(self):
        auditor = AirtimeAuditor()
        subscribed(auditor).emit(0, "phy.n1", "tx_start", dur_ns=100)
        report = auditor.report()
        assert report.startswith("Channel airtime audit")
        assert "n1" in report


class TestAirtimeOnSimulation:
    def test_saturated_pair_airtime(self):
        net = build_network([0, 10], data_rate=Rate.MBPS_11, fast_sigma_db=0.0)
        auditor = AirtimeAuditor()
        auditor.attach(net.tracer)
        UdpSink(net[1], port=5001)
        CbrSource(net[0], dst=2, dst_port=5001, payload_bytes=512)
        net.run(2.0)
        sender_share = auditor.airtime_share("n1")
        receiver_share = auditor.airtime_share("n2")
        # Per Equation (1): DATA is ~721 us of a ~1290 us cycle (~0.56 of
        # the channel once DIFS/backoff idle time is included); the ACKs
        # are ~248/1290 (~0.19).
        assert sender_share == pytest.approx(0.56, abs=0.06)
        assert receiver_share == pytest.approx(0.19, abs=0.04)
        assert auditor.busy_fraction() < 1.0

    def test_four_node_asymmetry_mechanism(self):
        """S3 occupies the channel while S1 burns airtime on retries."""
        placement = figure6_placement()
        net = build_network(
            [x for x, _ in placement.positions], data_rate=Rate.MBPS_11
        )
        auditor = AirtimeAuditor()
        auditor.attach(net.tracer)
        for index, (tx, rx) in enumerate(((0, 1), (2, 3))):
            port = 5001 + index
            UdpSink(net[rx], port=port)
            CbrSource(net[tx], dst=rx + 1, dst_port=port, payload_bytes=512)
        net.run(4.0)
        # The winning sender S3 holds a large share of the air...
        assert auditor.airtime_share("n3") > 0.4
        # ...while S1 still transmits plenty (its retries) — the
        # asymmetry is in *useful* deliveries, not in raw airtime.
        assert auditor.airtime_share("n1") > 0.15
        # The channel runs near-continuously busy, with overlapping
        # transmissions (S1 and S3 are decoupled carriers).
        assert auditor.busy_fraction() > 0.85
