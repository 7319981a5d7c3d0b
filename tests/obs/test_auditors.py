"""Unit tests for the online invariant auditors.

Each test synthesises the exact trace stream that would (or would not)
violate one invariant and checks the auditor's verdict, including the
sim-time stamp in the violation message.
"""

from __future__ import annotations

import pytest

from repro.errors import AuditError
from repro.obs.auditors import AirtimeAuditor, NavAuditor, TcpMonotonicAuditor
from repro.sim.tracing import TraceRecord, Tracer


def rec(time_ns, category, event, **fields):
    return TraceRecord(time_ns, category, event, fields)


def subscribed(auditor):
    """A tracer that feeds ``auditor`` the way the flight recorder does."""
    tracer = Tracer()
    tracer.subscribe(auditor.on_record, prefix=auditor.prefix, events=auditor.events)
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
