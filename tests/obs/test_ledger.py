"""Unit tests for the packet-conservation ledger's state machine.

These feed hand-built :class:`TraceRecord` streams straight into the
ledger — the integration recipes that make a *real* network produce each
drop reason live in ``test_drop_reasons.py``.
"""

from __future__ import annotations

from repro.obs.ledger import DROP_REASONS, PacketLedger, SduEntry
from repro.sim.tracing import TraceRecord


def rec(time_ns, category, event, **fields):
    return TraceRecord(time_ns, category, event, fields)


def open_sdu(ledger, sdu=0, origin=1, dst=2, t=0, protocol="udp", port=None):
    fields = {
        "sdu": sdu,
        "origin": origin,
        "dst": dst,
        "protocol": protocol,
        "size_bytes": 512,
    }
    if port is not None:
        fields["src_port"] = port
    ledger.on_record(rec(t, f"net.{origin}", "sdu_open", **fields))


class TestLifecycle:
    def test_open_then_deliver_balances(self):
        ledger = PacketLedger()
        open_sdu(ledger, sdu=0)
        ledger.on_record(rec(100, "net.2", "sdu_deliver", sdu=0, origin=1))
        ledger.finalize(end_ns=1000)
        assert ledger.opened == 1
        assert ledger.delivered == 1
        assert ledger.balanced
        assert ledger.problems() == []

    def test_open_without_terminal_becomes_sim_end_in_flight(self):
        ledger = PacketLedger()
        open_sdu(ledger, sdu=0)
        assert ledger.in_flight == 1
        ledger.finalize(end_ns=1000)
        assert ledger.drops["sim-end-in-flight"] == 1
        assert ledger.balanced

    def test_every_drop_reason_is_a_known_bucket(self):
        ledger = PacketLedger()
        assert set(ledger.drops) == set(DROP_REASONS)

    def test_drop_closes_the_entry(self):
        ledger = PacketLedger()
        open_sdu(ledger, sdu=0)
        ledger.on_record(
            rec(50, "mac.1", "sdu_drop", sdu=0, origin=1, reason="queue-overflow")
        )
        ledger.finalize(end_ns=1000)
        assert ledger.drops["queue-overflow"] == 1
        assert ledger.balanced

    def test_forward_counts_hops(self):
        ledger = PacketLedger()
        open_sdu(ledger, sdu=0)
        ledger.on_record(rec(30, "net.3", "sdu_forward", sdu=0, origin=1))
        ledger.on_record(rec(60, "net.2", "sdu_deliver", sdu=0, origin=1))
        entry = ledger.entries[(1, 0)]
        assert entry.hops == 1
        assert entry.state == "delivered"

    def test_finalize_is_idempotent(self):
        ledger = PacketLedger()
        open_sdu(ledger, sdu=0)
        ledger.finalize(end_ns=1000)
        ledger.finalize(end_ns=2000)
        assert ledger.drops["sim-end-in-flight"] == 1


class TestCollisionEvidence:
    """retry-limit upgrades to rx-collision only with receiver-side proof."""

    def _retry_drop(self, ledger):
        ledger.on_record(
            rec(900, "mac.1", "sdu_drop", sdu=0, origin=1, reason="retry-limit")
        )

    def test_rx_fail_at_intended_receiver_upgrades_to_collision(self):
        ledger = PacketLedger()
        open_sdu(ledger, sdu=0, dst=2)
        ledger.on_record(rec(10, "mac.1", "sdu_enqueue", sdu=0, origin=1, dst=2))
        ledger.on_record(
            rec(20, "phy.n2", "sdu_rx_fail", sdu=0, origin=1, outcome="collision")
        )
        self._retry_drop(ledger)
        assert ledger.drops["rx-collision"] == 1
        assert ledger.drops["retry-limit"] == 0

    def test_no_rx_evidence_stays_retry_limit(self):
        ledger = PacketLedger()
        open_sdu(ledger, sdu=0, dst=2)
        ledger.on_record(rec(10, "mac.1", "sdu_enqueue", sdu=0, origin=1, dst=2))
        self._retry_drop(ledger)
        assert ledger.drops["retry-limit"] == 1
        assert ledger.drops["rx-collision"] == 0

    def test_third_party_rx_fail_is_not_collision_evidence(self):
        # Station 9 overhears and fails the frame, but it was addressed
        # to station 2 — the overhearer's failure proves nothing.
        ledger = PacketLedger()
        open_sdu(ledger, sdu=0, dst=2)
        ledger.on_record(rec(10, "mac.1", "sdu_enqueue", sdu=0, origin=1, dst=2))
        ledger.on_record(
            rec(20, "phy.n9", "sdu_rx_fail", sdu=0, origin=1, outcome="sinr")
        )
        self._retry_drop(ledger)
        assert ledger.drops["retry-limit"] == 1

    def test_successful_hop_resets_the_evidence(self):
        ledger = PacketLedger()
        open_sdu(ledger, sdu=0, dst=2)
        ledger.on_record(rec(10, "mac.1", "sdu_enqueue", sdu=0, origin=1, dst=2))
        ledger.on_record(
            rec(20, "phy.n2", "sdu_rx_fail", sdu=0, origin=1, outcome="collision")
        )
        ledger.on_record(rec(30, "mac.1", "sdu_tx_ok", sdu=0, origin=1))
        self._retry_drop(ledger)
        assert ledger.drops["retry-limit"] == 1

    def test_rx_fail_for_unknown_sdu_is_ignored(self):
        # Evidence events are non-strict: a frame still in the air for a
        # closed or never-seen SDU must not poison the balance.
        ledger = PacketLedger()
        ledger.on_record(
            rec(20, "phy.n2", "sdu_rx_fail", sdu=77, origin=1, outcome="sinr")
        )
        ledger.finalize(end_ns=100)
        assert ledger.unknown_events == 0
        assert ledger.balanced


class TestTcpAbortReclassification:
    def test_open_tcp_sdu_of_aborted_connection_becomes_tcp_abort(self):
        ledger = PacketLedger()
        open_sdu(ledger, sdu=0, origin=1, protocol="tcp", port=5001)
        ledger.on_record(rec(500, "tcp.1:5001", "abort", reason="crash"))
        ledger.finalize(end_ns=1000)
        assert ledger.drops["tcp-abort"] == 1
        assert ledger.drops["sim-end-in-flight"] == 0

    def test_other_ports_are_not_swept_up(self):
        ledger = PacketLedger()
        open_sdu(ledger, sdu=0, origin=1, protocol="tcp", port=5002)
        ledger.on_record(rec(500, "tcp.1:5001", "abort", reason="crash"))
        ledger.finalize(end_ns=1000)
        assert ledger.drops["tcp-abort"] == 0
        assert ledger.drops["sim-end-in-flight"] == 1

    def test_udp_never_reclassifies(self):
        ledger = PacketLedger()
        open_sdu(ledger, sdu=0, origin=1, protocol="udp", port=5001)
        ledger.on_record(rec(500, "tcp.1:5001", "abort", reason="crash"))
        ledger.finalize(end_ns=1000)
        assert ledger.drops["tcp-abort"] == 0
        assert ledger.drops["sim-end-in-flight"] == 1


class TestAnomalies:
    def test_drop_after_delivery_is_allowed(self):
        # The ACK-loss race: receiver delivered, but the sender never
        # heard the ACK and exhausted its retries.
        ledger = PacketLedger()
        open_sdu(ledger, sdu=0)
        ledger.on_record(rec(100, "net.2", "sdu_deliver", sdu=0, origin=1))
        ledger.on_record(
            rec(200, "mac.1", "sdu_drop", sdu=0, origin=1, reason="retry-limit")
        )
        ledger.finalize(end_ns=1000)
        assert ledger.anomalies == {"drop-after-delivery": 1}
        assert ledger.delivered == 1
        assert ledger.balanced

    def test_deliver_after_crash_drop_is_allowed(self):
        # The crash race: the frame was in the air when the sender's MAC
        # was flushed; the reception still completes.
        ledger = PacketLedger()
        open_sdu(ledger, sdu=0)
        ledger.on_record(
            rec(100, "mac.1", "sdu_drop", sdu=0, origin=1, reason="fault-crash")
        )
        ledger.on_record(rec(150, "net.2", "sdu_deliver", sdu=0, origin=1))
        ledger.finalize(end_ns=1000)
        assert ledger.anomalies == {"deliver-after-crash": 1}
        assert ledger.drops["fault-crash"] == 1
        assert ledger.balanced

    def test_double_drop_breaks_the_balance(self):
        ledger = PacketLedger()
        open_sdu(ledger, sdu=0)
        for t in (100, 200):
            ledger.on_record(
                rec(t, "mac.1", "sdu_drop", sdu=0, origin=1, reason="retry-limit")
            )
        ledger.finalize(end_ns=1000)
        assert not ledger.balanced
        assert any("double-drop" in p for p in ledger.problems())

    def test_double_delivery_breaks_the_balance(self):
        ledger = PacketLedger()
        open_sdu(ledger, sdu=0)
        for t in (100, 200):
            ledger.on_record(rec(t, "net.2", "sdu_deliver", sdu=0, origin=1))
        ledger.finalize(end_ns=1000)
        assert not ledger.balanced
        assert any("terminal-after-close" in p for p in ledger.problems())

    def test_duplicate_open_breaks_the_balance(self):
        ledger = PacketLedger()
        open_sdu(ledger, sdu=0)
        open_sdu(ledger, sdu=0)
        ledger.on_record(rec(100, "net.2", "sdu_deliver", sdu=0, origin=1))
        ledger.finalize(end_ns=1000)
        assert not ledger.balanced

    def test_terminal_for_unknown_sdu_breaks_the_balance(self):
        ledger = PacketLedger()
        ledger.on_record(rec(100, "net.2", "sdu_deliver", sdu=5, origin=1))
        ledger.finalize(end_ns=1000)
        assert ledger.unknown_events == 1
        assert not ledger.balanced


class TestEntryExport:
    def test_to_dict_is_json_primitive(self):
        entry = SduEntry(
            origin=1, sdu_id=3, dst=2, protocol="udp", size_bytes=512,
            opened_ns=10,
        )
        doc = entry.to_dict()
        assert doc["origin"] == 1
        assert doc["sdu"] == 3
        assert doc["state"] == "open"
        assert all(
            isinstance(v, (int, str, type(None))) for v in doc.values()
        )
