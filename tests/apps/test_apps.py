"""Tests for the traffic generators and sinks."""

import pytest

from repro.apps.bulk import BulkTcpReceiver, BulkTcpSender
from repro.apps.cbr import CbrSource
from repro.apps.sink import UdpSink
from repro.errors import ConfigurationError
from repro.obs import FlightRecorder
from repro.scenario import build_network


class TestCbrSource:
    def test_rate_mode_spacing(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        sink = UdpSink(net[1], port=5001)
        source = CbrSource(
            net[0], dst=2, dst_port=5001, payload_bytes=500, rate_bps=400_000
        )
        net.run(1.0)
        # 400 kbps at 500 B/packet = 100 packets/s.
        assert source.packets_offered == pytest.approx(100, abs=2)
        assert sink.packets == pytest.approx(100, abs=2)

    def test_saturated_mode_keeps_the_queue_full_without_overflow(self):
        net = build_network([0, 10], fast_sigma_db=0.0, mac_queue_frames=5)
        sink = UdpSink(net[1], port=5001)
        source = CbrSource(net[0], dst=2, dst_port=5001, payload_bytes=512)
        mac = net[0].mac
        lengths = []
        for at_s in (0.1, 0.25, 0.5, 0.75, 0.99):
            net.sim.schedule_s(at_s, lambda: lengths.append(mac.queue_length))
        net.run(1.0)
        assert mac.counters.queue_drops == 0
        assert net[0].ip.send_failures == 0
        assert source.packets_offered == source.packets_accepted
        assert sink.packets > 0
        # One frame leaves the queue per exchange and the next tick
        # refills it, so the backlog never falls below the limit minus one.
        assert len(lengths) == 5 and min(lengths) >= 4

    def test_rate_mode_tail_drops_at_a_full_queue(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        UdpSink(net[1], port=5001)
        source = CbrSource(
            net[0], dst=2, dst_port=5001, payload_bytes=512, rate_bps=9e6
        )
        net.run(1.0)
        assert net[0].mac.counters.queue_drops > 0
        assert source.packets_offered > source.packets_accepted

    def test_saturated_source_on_a_crashed_node_keeps_offering(self):
        net = build_network([0, 10], fast_sigma_db=0.0, mac_queue_frames=5)
        recorder = FlightRecorder(net.sim, net.tracer).attach()
        UdpSink(net[1], port=5001)
        source = CbrSource(net[0], dst=2, dst_port=5001, payload_bytes=512)
        mac = net[0].mac
        lengths = {}
        for at_s in (0.45, 0.9):
            net.sim.schedule_s(
                at_s, lambda at_s=at_s: lengths.update({at_s: mac.queue_length})
            )
        net.sim.schedule_s(0.3, net[0].crash)
        net.sim.schedule_s(0.6, net[0].reboot)
        net.run(1.0)
        net.sim.shutdown()
        report = recorder.report
        assert report.balanced, report.problems
        # A down MAC has an empty queue, so every offer reaches it and
        # dies there; the frames the crash flushed die too, unless one
        # was already delivered.
        rejected = source.packets_offered - source.packets_accepted
        assert rejected > 0 and mac.counters.queue_drops == rejected
        crashed = report.drops["fault-crash"]
        assert rejected < crashed <= rejected + mac.counters.flushed_frames
        assert report.drops["queue-overflow"] == 0
        assert lengths[0.45] == 0 and lengths[0.9] >= 4

    def test_stop_halts_generation(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        UdpSink(net[1], port=5001)
        source = CbrSource(
            net[0], dst=2, dst_port=5001, payload_bytes=500, rate_bps=400_000
        )
        net.sim.schedule_s(0.5, source.stop)
        net.run(2.0)
        assert source.packets_offered == pytest.approx(50, abs=2)

    def test_delayed_start(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        sink = UdpSink(net[1], port=5001)
        CbrSource(
            net[0],
            dst=2,
            dst_port=5001,
            payload_bytes=500,
            rate_bps=400_000,
            start_s=0.5,
        )
        net.run(1.0)
        assert sink.first_rx_ns >= 500_000_000

    def test_invalid_payload_rejected(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        with pytest.raises(ConfigurationError):
            CbrSource(net[0], dst=2, dst_port=5001, payload_bytes=0)

    def test_invalid_rate_rejected(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        with pytest.raises(ConfigurationError):
            CbrSource(net[0], dst=2, dst_port=5001, payload_bytes=10, rate_bps=0)


class TestUdpSink:
    def test_throughput_window(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        sink = UdpSink(net[1], port=5001, warmup_s=0.5)
        CbrSource(
            net[0], dst=2, dst_port=5001, payload_bytes=1000, rate_bps=800_000
        )
        net.run(1.5)
        # 100 packets/s of 1000 B after warm-up for 1 s: ~800 kbps.
        assert sink.throughput_bps(1.5) == pytest.approx(800_000, rel=0.05)

    def test_degenerate_window_is_zero(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        sink = UdpSink(net[1], port=5001, warmup_s=2.0)
        assert sink.throughput_bps(1.0) == 0.0
        assert sink.throughput_bps(2.0) == 0.0

    def test_warmup_boundary_is_inclusive(self):
        # A datagram at exactly t == warmup counts; one ns earlier does not.
        net = build_network([0, 10], fast_sigma_db=0.0)
        sink = UdpSink(net[1], port=5001, warmup_s=1.0)
        for time_ns in (999_999_999, 1_000_000_000, 1_000_000_001):
            net.sim.schedule_at(time_ns, sink._on_datagram, 0, 100, 1, 5001)
        net.run(2.0)
        assert sink.packets == 3
        assert sink.packets_after_warmup == 2
        assert sink.bytes_after_warmup == 200


class TestBulkApps:
    def test_sender_respects_total_bytes(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        receiver = BulkTcpReceiver(net[1], port=80)
        sender = BulkTcpSender(net[0], dst=2, dst_port=80, total_bytes=4096)
        net.run(3.0)
        assert receiver.bytes == 4096
        assert sender.finished

    def test_invalid_total_rejected(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        with pytest.raises(ConfigurationError):
            BulkTcpSender(net[0], dst=2, dst_port=80, total_bytes=0)

    def test_delayed_start(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        receiver = BulkTcpReceiver(net[1], port=80)
        sender = BulkTcpSender(
            net[0], dst=2, dst_port=80, total_bytes=1024, start_s=0.5
        )
        net.run(0.4)
        assert sender.connection is None
        net.run(3.0)
        assert receiver.bytes == 1024

    def test_receiver_warmup_boundary_is_inclusive(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        receiver = BulkTcpReceiver(net[1], port=80, warmup_s=1.0)
        for time_ns in (999_999_999, 1_000_000_000, 1_000_000_001):
            net.sim.schedule_at(time_ns, receiver._on_deliver, 100)
        net.run(2.0)
        assert receiver.bytes == 300
        assert receiver.bytes_after_warmup == 200
        assert receiver.throughput_bps(2.0) == pytest.approx(200 * 8 / 1.0)

    def test_receiver_degenerate_window_is_zero(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        receiver = BulkTcpReceiver(net[1], port=80, warmup_s=2.0)
        assert receiver.throughput_bps(1.0) == 0.0
        assert receiver.throughput_bps(2.0) == 0.0

    def test_receiver_tracks_connections(self):
        net = build_network([0, 10, 20], fast_sigma_db=0.0)
        receiver = BulkTcpReceiver(net[1], port=80)
        BulkTcpSender(net[0], dst=2, dst_port=80, total_bytes=1024)
        BulkTcpSender(net[2], dst=2, dst_port=80, total_bytes=1024)
        net.run(3.0)
        assert len(receiver.connections) == 2
        assert receiver.bytes == 2048
