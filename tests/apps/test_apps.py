"""Tests for the traffic generators and sinks."""

import pytest

from repro.apps.bulk import BulkTcpReceiver, BulkTcpSender
from repro.apps.cbr import CbrSource
from repro.apps.sink import UdpSink
from repro.errors import ConfigurationError
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

    def test_saturated_mode_overflows_queue(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        UdpSink(net[1], port=5001)
        source = CbrSource(net[0], dst=2, dst_port=5001, payload_bytes=512)
        net.run(1.0)
        assert source.packets_offered > source.packets_accepted

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

    def test_receiver_tracks_connections(self):
        net = build_network([0, 10, 20], fast_sigma_db=0.0)
        receiver = BulkTcpReceiver(net[1], port=80)
        BulkTcpSender(net[0], dst=2, dst_port=80, total_bytes=1024)
        BulkTcpSender(net[2], dst=2, dst_port=80, total_bytes=1024)
        net.run(3.0)
        assert len(receiver.connections) == 2
        assert receiver.bytes == 2048
