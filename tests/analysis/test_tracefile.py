"""Tests for JSONL trace persistence."""

from repro.analysis.tracefile import TraceWriter, read_trace
from repro.sim.tracing import Tracer


class TestTraceWriter:
    def test_round_trip(self, tmp_path):
        tracer = Tracer()
        path = tmp_path / "run.jsonl"
        with TraceWriter(tracer, path) as writer:
            tracer.emit(100, "mac", "tx_data", dst=2, seq=5)
            tracer.emit(200, "phy", "rx_lock", rx_dbm=-70.5)
        assert writer.records_written == 2
        records = read_trace(path)
        assert records[0] == {
            "t_ns": 100,
            "category": "mac",
            "event": "tx_data",
            "dst": 2,
            "seq": 5,
        }
        assert records[1]["rx_dbm"] == -70.5

    def test_prefix_filtering(self, tmp_path):
        tracer = Tracer()
        path = tmp_path / "mac-only.jsonl"
        with TraceWriter(tracer, path, prefix="mac.") as writer:
            tracer.emit(0, "mac", "tx_data")
            tracer.emit(0, "phy", "rx_lock")
        assert writer.records_written == 1

    def test_detaches_on_exit(self, tmp_path):
        tracer = Tracer()
        channel = tracer.channel("phy", "rx_lock")
        with TraceWriter(tracer, tmp_path / "t.jsonl") as writer:
            pass
        tracer.emit(0, "mac", "tx_data")  # must not explode
        assert writer.records_written == 0
        assert channel.callbacks == ()

    def test_creates_parent_directories(self, tmp_path):
        tracer = Tracer()
        with TraceWriter(tracer, tmp_path / "deep" / "t.jsonl"):
            tracer.emit(0, "a", "b")
        assert (tmp_path / "deep" / "t.jsonl").exists()

    def test_real_simulation_trace(self, tmp_path):
        from repro.apps.cbr import CbrSource
        from repro.apps.sink import UdpSink
        from repro.core.params import Rate
        from repro.scenario import build_network

        net = build_network([0, 10], data_rate=Rate.MBPS_11, fast_sigma_db=0.0)
        UdpSink(net[1], port=5001)
        CbrSource(net[0], dst=2, dst_port=5001, payload_bytes=512,
                  rate_bps=1e6)
        path = tmp_path / "sim.jsonl"
        with TraceWriter(net.tracer, path, prefix="mac."):
            net.run(0.1)
        records = read_trace(path)
        events = {record["event"] for record in records}
        assert "tx_data" in events
        assert "tx_ack" in events
        # Records are time-ordered.
        times = [record["t_ns"] for record in records]
        assert times == sorted(times)
