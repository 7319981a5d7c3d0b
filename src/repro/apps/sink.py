"""Counting sinks."""

from __future__ import annotations

from repro.analysis.meters import DelayMeter
from repro.net.node import Node
from repro.sim.tracing import take_channel
from repro.units import ns_to_s, s_to_ns


class UdpSink:
    """Receives UDP datagrams on a port and counts them over time."""

    _category = property(lambda sink: f"app.{sink._node.address}")

    def __init__(self, node: Node, port: int, warmup_s: float = 0.0):
        self._node = node
        self._warmup_ns = s_to_ns(warmup_s)
        self._socket = node.udp.bind(port)
        self._socket.on_receive(self._on_datagram)
        self._tracer = node.ip.tracer
        self._trace_rx = None  # audit channel, taken on first use
        self.packets = 0
        self.bytes = 0
        self.packets_after_warmup = 0
        self.bytes_after_warmup = 0
        self.first_rx_ns: int | None = None
        self.last_rx_ns: int | None = None
        #: Sequence numbers seen (CBR payloads are sequence integers).
        self.sequences: list[int] = []
        #: Arrival time of every datagram, for rate-over-time analysis.
        self.rx_times_ns: list[int] = []
        #: One-way delays of timestamped payloads (CbrSource with
        #: ``timestamped=True`` sends ``(seq, send_time_s)`` tuples).
        self.delays = DelayMeter(warmup_s=warmup_s)

    def _on_datagram(self, payload, payload_bytes, src, src_port) -> None:
        now = self._node.sim.now_ns
        self.packets += 1
        self.bytes += payload_bytes
        if self._tracer.audit:
            rx = self._trace_rx or take_channel(self, "rx")
            rx.count += 1
            if rx.callbacks:
                rx.publish(now, {"src": src, "size_bytes": payload_bytes})
        if isinstance(payload, int):
            self.sequences.append(payload)
        elif isinstance(payload, tuple) and len(payload) == 2:
            sequence, sent_s = payload
            self.sequences.append(sequence)
            self.delays.record(sent_s, ns_to_s(now))
        if self.first_rx_ns is None:
            self.first_rx_ns = now
        self.last_rx_ns = now
        self.rx_times_ns.append(now)
        if now >= self._warmup_ns:
            self.packets_after_warmup += 1
            self.bytes_after_warmup += payload_bytes

    def throughput_bps(self, horizon_s: float, warmup_s: float | None = None) -> float:
        """Application-level goodput over [warmup, horizon]."""
        if warmup_s is None:
            warmup_s = ns_to_s(self._warmup_ns)
        window = horizon_s - warmup_s
        if window <= 0:
            return 0.0
        return self.bytes_after_warmup * 8 / window
