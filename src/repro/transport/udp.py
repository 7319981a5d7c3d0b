"""UDP: connectionless datagram sockets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ConfigurationError, TransportError
from repro.core.encapsulation import TransportProtocol
from repro.sim.tracing import take_channel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.ip import IpLayer

#: UDP header size.
UDP_HEADER_BYTES = 8

ReceiveHandler = Callable[[Any, int, int, int], None]
# (payload, payload_bytes, src_address, src_port)


@dataclass(frozen=True)
class UdpSegment:
    """One UDP datagram's transport header + payload."""

    src_port: int
    dst_port: int
    payload: Any
    payload_bytes: int


class UdpSocket:
    """A bound UDP port."""

    def __init__(self, protocol: "UdpProtocol", port: int):
        self._protocol = protocol
        self._port = port
        self._handler: ReceiveHandler | None = None
        self._closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self.datagrams_sent = 0
        self.datagrams_received = 0

    @property
    def port(self) -> int:
        """The local port number."""
        return self._port

    def on_receive(self, handler: ReceiveHandler) -> None:
        """``handler(payload, payload_bytes, src, src_port)`` per datagram."""
        self._handler = handler

    def send(self, payload: Any, payload_bytes: int, dst: int, dst_port: int) -> bool:
        """Send one datagram.  Returns False on a local queue drop."""
        if self._closed:
            raise TransportError("socket is closed")
        if payload_bytes <= 0:
            raise ConfigurationError(
                f"payload must be > 0 bytes, got {payload_bytes}"
            )
        segment = UdpSegment(self._port, dst_port, payload, payload_bytes)
        accepted = self._protocol.send_segment(segment, dst)
        if accepted:
            self.bytes_sent += payload_bytes
            self.datagrams_sent += 1
        return accepted

    def close(self) -> None:
        """Release the port."""
        if not self._closed:
            self._closed = True
            self._protocol.release(self._port)

    def _deliver(self, segment: UdpSegment, src: int) -> None:
        self.bytes_received += segment.payload_bytes
        self.datagrams_received += 1
        if self._handler is not None:
            self._handler(segment.payload, segment.payload_bytes, src, segment.src_port)


class UdpProtocol:
    """The per-node UDP endpoint table."""

    _category = property(lambda udp: f"udp.{udp._ip.address}")

    def __init__(self, ip: "IpLayer"):
        self._ip = ip
        self._sockets: dict[int, UdpSocket] = {}
        self._next_ephemeral = 49152
        self._tracer = ip.tracer
        # Audit channels, each taken on first use (take_channel).
        self._trace_tx = self._trace_rx = None
        ip.register_protocol(TransportProtocol.UDP.value, self._on_segment)

    def bind(self, port: int | None = None) -> UdpSocket:
        """Open a socket on ``port`` (or an ephemeral one)."""
        if port is None:
            while self._next_ephemeral in self._sockets:
                self._next_ephemeral += 1
            port = self._next_ephemeral
            self._next_ephemeral += 1
        if port in self._sockets:
            raise TransportError(f"udp port {port} already bound")
        socket = UdpSocket(self, port)
        self._sockets[port] = socket
        return socket

    def release(self, port: int) -> None:
        """Free a bound port."""
        self._sockets.pop(port, None)

    def send_segment(self, segment: UdpSegment, dst: int) -> bool:
        """Hand a segment to IP."""
        if self._tracer.audit:
            tx = self._trace_tx or take_channel(self, "tx")
            tx.count += 1
            if tx.callbacks:
                tx.publish(self._ip.sim.now_ns, {
                    "dst": dst, "dst_port": segment.dst_port, "size_bytes": segment.payload_bytes,
                })
        return self._ip.send(
            segment, segment.payload_bytes + UDP_HEADER_BYTES, dst, TransportProtocol.UDP.value
        )

    def _on_segment(self, segment: UdpSegment, src: int) -> None:
        if self._tracer.audit:
            rx = self._trace_rx or take_channel(self, "rx")
            rx.count += 1
            if rx.callbacks:
                rx.publish(self._ip.sim.now_ns, {
                    "src": src, "dst_port": segment.dst_port, "size_bytes": segment.payload_bytes,
                })
        socket = self._sockets.get(segment.dst_port)
        if socket is not None:
            socket._deliver(segment, src)
