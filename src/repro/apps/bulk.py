"""FTP-like bulk transfer over TCP.

The sender keeps the connection's send buffer topped up (an infinite file
in asymptotic conditions, or a fixed number of bytes); the receiver
counts delivered bytes with warm-up trimming.  The application writes in
MSS-sized chunks, matching the paper's "constant size packets of 512
bytes" ftp workload.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.net.node import Node
from repro.transport.tcp.connection import TcpConnection
from repro.units import ns_to_s, s_to_ns


class BulkTcpReceiver:
    """Listens on a port and counts delivered stream bytes."""

    def __init__(self, node: Node, port: int, warmup_s: float = 0.0):
        self._node = node
        self._warmup_ns = s_to_ns(warmup_s)
        self.bytes = 0
        self.bytes_after_warmup = 0
        self.rx_times_ns: list[int] = []
        self.rx_bytes: list[int] = []
        self.connections: list[TcpConnection] = []
        self.peer_closed = False
        node.tcp.listen(port, self._on_connection)

    def _on_connection(self, connection: TcpConnection) -> None:
        self.connections.append(connection)
        connection.on_deliver = self._on_deliver
        connection.on_peer_closed = self._on_peer_closed

    def _on_deliver(self, nbytes: int) -> None:
        self.bytes += nbytes
        self.rx_times_ns.append(self._node.sim.now_ns)
        self.rx_bytes.append(nbytes)
        if self._node.sim.now_ns >= self._warmup_ns:
            self.bytes_after_warmup += nbytes

    def _on_peer_closed(self) -> None:
        self.peer_closed = True

    def throughput_bps(self, horizon_s: float, warmup_s: float | None = None) -> float:
        """Application-level goodput over [warmup, horizon]."""
        if warmup_s is None:
            warmup_s = ns_to_s(self._warmup_ns)
        window = horizon_s - warmup_s
        if window <= 0:
            return 0.0
        return self.bytes_after_warmup * 8 / window


class BulkTcpSender:
    """Connects to a receiver and streams data."""

    def __init__(
        self,
        node: Node,
        dst: int,
        dst_port: int,
        total_bytes: int | None = None,
        chunk_bytes: int | None = None,
        start_s: float = 0.0,
    ):
        if total_bytes is not None and total_bytes <= 0:
            raise ConfigurationError(f"total must be > 0 bytes, got {total_bytes}")
        self._node = node
        self._dst = dst
        self._dst_port = dst_port
        self._total_bytes = total_bytes
        self._written = 0
        self.connection: TcpConnection | None = None
        self._chunk_bytes = chunk_bytes
        self.finished = False
        #: Why the connection closed (``None`` while it is open).
        self.close_reason: str | None = None
        if start_s > 0:
            node.sim.schedule_s(start_s, self.start)
        else:
            self.start()

    def start(self) -> None:
        """Open the connection; data flows once established."""
        self.connection = self._node.tcp.connect(self._dst, self._dst_port)
        if self._chunk_bytes is None:
            self._chunk_bytes = self.connection.config.mss_bytes
        self.connection.on_established = self._fill
        self.connection.on_send_space = self._fill
        self.connection.on_closed = self._on_closed

    def _remaining(self) -> int | None:
        if self._total_bytes is None:
            return None
        return self._total_bytes - self._written

    def _fill(self) -> None:
        connection = self.connection
        if connection is None or self.finished:
            return
        while connection.send_space_bytes >= self._chunk_bytes:
            remaining = self._remaining()
            if remaining is not None and remaining <= 0:
                break
            chunk = self._chunk_bytes
            if remaining is not None:
                chunk = min(chunk, remaining)
            taken = connection.send(chunk)
            self._written += taken
            if taken < chunk:
                break
        remaining = self._remaining()
        if remaining is not None and remaining <= 0 and not self.finished:
            self.finished = True
            connection.close()

    def _on_closed(self, reason: str) -> None:
        self.finished = True
        self.close_reason = reason
