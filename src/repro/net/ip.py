"""The IP-like layer: encapsulation, forwarding, protocol dispatch."""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable

from repro.core.encapsulation import IP_HEADER_BYTES
from repro.errors import ConfigurationError
from repro.mac.dcf import MacStation
from repro.net.packet import Datagram
from repro.net.routing import StaticRouting
from repro.sim.tracing import take_channel

ProtocolHandler = Callable[[Any, int], None]  # (segment, src_address)


class IpLayer:
    """One node's network layer on top of its MAC."""

    _category = property(lambda ip: f"net.{ip._address}")

    def __init__(self, mac: MacStation, routing: StaticRouting | None = None):
        self._mac = mac
        self._address = mac.address
        self._routing = routing if routing is not None else StaticRouting(mac.address)
        self._handlers: dict[str, ProtocolHandler] = {}
        self._next_sdu_id = 0
        self.datagrams_sent = 0
        self.datagrams_forwarded = 0
        self.datagrams_delivered = 0
        self.send_failures = 0
        self.datagrams_no_route = 0
        self.datagrams_ttl_expired = 0
        self._tracer = mac.tracer
        # Audit channels, each taken on first use (take_channel).
        self._trace_sdu_open = self._trace_sdu_drop = None
        self._trace_sdu_deliver = self._trace_sdu_forward = None
        mac.set_receive_callback(self._on_mac_receive)

    @property
    def address(self) -> int:
        """This node's address."""
        return self._address

    @property
    def routing(self) -> StaticRouting:
        """The routing table."""
        return self._routing

    @property
    def sim(self):
        """The simulator of the MAC this layer rides on."""
        return self._mac.sim

    @property
    def tracer(self):
        """The stack's shared tracer."""
        return self._tracer

    def register_protocol(self, protocol: str, handler: ProtocolHandler) -> None:
        """Attach a transport: ``handler(segment, src)`` on delivery."""
        if protocol in self._handlers:
            raise ConfigurationError(f"protocol {protocol!r} already registered")
        self._handlers[protocol] = handler

    def send(self, segment: Any, segment_bytes: int, dst: int, protocol: str) -> bool:
        """Encapsulate a transport segment and queue it on the MAC.

        Returns False if the MAC queue rejected the frame (tail drop).
        """
        datagram = Datagram(
            src=self._address,
            dst=dst,
            protocol=protocol,
            segment=segment,
            size_bytes=segment_bytes + IP_HEADER_BYTES,
            sdu_id=self._next_sdu_id,
        )
        self._next_sdu_id += 1
        if self._tracer.audit:
            # The open event must precede the MAC's enqueue/drop events,
            # so the ledger sees the SDU before any terminal state.
            sdu_open = self._trace_sdu_open or take_channel(self, "sdu_open")
            sdu_open.emit(self._mac.sim.now_ns, {
                "sdu": datagram.sdu_id, "origin": self._address, "dst": dst,
                "protocol": protocol, "size_bytes": datagram.size_bytes,
                "src_port": getattr(segment, "src_port", None),
            })
        accepted = self._transmit(datagram)
        if accepted:
            self.datagrams_sent += 1
        else:
            self.send_failures += 1
        return accepted

    def _transmit(self, datagram: Datagram) -> bool:
        next_hop = self._routing.next_hop(datagram.dst)
        if next_hop is None:
            # A strict routing table has no path to this destination.
            # The typed drop is this SDU's terminal state in the ledger —
            # a silent False here would leave the books unbalanced.
            self.datagrams_no_route += 1
            self._drop(datagram, "no-route")
            return False
        return self._mac.enqueue(datagram, next_hop, datagram.size_bytes)

    def _drop(self, datagram: Datagram, reason: str) -> None:
        if self._tracer.audit and datagram.sdu_id >= 0:
            sdu_drop = self._trace_sdu_drop or take_channel(self, "sdu_drop")
            sdu_drop.emit(self._mac.sim.now_ns, {
                "sdu": datagram.sdu_id, "origin": datagram.src, "reason": reason,
            })

    def _on_mac_receive(self, msdu: Any, mac_src: int) -> None:
        if not isinstance(msdu, Datagram):
            return
        audit = self._tracer.audit
        if msdu.dst == self._address:
            self.datagrams_delivered += 1
            if audit and msdu.sdu_id >= 0:
                sdu_deliver = self._trace_sdu_deliver or take_channel(self, "sdu_deliver")
                sdu_deliver.emit(
                    self._mac.sim.now_ns, {"sdu": msdu.sdu_id, "origin": msdu.src}
                )
            handler = self._handlers.get(msdu.protocol)
            if handler is not None:
                handler(msdu.segment, msdu.src)
            return
        # Not for us: forward if we know a way (multi-hop extension).
        if msdu.ttl <= 1:
            # This hop would be one too many; the datagram dies here
            # with a typed terminal drop (loop protection).
            self.datagrams_ttl_expired += 1
            self._drop(msdu, "ttl-expired")
            return
        self.datagrams_forwarded += 1
        if audit and msdu.sdu_id >= 0:
            sdu_forward = self._trace_sdu_forward or take_channel(self, "sdu_forward")
            sdu_forward.emit(
                self._mac.sim.now_ns, {"sdu": msdu.sdu_id, "origin": msdu.src}
            )
        self._transmit(replace(msdu, ttl=msdu.ttl - 1))
