"""Constant-bit-rate UDP source.

In *saturated* mode (the paper's "asymptotic conditions") the source
always has a packet ready, like a ttcp writer blocked on a full socket
buffer.  It ticks every half frame airtime, faster than the channel can
drain, and offers a packet on each tick on which the MAC queue has room.
The queue stays full for the whole run, so the receiver-side throughput
is the channel's saturation throughput, and the sender's own queue never
tail-drops an offer.  In rate mode the source offers a packet on a fixed
interval whatever the queue holds, so a full queue tail-drops it.
"""

from __future__ import annotations

from repro.core.airtime import AirtimeCalculator
from repro.core.encapsulation import mac_payload_bytes
from repro.errors import ConfigurationError
from repro.net.node import Node
from repro.sim.timers import Timer
from repro.sim.tracing import take_channel
from repro.units import us_to_ns


class CbrSource:
    """UDP packet generator attached to a node."""

    _category = property(lambda source: f"app.{source._node.address}")

    def __init__(
        self,
        node: Node,
        dst: int,
        dst_port: int,
        payload_bytes: int = 512,
        rate_bps: float | None = None,
        start_s: float = 0.0,
        timestamped: bool = False,
    ):
        if payload_bytes <= 0:
            raise ConfigurationError(
                f"payload must be > 0 bytes, got {payload_bytes}"
            )
        self._node = node
        self._dst = dst
        self._dst_port = dst_port
        self._payload_bytes = payload_bytes
        self._timestamped = timestamped
        self._socket = node.udp.bind()
        self._mac = node.mac
        self._tracer = node.ip.tracer
        self._trace_offer = None  # audit channel, taken on first use
        self._interval_ns = self._choose_interval_ns(rate_bps)
        self._on_timer = self._tick if rate_bps is not None else self._tick_saturated
        self._timer = Timer(node.sim, self._on_timer, name=f"cbr{node.address}")
        self._stopped = False
        #: Packets handed to the socket: one per tick in rate mode, one
        #: per tick that finds room in the MAC queue in saturated mode.
        self.packets_offered = 0
        #: Offered packets the stack accepted (rate mode loses the ones
        #: a full MAC queue tail-drops; a crashed MAC accepts nothing).
        self.packets_accepted = 0
        self._sequence = 0
        if start_s > 0:
            node.sim.schedule_s(start_s, self.start)
        else:
            self.start()

    def _choose_interval_ns(self, rate_bps: float | None) -> int:
        if rate_bps is not None:
            if rate_bps <= 0:
                raise ConfigurationError(f"rate must be > 0 bps, got {rate_bps}")
            return us_to_ns(self._payload_bytes * 8 / rate_bps * 1e6)
        # Saturated mode: tick every half frame airtime, so the MAC queue
        # can never drain.
        airtime = AirtimeCalculator(self._node.stack.dot11)
        msdu = mac_payload_bytes(self._payload_bytes)
        frame_us = airtime.data_frame_us(msdu, self._node.stack.data_rate)
        return us_to_ns(frame_us / 2)

    def start(self) -> None:
        """Begin (or resume) generating packets."""
        self._stopped = False
        self._on_timer()

    def stop(self) -> None:
        """Stop generating packets."""
        self._stopped = True
        self._timer.cancel()

    def _tick_saturated(self) -> None:
        # An offer now would be tail-dropped at this node's own queue, so
        # skip it: the MAC accepts the same packets at the same instants.
        if self._mac.queue_full:
            self._timer.start(self._interval_ns)
        else:
            self._tick()

    def _tick(self) -> None:
        if self._stopped:
            return
        self.packets_offered += 1
        payload: object = self._sequence
        if self._timestamped:
            payload = (self._sequence, self._node.sim.now_s)
        if self._tracer.audit:
            offer = self._trace_offer or take_channel(self, "offer")
            offer.count += 1
            if offer.callbacks:
                offer.publish(self._node.sim.now_ns, {
                    "seq": self._sequence, "dst": self._dst, "size_bytes": self._payload_bytes,
                })
        accepted = self._socket.send(
            payload, self._payload_bytes, self._dst, self._dst_port
        )
        if accepted:
            self.packets_accepted += 1
        self._sequence += 1
        self._timer.start(self._interval_ns)

    @property
    def socket(self):
        """The UDP socket the source transmits from."""
        return self._socket
