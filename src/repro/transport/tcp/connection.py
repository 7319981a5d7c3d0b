"""The TCP connection state machine.

Sequence space: the SYN occupies sequence 0, stream byte ``i`` occupies
sequence ``1 + i``, and the FIN occupies one sequence number after the
last stream byte.  Both sides use an initial sequence number of 0 (the
simulation never reuses connections, so randomised ISNs buy nothing).

The machine implements: three-way handshake, cumulative ACKs with
duplicate-ACK counting, Reno fast retransmit / fast recovery, Karn's rule
(no RTT samples across retransmissions, exponential RTO backoff),
delayed ACKs (every second in-order segment or a timeout, immediate on
out-of-order data), zero-copy byte accounting, and a simplified
FIN close (each direction closes once; no TIME_WAIT).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Protocol

from repro.errors import TransportError
from repro.sim.engine import Simulator
from repro.sim.timers import Timer
from repro.sim.tracing import TraceChannel, Tracer
from repro.transport.tcp.buffers import ReceiveReassembly, SendBuffer
from repro.transport.tcp.congestion import RenoCongestionControl
from repro.transport.tcp.rto import RtoEstimator
from repro.transport.tcp.segment import TcpSegment


class TcpState(enum.Enum):
    """Simplified connection states."""

    CLOSED = "closed"
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    FIN_SENT = "fin-sent"


@dataclass(frozen=True)
class TcpConfig:
    """Tunables for one connection (defaults match the paper's era)."""

    mss_bytes: int = 512
    rwnd_bytes: int = 65535
    initial_cwnd_segments: int = 2
    delayed_ack: bool = True
    delack_timeout_s: float = 0.2
    initial_rto_s: float = 1.0
    min_rto_s: float = 0.2
    max_rto_s: float = 60.0
    max_retransmissions: int = 15
    connect_retries: int = 6


class SegmentTransport(Protocol):
    """What a connection needs from the protocol layer."""

    def send_segment(self, segment: TcpSegment, dst: int) -> bool:
        """Hand a segment to IP; False on local queue rejection."""


class TcpConnection:
    """One end of a TCP connection."""

    def __init__(
        self,
        sim: Simulator,
        transport: SegmentTransport,
        config: TcpConfig,
        local_addr: int,
        local_port: int,
        remote_addr: int,
        remote_port: int,
        tracer: Tracer | None = None,
    ):
        self._sim = sim
        self._transport = transport
        self.config = config
        self.local_addr = local_addr
        self.local_port = local_port
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self._tracer = tracer if tracer is not None else Tracer()
        category = f"tcp.{local_addr}:{local_port}"
        channel = self._tracer.channel
        self._trace_rx = channel(category, "rx")
        self._trace_tx = channel(category, "tx")
        self._trace_tx_ack = channel(category, "tx_ack")
        self._trace_closed = channel(category, "closed")
        # Audit channels.
        self._trace_open = channel(category, "open")
        self._trace_state = channel(category, "state")
        self._trace_abort = channel(category, "abort")

        self.state = TcpState.CLOSED
        # Sender side.
        self.snd_una = 0
        self.snd_nxt = 0
        self.peer_window = config.rwnd_bytes
        self.send_buffer = SendBuffer()
        self.congestion = RenoCongestionControl(
            config.mss_bytes, config.initial_cwnd_segments
        )
        self.rto = RtoEstimator(
            config.initial_rto_s, config.min_rto_s, config.max_rto_s
        )
        self._rexmit_timer = Timer(sim, self._on_rexmit_timeout, name="tcp-rexmit")
        self._pump_timer = Timer(sim, self._pump, name="tcp-pump")
        self._timing: tuple[int, int] | None = None  # (seq to ack, start ns)
        self._retransmit_count = 0
        self._fin_seq: int | None = None
        # Receiver side.
        self.reassembly = ReceiveReassembly()
        self._delack_timer = Timer(sim, self._send_ack, name="tcp-delack")
        self._unacked_segments = 0
        self._peer_fin_seen = False
        self._pending_fin_seq: int | None = None

        # Statistics.
        self.bytes_delivered = 0
        self.segments_sent = 0
        self.segments_retransmitted = 0
        self.acks_sent = 0
        self.timeouts = 0
        self.fast_retransmits = 0

        # Application callbacks.
        self.on_established: Callable[[], None] = lambda: None
        self.on_deliver: Callable[[int], None] = lambda nbytes: None
        self.on_send_space: Callable[[], None] = lambda: None
        self.on_peer_closed: Callable[[], None] = lambda: None
        self.on_closed: Callable[[str], None] = lambda reason: None

    # ----------------------------------------------------------- opening

    def connect(self) -> None:
        """Active open: send the SYN."""
        if self.state is not TcpState.CLOSED:
            raise TransportError(f"connect in state {self.state}")
        self.state = TcpState.SYN_SENT
        if self._tracer.audit:
            self._trace_open.emit(
                self._sim.now_ns, {"role": "active", "peer": self.remote_addr}
            )
        self._send_control(syn=True)
        self.snd_nxt = 1
        self._rexmit_timer.start_s(self.rto.rto_s)

    def accept_syn(self, segment: TcpSegment) -> None:
        """Passive open: a listener routed the peer's SYN to us."""
        if self.state is not TcpState.CLOSED:
            raise TransportError(f"accept_syn in state {self.state}")
        self.state = TcpState.SYN_RCVD
        if self._tracer.audit:
            self._trace_open.emit(
                self._sim.now_ns, {"role": "passive", "peer": self.remote_addr}
            )
        self.reassembly = ReceiveReassembly(rcv_nxt=segment.seq + 1)
        self.peer_window = segment.window
        self._send_control(syn=True)  # SYN|ACK (ack_flag always set)
        self.snd_nxt = 1
        self._rexmit_timer.start_s(self.rto.rto_s)

    # ----------------------------------------------------------- writing

    def send(self, nbytes: int) -> int:
        """Application write; returns bytes accepted into the buffer."""
        taken = self.send_buffer.write(nbytes)
        self._pump()
        return taken

    @property
    def send_space_bytes(self) -> int:
        """Free space in the send buffer."""
        return self.send_buffer.free_bytes

    def close(self) -> None:
        """No more application data; FIN goes out once drained."""
        if not self.send_buffer.closed:
            self.send_buffer.close()
            self._pump()

    # ------------------------------------------------------ segment input

    def on_segment(self, segment: TcpSegment) -> None:
        """Process one inbound segment."""
        if self.state is TcpState.CLOSED:
            return
        self._count_segment(self._trace_rx, segment)
        if self.state is TcpState.SYN_SENT:
            if segment.syn and segment.ack_flag and segment.ack >= 1:
                self.snd_una = 1
                self.reassembly = ReceiveReassembly(rcv_nxt=segment.seq + 1)
                self.peer_window = segment.window
                self.state = TcpState.ESTABLISHED
                self._rexmit_timer.cancel()
                self._retransmit_count = 0
                self._send_ack()
                self.on_established()
                self._pump()
            return
        if segment.syn:
            # Duplicate SYN (our SYN|ACK was lost): answer it again.
            if self.state is TcpState.SYN_RCVD:
                self._send_control(syn=True, consume_seq=False)
            return
        self._process_ack(segment)
        if segment.payload_bytes > 0:
            self._process_payload(segment)
        if segment.fin:
            self._process_fin(segment)
        self._pump()
        if self._tracer.audit and self.state is not TcpState.CLOSED:
            self._trace_state.emit(self._sim.now_ns, {
                "snd_una": self.snd_una, "snd_nxt": self.snd_nxt,
                "rcv_nxt": self.reassembly.rcv_nxt,
            })

    def _process_ack(self, segment: TcpSegment) -> None:
        if not segment.ack_flag:
            return
        self.peer_window = segment.window
        if segment.ack > self.snd_nxt:
            return  # acks data we never sent; ignore
        if segment.ack > self.snd_una:
            newly = segment.ack - self.snd_una
            self.snd_una = segment.ack
            self._retransmit_count = 0
            stream_acked = min(self.snd_una - 1, self.send_buffer.written_total)
            if stream_acked > 0:
                self.send_buffer.acked(stream_acked)
            if self._timing is not None and self.snd_una >= self._timing[0]:
                seq, start_ns = self._timing
                if self._sim.now_ns > start_ns:
                    self.rto.sample((self._sim.now_ns - start_ns) / 1e9)
                self._timing = None
            if self.state is TcpState.SYN_RCVD:
                self.state = TcpState.ESTABLISHED
                self.on_established()
            elif self.state in (TcpState.ESTABLISHED, TcpState.FIN_SENT):
                self.congestion.on_new_ack(newly)
            if self._fin_seq is not None and self.snd_una > self._fin_seq:
                self._shutdown("closed")
                return
            if self.snd_una < self.snd_nxt:
                self._rexmit_timer.start_s(self.rto.rto_s)
            else:
                self._rexmit_timer.cancel()
            self.on_send_space()
        elif (
            segment.ack == self.snd_una
            and self.snd_nxt > self.snd_una
            and segment.payload_bytes == 0
            and not segment.fin
        ):
            if self.congestion.on_duplicate_ack(self._flight_bytes()):
                self._fast_retransmit()

    def _process_payload(self, segment: TcpSegment) -> None:
        newly, in_order = self.reassembly.offer(segment.seq, segment.payload_bytes)
        if newly > 0:
            self.bytes_delivered += newly
            self.on_deliver(newly)
            self._try_consume_fin()
        if in_order and newly > 0:
            self._schedule_ack()
        else:
            # Out-of-order or duplicate data: ACK immediately so the
            # sender sees duplicate ACKs (fast retransmit trigger).
            self._send_ack()

    def _process_fin(self, segment: TcpSegment) -> None:
        if not self._peer_fin_seen:
            self._pending_fin_seq = segment.seq + segment.payload_bytes
            self._try_consume_fin()
        self._send_ack()

    def _try_consume_fin(self) -> None:
        """Advance rcv_nxt over the FIN once all stream data preceded it.

        The FIN's sequence slot must never enter the reassembly buffer
        early: a later gap-filling data segment would merge it into the
        delivered-byte count.
        """
        if (
            self._pending_fin_seq is not None
            and self.reassembly.rcv_nxt == self._pending_fin_seq
        ):
            self.reassembly.offer(self._pending_fin_seq, 1)
            self._pending_fin_seq = None
            self._peer_fin_seen = True
            self.on_peer_closed()

    # ------------------------------------------------------------ output

    def _flight_bytes(self) -> int:
        return self.snd_nxt - self.snd_una

    def _stream_offset(self, seq: int) -> int:
        return seq - 1

    def _pump(self) -> None:
        if self.state is not TcpState.ESTABLISHED:
            return
        while True:
            window = min(self.congestion.cwnd_bytes, self.peer_window)
            budget = window - self._flight_bytes()
            available = self.send_buffer.available_from(
                self._stream_offset(self.snd_nxt)
            )
            length = min(self.config.mss_bytes, budget, available)
            if length <= 0:
                break
            if not self._send_data(self.snd_nxt, length):
                # Local queue full: retry shortly rather than spinning.
                self._pump_timer.start_s(0.01)
                return
            if self._timing is None:
                self._timing = (self.snd_nxt + length, self._sim.now_ns)
            self.snd_nxt += length
            if not self._rexmit_timer.running:
                self._rexmit_timer.start_s(self.rto.rto_s)
        self._maybe_send_fin()

    def _maybe_send_fin(self) -> None:
        if (
            self.send_buffer.closed
            and self._fin_seq is None
            and self._stream_offset(self.snd_nxt) >= self.send_buffer.written_total
        ):
            self._fin_seq = self.snd_nxt
            self._send_control(fin=True)
            self.snd_nxt += 1
            self.state = TcpState.FIN_SENT
            self._rexmit_timer.start_s(self.rto.rto_s)

    def _send_data(self, seq: int, length: int) -> bool:
        segment = TcpSegment(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=seq,
            ack=self.reassembly.rcv_nxt,
            payload_bytes=length,
            window=self.config.rwnd_bytes,
        )
        accepted = self._transport.send_segment(segment, self.remote_addr)
        if accepted:
            self.segments_sent += 1
            self._ack_piggybacked()
            self._count_segment(self._trace_tx, segment)
        return accepted

    def _send_control(self, syn: bool = False, fin: bool = False,
                      consume_seq: bool = True) -> None:
        seq = self.snd_nxt if consume_seq else max(0, self.snd_nxt - 1)
        if syn:
            seq = 0
        segment = TcpSegment(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=seq,
            ack=self.reassembly.rcv_nxt,
            syn=syn,
            fin=fin,
            window=self.config.rwnd_bytes,
        )
        self._transport.send_segment(segment, self.remote_addr)
        self.segments_sent += 1
        self._count_segment(self._trace_tx, segment)

    def _send_ack(self) -> None:
        segment = TcpSegment(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=self.snd_nxt,
            ack=self.reassembly.rcv_nxt,
            payload_bytes=0,
            window=self.config.rwnd_bytes,
        )
        self._transport.send_segment(segment, self.remote_addr)
        self.acks_sent += 1
        self._ack_piggybacked()
        tx_ack = self._trace_tx_ack
        tx_ack.count += 1
        if tx_ack.callbacks:
            tx_ack.publish(self._sim.now_ns, {"ack": self.reassembly.rcv_nxt})

    def _ack_piggybacked(self) -> None:
        self._unacked_segments = 0
        self._delack_timer.cancel()

    def _schedule_ack(self) -> None:
        if not self.config.delayed_ack:
            self._send_ack()
            return
        self._unacked_segments += 1
        if self._unacked_segments >= 2:
            self._send_ack()
        elif not self._delack_timer.running:
            self._delack_timer.start_s(self.config.delack_timeout_s)

    # ------------------------------------------------- loss and recovery

    def _fast_retransmit(self) -> None:
        self.fast_retransmits += 1
        self._retransmit_one()
        self._timing = None
        self._rexmit_timer.start_s(self.rto.rto_s)

    def _retransmit_one(self) -> None:
        if self._fin_seq is not None and self.snd_una == self._fin_seq:
            self._send_control(fin=True, consume_seq=False)
            self.segments_retransmitted += 1
            return
        length = min(self.config.mss_bytes, self._flight_bytes())
        if self._fin_seq is not None:
            length = min(length, self._fin_seq - self.snd_una)
        if length <= 0:
            return
        if self._send_data(self.snd_una, length):
            self.segments_retransmitted += 1

    def _on_rexmit_timeout(self) -> None:
        self.timeouts += 1
        self._retransmit_count += 1
        if self.state is TcpState.SYN_SENT or self.state is TcpState.SYN_RCVD:
            if self._retransmit_count > self.config.connect_retries:
                self._shutdown("connect-timeout")
                return
            self._send_control(syn=True, consume_seq=False)
            self.rto.backoff()
            self._rexmit_timer.start_s(self.rto.rto_s)
            return
        if self._retransmit_count > self.config.max_retransmissions:
            self._shutdown("retransmission-limit")
            return
        if self._flight_bytes() <= 0:
            return
        self.congestion.on_timeout(self._flight_bytes())
        self.rto.backoff()
        self._timing = None
        self._retransmit_one()
        self._rexmit_timer.start_s(self.rto.rto_s)

    # ------------------------------------------------------------ closing

    def _shutdown(self, reason: str) -> None:
        if self.state is TcpState.CLOSED:
            return
        self.state = TcpState.CLOSED
        self._rexmit_timer.cancel()
        self._pump_timer.cancel()
        self._delack_timer.cancel()
        self._trace_closed.emit(self._sim.now_ns, {"reason": reason})
        if self._tracer.audit and reason != "closed":
            self._trace_abort.emit(self._sim.now_ns, {"reason": reason})
        self.on_closed(reason)

    def abort(self) -> None:
        """Drop the connection without a FIN exchange."""
        self._shutdown("aborted")

    # --------------------------------------------------------- utilities

    def _count_segment(self, channel: TraceChannel, segment: TcpSegment) -> None:
        """Count a segment; describe it only for a reader."""
        channel.count += 1
        if channel.callbacks:
            channel.publish(self._sim.now_ns, {"desc": segment.describe()})
