"""The DCF station state machine.

One :class:`MacStation` owns a transceiver and implements the IEEE 802.11
distributed coordination function:

* CSMA/CA: physical carrier sense (from the PHY) plus the NAV, DIFS/EIFS
  deferral and slotted binary-exponential backoff;
* the basic access scheme (DATA -> ACK) and the RTS/CTS scheme
  (RTS -> CTS -> DATA -> ACK), selected per configuration;
* retransmissions with contention-window doubling, retry limits and
  duplicate filtering at the receiver;
* post-transmission backoff, so a saturated station pays DIFS + E[CW]/2
  slots per frame exactly as Equation (1) of the paper assumes;
* the behaviours the paper's four-station experiments expose: an exposed
  receiver goes deaf while its PHY tracks a third station's frames and
  its CTS is withheld while the NAV is set (paper §3.3); the optional
  :class:`AckPolicy` knob adds energy-based suppression of ACKs for
  ablation studies.

The timing discipline follows the standard closely: backoff slots are
consumed only while the medium has stayed idle for a full IFS, a slot
interrupted mid-way does not count, EIFS replaces DIFS after an erroneous
reception, and a NAV set by an overheard RTS is reset if the protected
exchange never materialises (the NAV-reset rule of 802.11 §9.2.5.4).
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.airtime import shared_calculator
from repro.core.params import Dot11bConfig, Rate
from repro.errors import ConfigurationError, MacError
from repro.mac.backoff import Backoff, ContentionWindow
from repro.mac.frames import (
    BROADCAST,
    AckFrame,
    CtsFrame,
    DataFrame,
    RtsFrame,
)
from repro.mac.nav import Nav
from repro.mac.ratecontrol import FixedRate, RateController
from repro.phy.plans import control_frame_plan, data_frame_plan
from repro.phy.reception import ReceptionOutcome
from repro.phy.transceiver import PhyListener, PhyState, Transceiver
from repro.sim.engine import Simulator
from repro.sim.timers import Timer
from repro.sim.tracing import Tracer, take_channel
from repro.units import us_to_ns

ReceiveCallback = Callable[[Any, int], None]
SentCallback = Callable[[Any, int, bool], None]


class AckPolicy(enum.Enum):
    """When a receiver answers a data frame with a MAC ACK.

    ``ALWAYS`` is the letter of the standard (and the default): the ACK
    goes out a SIFS after the data regardless of carrier state, aborting
    any reception in progress.  With it, the exposed receiver S2 of the
    Figure-6/7 experiments is starved by *deafness* — its PHY is locked
    on S3's frames when S1 transmits — which reproduces the paper's
    measured asymmetry.  ``DEFER_IF_BUSY`` additionally suppresses the
    ACK when the PHY senses energy at the SIFS boundary; it is kept as
    an ablation (it roughly doubles the measured asymmetry).
    """

    ALWAYS = "always"
    DEFER_IF_BUSY = "defer-if-busy"


#: Per-station MAC queue depth, in frames, when nothing overrides it.
DEFAULT_QUEUE_FRAMES = 200


@dataclass(frozen=True)
class MacConfig:
    """Per-station MAC configuration."""

    address: int
    data_rate: Rate
    dot11: Dot11bConfig = field(default_factory=Dot11bConfig)
    rts_enabled: bool = False
    ack_policy: AckPolicy = AckPolicy.ALWAYS
    max_queue_frames: int = DEFAULT_QUEUE_FRAMES
    #: MSDUs larger than this are split into fragments transmitted as a
    #: SIFS-spaced burst, each individually acknowledged, with the NAV
    #: chained fragment to fragment.  ``None`` disables fragmentation.
    fragmentation_threshold_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.address == BROADCAST:
            raise ConfigurationError("a station cannot use the broadcast address")
        if self.max_queue_frames < 1:
            raise ConfigurationError("queue must hold at least one frame")
        if (
            self.fragmentation_threshold_bytes is not None
            and self.fragmentation_threshold_bytes < 64
        ):
            raise ConfigurationError(
                "fragmentation threshold must be >= 64 bytes"
            )


@dataclass
class MacCounters:
    """Per-station MIB-style counters."""

    data_tx: int = 0
    flushed_frames: int = 0
    rts_tx: int = 0
    cts_tx: int = 0
    ack_tx: int = 0
    tx_success: int = 0
    tx_drops: int = 0
    queue_drops: int = 0
    retries: int = 0
    ack_timeouts: int = 0
    cts_timeouts: int = 0
    rx_data: int = 0
    rx_duplicates: int = 0
    rx_errors: int = 0
    fragments_tx: int = 0
    acks_suppressed: int = 0
    cts_suppressed_nav: int = 0
    nav_resets: int = 0


class _TxWork:
    """The head-of-line MSDU and its attempt state."""

    __slots__ = (
        "msdu",
        "dst",
        "msdu_bytes",
        "seq",
        "retries",
        "use_rts",
        "fragment_sizes",
        "frag_index",
    )

    def __init__(
        self,
        msdu: Any,
        dst: int,
        msdu_bytes: int,
        seq: int,
        use_rts: bool,
        fragment_sizes: list[int] | None = None,
    ):
        self.msdu = msdu
        self.dst = dst
        self.msdu_bytes = msdu_bytes
        self.seq = seq
        self.retries = 0
        self.use_rts = use_rts
        self.fragment_sizes = (
            fragment_sizes if fragment_sizes else [msdu_bytes]
        )
        self.frag_index = 0

    @property
    def current_fragment_bytes(self) -> int:
        """Size of the fragment currently being transmitted."""
        return self.fragment_sizes[self.frag_index]

    @property
    def on_last_fragment(self) -> bool:
        """True when the current fragment completes the MSDU."""
        return self.frag_index == len(self.fragment_sizes) - 1

    def advance_fragment(self) -> None:
        """Move to the next fragment after a successful ACK."""
        self.frag_index += 1
        self.retries = 0


def split_msdu(msdu_bytes: int, threshold_bytes: int) -> list[int]:
    """Fragment sizes for an MSDU under a fragmentation threshold."""
    if msdu_bytes <= threshold_bytes:
        return [msdu_bytes]
    full, remainder = divmod(msdu_bytes, threshold_bytes)
    sizes = [threshold_bytes] * full
    if remainder:
        sizes.append(remainder)
    return sizes


class MacStation(PhyListener):
    """A DCF MAC entity bound to one transceiver."""

    def __init__(
        self,
        sim: Simulator,
        phy: Transceiver,
        config: MacConfig,
        rng: random.Random | None = None,
        tracer: Tracer | None = None,
        rate_controller: RateController | None = None,
    ):
        self._sim = sim
        self._phy = phy
        self._config = config
        self._rate_controller = (
            rate_controller
            if rate_controller is not None
            else FixedRate(config.data_rate)
        )
        self._airtime = shared_calculator(config.dot11)
        self._mac = config.dot11.mac
        self._rng = rng if rng is not None else random.Random(config.address)
        self._tracer = tracer if tracer is not None else Tracer()
        self._category = f"mac.{config.address}"
        # Trace channels, each taken on first use (take_channel).
        self._trace_tx_data = self._trace_tx_rts = self._trace_timeout = None
        self._trace_tx_ack = self._trace_tx_cts = self._trace_nav_set = None
        self._trace_nav_reset = self._trace_cts_suppressed = None
        self._trace_ack_suppressed = None
        # Audit channels.
        self._trace_nav = self._trace_sdu_enqueue = self._trace_sdu_tx_ok = None
        self._trace_sdu_drop = None
        phy.set_listener(self)

        # Precomputed timing, in ns.
        self._slot_ns = us_to_ns(self._mac.slot_time_us)
        self._sifs_ns = us_to_ns(self._mac.sifs_us)
        self._difs_ns = us_to_ns(self._mac.difs_us)
        self._eifs_ns = us_to_ns(self._mac.eifs_us(config.dot11.plcp))
        plcp_ns = us_to_ns(config.dot11.plcp.duration_us)
        self._await_timeout_ns = self._sifs_ns + plcp_ns + 2 * self._slot_ns

        # Per-station frame constants.  Keep each expression's operand
        # order: the duration fields and NAVs built from them must equal
        # the airtime calculator's expressions bit for bit.
        self._ack_us = self._airtime.ack_us()
        self._cts_us = self._airtime.cts_us()
        #: Duration field of a last (or only) fragment: SIFS + ACK.
        self._last_fragment_nav_us = self._mac.sifs_us + self._ack_us
        #: RTS duration field up to the data frame: 3 SIFS + CTS.
        self._rts_nav_head_us = 3 * self._mac.sifs_us + self._cts_us
        #: How long an RTS-set NAV waits for the protected exchange.
        self._nav_reset_grace_ns = (
            2 * self._sifs_ns + us_to_ns(self._cts_us) + 2 * self._slot_ns
        )
        self._ack_plan = control_frame_plan("ack", self._mac.ack_bits, self._airtime)
        self._cts_plan = control_frame_plan("cts", self._mac.cts_bits, self._airtime)
        self._rts_plan = control_frame_plan("rts", self._mac.rts_bits, self._airtime)

        # Contention state.
        self._down = False
        self._queue: deque[tuple[Any, int, int]] = deque()
        self._work: _TxWork | None = None
        self._cw = ContentionWindow(self._mac)
        self._backoff = Backoff(self._mac)
        self._post_backoff_pending = False
        self._idle_since_ns: int | None = 0 if not phy.cs_busy else None
        self._needs_eifs = False
        self._access_timer = Timer(sim, self._on_access_timer, name="access")

        # Exchange state.
        self._tx_context: str | None = None
        self._awaiting: str | None = None
        self._await_grace = False
        self._await_timer = Timer(sim, self._on_await_timeout, name="await")
        self._pending_response: tuple[str, Any] | None = None
        self._response_timer = Timer(sim, self._fire_response, name="response")

        # Virtual carrier sense.
        self._nav = Nav(sim, self._on_nav_change)
        self._nav_reset_timer = Timer(sim, self._on_nav_reset, name="nav-reset")

        # Receiver state.
        self._dup_cache: dict[int, tuple[int, int]] = {}
        self._frag_progress: dict[int, tuple[int, int]] = {}
        self._seq_counter = 0

        self.counters = MacCounters()
        self._receive_callback: ReceiveCallback = lambda msdu, src: None
        self._sent_callback: SentCallback = lambda msdu, dst, ok: None

    # ------------------------------------------------------------ wiring

    @property
    def address(self) -> int:
        """This station's MAC address."""
        return self._config.address

    @property
    def config(self) -> MacConfig:
        """The configuration in force."""
        return self._config

    @property
    def sim(self) -> Simulator:
        """The simulator this station schedules on."""
        return self._sim

    @property
    def tracer(self) -> Tracer:
        """The tracer this station publishes to (shared by the stack)."""
        return self._tracer

    @property
    def queue_length(self) -> int:
        """Frames waiting behind the head-of-line frame."""
        return len(self._queue)

    @property
    def queue_full(self) -> bool:
        """True while :meth:`enqueue` would tail-drop a new MSDU."""
        return len(self._queue) >= self._config.max_queue_frames

    @property
    def busy(self) -> bool:
        """True while an MSDU is queued or being transmitted."""
        return self._work is not None or bool(self._queue)

    @property
    def down(self) -> bool:
        """True between :meth:`shutdown` and :meth:`restart`."""
        return self._down

    def set_receive_callback(self, callback: ReceiveCallback) -> None:
        """``callback(msdu, src_address)`` on every delivered MSDU."""
        self._receive_callback = callback

    def set_sent_callback(self, callback: SentCallback) -> None:
        """``callback(msdu, dst, success)`` when an MSDU leaves the MAC."""
        self._sent_callback = callback

    # ------------------------------------------------------------- queue

    def enqueue(self, msdu: Any, dst: int, msdu_bytes: int) -> bool:
        """Hand an MSDU to the MAC.  Returns False on queue overflow."""
        if msdu_bytes <= 0:
            raise ConfigurationError(f"MSDU must be > 0 bytes, got {msdu_bytes}")
        if self._down:
            self.counters.queue_drops += 1
            if self._tracer.audit:
                self._audit_sdu("sdu_drop", msdu, dst, "fault-crash")
            return False
        if self.queue_full:
            self.counters.queue_drops += 1
            if self._tracer.audit:
                self._audit_sdu("sdu_drop", msdu, dst, "queue-overflow")
            return False
        self._queue.append((msdu, dst, msdu_bytes))
        if self._tracer.audit:
            self._audit_sdu("sdu_enqueue", msdu, dst)
        self._ensure_access_pending()
        return True

    # ------------------------------------------- lifecycle (fault injection)

    def _timers(self) -> tuple[Timer, ...]:
        return (
            self._access_timer,
            self._await_timer,
            self._response_timer,
            self._nav_reset_timer,
        )

    def shutdown(self) -> None:
        """Crash the MAC: flush the queue, cancel every pending timer.

        Models a power failure, so nothing is signalled to upper layers —
        queued MSDUs simply vanish (counted in ``flushed_frames``).  The
        station's transceiver must be powered off by the caller first;
        :meth:`repro.net.node.Node.crash` does both in order.
        """
        if self._down:
            return
        self._down = True
        self.counters.flushed_frames += len(self._queue)
        if self._work is not None:
            self.counters.flushed_frames += 1
        if self._tracer.audit:
            for msdu, dst, _bytes in self._queue:
                self._audit_sdu("sdu_drop", msdu, dst, "fault-crash")
            if self._work is not None:
                self._audit_sdu("sdu_drop", self._work.msdu, self._work.dst, "fault-crash")
        self._queue.clear()
        self._work = None
        for timer in self._timers():
            timer.cancel()
        self._nav.reset()
        self._tx_context = None
        self._awaiting = None
        self._await_grace = False
        self._pending_response = None
        self._post_backoff_pending = False
        self._backoff = Backoff(self._mac)
        self._cw.reset()
        self._needs_eifs = False
        self._idle_since_ns = None
        self._tracer.emit(self._sim.now_ns, self._category, "shutdown")

    def restart(self) -> None:
        """Reboot after :meth:`shutdown` with factory-fresh receiver state."""
        if not self._down:
            return
        self._down = False
        self._dup_cache.clear()
        self._frag_progress.clear()
        self._seq_counter = 0
        self._idle_since_ns = self._sim.now_ns if not self._medium_busy() else None
        self._tracer.emit(self._sim.now_ns, self._category, "restart")

    def set_clock_jitter(self, jitter: Callable[[int], int] | None) -> None:
        """Perturb every MAC timer's delay (clock-skew fault injection)."""
        for timer in self._timers():
            timer.set_jitter(jitter)

    # --------------------------------------------------- medium tracking

    def _medium_busy(self) -> bool:
        return self._phy.cs_busy or self._nav.busy

    def _on_medium_state_change(self) -> None:
        if self._down:
            return
        now = self._sim.now_ns
        # :meth:`_medium_busy` with one clock read.
        if self._phy.cs_busy or self._nav.until_ns > now:
            if self._idle_since_ns is not None:
                self._idle_since_ns = None
                self._backoff.countdown_stopped(now)
                self._access_timer.cancel()
        elif self._idle_since_ns is None:
            self._idle_since_ns = now
            self._maybe_start_countdown()

    def on_cs_busy(self) -> None:
        self._on_medium_state_change()

    def on_cs_idle(self) -> None:
        self._on_medium_state_change()

    def _on_nav_change(self) -> None:
        self._on_medium_state_change()

    # ------------------------------------------------- channel access

    def _ensure_access_pending(self) -> None:
        """Make sure the contention machinery will eventually fire."""
        if self._down:
            return
        if self._tx_context or self._pending_response or self._awaiting:
            return
        if self._work is None and not self._backoff.pending:
            if not self._queue:
                return
            self._load_next_work()
        if self._work is None and not (
            self._backoff.pending or self._post_backoff_pending
        ):
            return
        if self._idle_since_ns is not None:
            self._maybe_start_countdown()
        elif self._work is not None and not self._backoff.pending:
            # Arrival on a busy medium: draw the backoff now.
            self._backoff.begin(self._cw.draw(self._rng))

    def _load_next_work(self) -> None:
        msdu, dst, msdu_bytes = self._queue.popleft()
        use_rts = self._config.rts_enabled and dst != BROADCAST
        fragment_sizes = None
        threshold = self._config.fragmentation_threshold_bytes
        if threshold is not None and dst != BROADCAST:
            fragment_sizes = split_msdu(msdu_bytes, threshold)
        self._work = _TxWork(
            msdu, dst, msdu_bytes, self._seq_counter, use_rts, fragment_sizes
        )
        self._seq_counter = (self._seq_counter + 1) % 4096

    def _maybe_start_countdown(self) -> None:
        idle_since_ns = self._idle_since_ns
        if idle_since_ns is None or self._access_timer.running:
            return
        if self._tx_context or self._pending_response or self._awaiting:
            return
        now = self._sim.now_ns
        ifs_end_ns = idle_since_ns + (
            self._eifs_ns if self._needs_eifs else self._difs_ns
        )
        if self._backoff.pending:
            fire_at = ifs_end_ns + self._backoff.remaining_slots * self._slot_ns
            self._backoff.countdown_started(ifs_end_ns)
            self._access_timer.start(max(0, fire_at - now))
        elif self._work is not None or self._post_backoff_pending:
            # Immediate access: the medium only needs to stay idle for
            # one full IFS.
            self._access_timer.start(max(0, ifs_end_ns - now))

    def _on_access_timer(self) -> None:
        if self._backoff.pending:
            self._backoff.finish()
        self._grant_access()

    def _grant_access(self) -> None:
        if self._tx_context or self._pending_response or self._awaiting:
            raise MacError(f"mac {self.address}: access granted mid-exchange")
        self._post_backoff_pending = False
        if self._work is None:
            if self._queue:
                self._load_next_work()
            else:
                return
        if self._work.use_rts:
            self._transmit_rts()
        else:
            self._transmit_data()

    # ------------------------------------------------------ transmitting

    def _transmit_data(self) -> None:
        work = self._work
        dst = work.dst
        frag_index = work.frag_index
        sizes = work.fragment_sizes
        fragment_bytes = sizes[frag_index]
        more = frag_index != len(sizes) - 1
        if dst == BROADCAST:
            # Broadcast frames must use a basic-set rate (paper §2).
            rate = self._config.dot11.control_rate_for(self._config.data_rate)
            duration_us = 0.0
        else:
            rate = self._rate_controller.data_rate(dst)
            if more:
                # NAV chaining: reserve up to the end of the *next*
                # fragment's ACK (SIFS + ACK + SIFS + frag + SIFS + ACK).
                duration_us = (
                    3 * self._mac.sifs_us
                    + 2 * self._ack_us
                    + self._airtime.data_frame_us(sizes[frag_index + 1], rate)
                )
            else:
                duration_us = self._last_fragment_nav_us
        frame = DataFrame(
            src=self.address,
            dst=dst,
            duration_us=duration_us,
            seq=work.seq,
            # The reassembled payload object rides on the last fragment.
            msdu=work.msdu if not more else None,
            msdu_bytes=fragment_bytes,
            retry=work.retries > 0,
            frag=frag_index,
            more_fragments=more,
        )
        plan = data_frame_plan(fragment_bytes, rate, self._airtime)
        self._tx_context = "data"
        self.counters.data_tx += 1
        tx_data = self._trace_tx_data or take_channel(self, "tx_data")
        tx_data.count += 1
        if tx_data.callbacks:
            tx_data.publish(self._sim.now_ns, {
                "dst": dst, "seq": work.seq, "frag": frag_index,
                "retry": work.retries, "rate": rate.mbps,
            })
        self._phy.transmit(plan, frame)

    def _transmit_rts(self) -> None:
        work = self._work
        rate = self._rate_controller.data_rate(work.dst)
        duration_us = (
            self._rts_nav_head_us
            + self._airtime.data_frame_us(work.current_fragment_bytes, rate)
            + self._ack_us
        )
        frame = RtsFrame(
            src=self.address,
            dst=work.dst,
            duration_us=duration_us,
            msdu_bytes=work.msdu_bytes,
        )
        self._tx_context = "rts"
        self.counters.rts_tx += 1
        tx_rts = self._trace_tx_rts or take_channel(self, "tx_rts")
        tx_rts.count += 1
        if tx_rts.callbacks:
            tx_rts.publish(self._sim.now_ns, {"dst": work.dst})
        self._phy.transmit(self._rts_plan, frame)

    def on_tx_end(self) -> None:
        context = self._tx_context
        self._tx_context = None
        if context == "data":
            if self._work is not None and self._work.dst == BROADCAST:
                self._exchange_succeeded()
            else:
                self._awaiting = "ack"
                self._await_timer.start(self._await_timeout_ns)
        elif context == "rts":
            self._awaiting = "cts"
            self._await_timer.start(self._await_timeout_ns)
        else:
            # ACK or CTS response finished; resume our own contention.
            self._ensure_access_pending()

    # ------------------------------------------------- timeouts, retries

    def _on_await_timeout(self) -> None:
        if self._phy.state is PhyState.RX:
            # A frame is inbound; let its end decide (grace period).
            self._await_grace = True
            return
        self._await_failed()

    def _await_failed(self) -> None:
        kind = self._awaiting
        self._awaiting = None
        self._await_grace = False
        self._await_timer.cancel()
        if kind == "ack":
            self.counters.ack_timeouts += 1
        else:
            self.counters.cts_timeouts += 1
        work = self._work
        work.retries += 1
        self.counters.retries += 1
        self._rate_controller.on_failure(work.dst)
        limit = (
            self._mac.long_retry_limit
            if work.use_rts
            else self._mac.short_retry_limit
        )
        timeout = self._trace_timeout or take_channel(self, "timeout")
        timeout.count += 1
        if timeout.callbacks:
            timeout.publish(self._sim.now_ns, {"kind": kind, "retries": work.retries})
        if work.retries > limit:
            self.counters.tx_drops += 1
            self._cw.reset()
            if self._tracer.audit:
                self._audit_sdu("sdu_drop", work.msdu, work.dst, "retry-limit")
            self._sent_callback(work.msdu, work.dst, False)
            self._complete_exchange()
        else:
            self._cw.double()
            self._backoff.begin(self._cw.draw(self._rng))
            # The idle time spent waiting for the missing response does
            # not count towards the next IFS.
            if self._idle_since_ns is not None:
                self._idle_since_ns = self._sim.now_ns
            self._maybe_start_countdown()

    def _exchange_succeeded(self) -> None:
        work = self._work
        if work.dst != BROADCAST:
            self._rate_controller.on_success(work.dst)
        self._awaiting = None
        self._await_grace = False
        self._await_timer.cancel()
        self._cw.reset()
        if not work.on_last_fragment:
            # Mid-burst: the next fragment follows a SIFS after the ACK
            # (it owns the medium through the NAV chain).
            work.advance_fragment()
            self.counters.fragments_tx += 1
            self._schedule_response("data", None)
            return
        self.counters.tx_success += 1
        if self._tracer.audit:
            self._audit_sdu("sdu_tx_ok", work.msdu, work.dst)
        self._sent_callback(work.msdu, work.dst, True)
        self._complete_exchange()

    def _complete_exchange(self) -> None:
        self._work = None
        # Post-transmission backoff: mandatory even with an empty queue.
        self._backoff.begin(self._cw.draw(self._rng))
        self._post_backoff_pending = True
        if self._idle_since_ns is not None:
            self._idle_since_ns = self._sim.now_ns
        self._maybe_start_countdown()

    # --------------------------------------------------------- reception

    def on_rx_start(self) -> None:
        # PHY-RXSTART cancels a provisional RTS NAV reset (§9.2.5.4).
        self._nav_reset_timer.cancel()

    def on_rx_end(self, mac_frame: Any | None, outcome: ReceptionOutcome) -> None:
        if mac_frame is None:
            if outcome is not ReceptionOutcome.ABORTED:
                self._needs_eifs = True
                self.counters.rx_errors += 1
            if self._await_grace:
                self._await_grace = False
                self._await_failed()
            return
        self._needs_eifs = False
        if isinstance(mac_frame, DataFrame):
            self._handle_data(mac_frame)
        elif isinstance(mac_frame, RtsFrame):
            self._handle_rts(mac_frame)
        elif isinstance(mac_frame, CtsFrame):
            self._handle_cts(mac_frame)
        elif isinstance(mac_frame, AckFrame):
            self._handle_ack(mac_frame)
        if self._await_grace:
            # The inbound frame was not the response we hoped for.
            self._await_grace = False
            if self._awaiting is not None:
                self._await_failed()

    def _handle_data(self, frame: DataFrame) -> None:
        if frame.dst == BROADCAST:
            self.counters.rx_data += 1
            self._receive_callback(frame.msdu, frame.src)
            return
        if frame.dst != self.address:
            self._update_nav(frame.duration_us)
            return
        if self._dup_cache.get(frame.src) == (frame.seq, frame.frag):
            self.counters.rx_duplicates += 1
        else:
            self._dup_cache[frame.src] = (frame.seq, frame.frag)
            self._accept_fragment(frame)
        self._schedule_response("ack", frame)

    def _accept_fragment(self, frame: DataFrame) -> None:
        """Reassembly: deliver the MSDU once its last fragment lands.

        Fragments arrive in order on a given link (each is individually
        acknowledged before the next is sent), so progress tracking per
        transmitter suffices.
        """
        if frame.more_fragments:
            previous = self._frag_progress.get(frame.src)
            in_sequence = frame.frag == 0 or previous == (
                frame.seq,
                frame.frag - 1,
            )
            if in_sequence:
                self._frag_progress[frame.src] = (frame.seq, frame.frag)
            else:
                self._frag_progress.pop(frame.src, None)
            return
        complete = frame.frag == 0 or self._frag_progress.get(frame.src) == (
            frame.seq,
            frame.frag - 1,
        )
        self._frag_progress.pop(frame.src, None)
        if complete:
            self.counters.rx_data += 1
            self._receive_callback(frame.msdu, frame.src)

    def _handle_rts(self, frame: RtsFrame) -> None:
        if frame.dst != self.address:
            if self._update_nav(frame.duration_us):
                self._nav_reset_timer.start(self._nav_reset_grace_ns)
            return
        if self._nav.busy:
            self.counters.cts_suppressed_nav += 1
            cts_suppressed = self._trace_cts_suppressed or take_channel(self, "cts_suppressed")
            cts_suppressed.emit(self._sim.now_ns, {"reason": "nav"})
            return
        self._schedule_response("cts", frame)

    def _handle_cts(self, frame: CtsFrame) -> None:
        if frame.dst != self.address:
            self._update_nav(frame.duration_us)
            return
        if self._awaiting == "cts":
            self._awaiting = None
            self._await_grace = False
            self._await_timer.cancel()
            self._schedule_response("data", frame)

    def _handle_ack(self, frame: AckFrame) -> None:
        if frame.dst != self.address:
            self._update_nav(frame.duration_us)
            return
        if self._awaiting == "ack":
            self._exchange_succeeded()

    def _update_nav(self, duration_us: float) -> bool:
        if duration_us <= 0:
            return False
        now = self._sim.now_ns
        moved = self._nav.update(now + us_to_ns(duration_us))
        if moved:
            nav_set = self._trace_nav_set or take_channel(self, "nav_set")
            nav_set.count += 1
            if nav_set.callbacks:
                nav_set.publish(now, {"until_us": round(self._nav.until_ns / 1000)})
            if self._tracer.audit:
                nav = self._trace_nav or take_channel(self, "nav")
                nav.emit(now, {"until_ns": self._nav.until_ns})
            self._on_medium_state_change()
        return moved

    def _on_nav_reset(self) -> None:
        self.counters.nav_resets += 1
        (self._trace_nav_reset or take_channel(self, "nav_reset")).emit(self._sim.now_ns, {})
        self._nav.reset()

    # --------------------------------------------------------- responses

    def _schedule_response(self, kind: str, frame: Any) -> None:
        if self._pending_response is not None:
            # A second response obligation before the first fired; keep
            # the earlier one (it is at most SIFS away).
            return
        self._pending_response = (kind, frame)
        # Our own contention pauses for the response exchange.  The
        # frame that obliged us to respond may have been too weak to
        # trip the energy-detect threshold, in which case the access
        # timer is still armed and must not fire mid-exchange.
        self._access_timer.cancel()
        self._backoff.countdown_stopped(self._sim.now_ns)
        self._response_timer.start(self._sifs_ns)

    def _fire_response(self) -> None:
        kind, frame = self._pending_response
        self._pending_response = None
        if kind == "ack":
            self._respond_ack(frame)
        elif kind == "cts":
            self._respond_cts(frame)
        elif kind == "data":
            self._respond_data()
        if self._tx_context is None:
            # The response was suppressed; our contention may resume.
            self._ensure_access_pending()

    def _respond_ack(self, data_frame: DataFrame) -> None:
        if (
            self._config.ack_policy is AckPolicy.DEFER_IF_BUSY
            and self._phy.cs_busy
        ):
            self.counters.acks_suppressed += 1
            ack_suppressed = self._trace_ack_suppressed or take_channel(self, "ack_suppressed")
            ack_suppressed.emit(self._sim.now_ns, {"dst": data_frame.src})
            return
        ack = AckFrame(src=self.address, dst=data_frame.src, duration_us=0.0)
        self._tx_context = "ack"
        self.counters.ack_tx += 1
        tx_ack = self._trace_tx_ack or take_channel(self, "tx_ack")
        tx_ack.count += 1
        if tx_ack.callbacks:
            tx_ack.publish(self._sim.now_ns, {"dst": data_frame.src})
        self._phy.transmit(self._ack_plan, ack)

    def _respond_cts(self, rts: RtsFrame) -> None:
        # The standard gates the CTS on the NAV alone: half-duplex
        # reception already keeps a station from answering an RTS that
        # arrived during another frame.
        if self._nav.busy:
            self.counters.cts_suppressed_nav += 1
            cts_suppressed = self._trace_cts_suppressed or take_channel(self, "cts_suppressed")
            cts_suppressed.emit(self._sim.now_ns, {"reason": "nav-late"})
            return
        duration_us = max(0.0, rts.duration_us - self._mac.sifs_us - self._cts_us)
        cts = CtsFrame(src=self.address, dst=rts.src, duration_us=duration_us)
        self._tx_context = "cts"
        self.counters.cts_tx += 1
        tx_cts = self._trace_tx_cts or take_channel(self, "tx_cts")
        tx_cts.count += 1
        if tx_cts.callbacks:
            tx_cts.publish(self._sim.now_ns, {"dst": rts.src})
        self._phy.transmit(self._cts_plan, cts)

    def _respond_data(self) -> None:
        if self._work is None:
            raise MacError(f"mac {self.address}: CTS received with no data pending")
        self._transmit_data()

    # --------------------------------------------------------- utilities

    def _audit_sdu(self, event: str, msdu: Any, dst: int, reason: str | None = None) -> None:
        """Audit an SDU lifecycle event (callers gate on tracer.audit)."""
        sdu = getattr(msdu, "sdu_id", -1)
        if sdu < 0:
            return
        channel = getattr(self, f"_trace_{event}") or take_channel(self, event)
        channel.count += 1
        if channel.callbacks:
            fields = {"sdu": sdu, "origin": msdu.src, "dst": dst}
            if reason is not None:
                fields["reason"] = reason
            channel.publish(self._sim.now_ns, fields)
