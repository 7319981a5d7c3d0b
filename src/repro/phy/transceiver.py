"""The half-duplex PHY state machine.

The transceiver sits between the MAC and the medium.  It tracks every
signal currently audible, maintains the physical carrier-sense state
(energy above threshold, or locked on a frame, or transmitting), locks on
preambles, records interference during receptions and hands completed
frames — or reception errors — to its listener (the MAC).

Carrier sensing deliberately includes the "locked on a PLCP" condition:
a station can follow a frame whose *energy* alone would not trip the
energy-detect threshold, which is one of the couplings the paper observes
beyond the transmission range.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from math import log10
from typing import Any

from repro.channel.medium import Medium, Signal
from repro.channel.shadowing import Position
from repro.errors import MacError
from repro.phy.plans import TransmissionPlan
from repro.phy.radio import RadioParameters
from repro.phy.reception import (
    ReceptionContext,
    ReceptionModel,
    ReceptionOutcome,
    SinrThresholdReception,
)
from repro.sim.engine import Simulator
from repro.sim.tracing import Tracer, take_channel
from repro.units import dbm_to_mw


class PhyState(Enum):
    """Transceiver macro-state."""

    IDLE = "idle"
    RX = "rx"
    TX = "tx"


# Module-level aliases: the per-signal paths compare states by identity
# without an attribute lookup on the enum class.
_IDLE = PhyState.IDLE
_RX = PhyState.RX
_TX = PhyState.TX


@dataclass(frozen=True)
class PhyFrame:
    """What actually rides on a medium signal: MAC frame + field plan."""

    mac_frame: Any
    plan: TransmissionPlan


class PhyListener:
    """MAC-side callbacks; subclass and override what you need."""

    def on_cs_busy(self) -> None:
        """Physical carrier sense went busy."""

    def on_cs_idle(self) -> None:
        """Physical carrier sense went idle."""

    def on_rx_start(self) -> None:
        """The PHY locked onto a preamble."""

    def on_rx_end(self, mac_frame: Any | None, outcome: ReceptionOutcome) -> None:
        """A locked frame ended; ``mac_frame`` is None unless decoded."""

    def on_tx_end(self) -> None:
        """Our own transmission completed."""


class Transceiver:
    """One station's radio."""

    # A property, not an attribute: CPython 3.11 stores up to 29 names
    # inline, and past that every attribute read of this hottest class
    # goes through a dict.  The radio's own 22 and its 7 channels fill it.
    _category = property(lambda phy: f"phy.{phy.name}")

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        radio: RadioParameters,
        name: str = "phy",
        position_m: Position = (0.0, 0.0),
        reception: ReceptionModel | None = None,
        rng: random.Random | None = None,
        tracer: Tracer | None = None,
    ):
        self._sim = sim
        self._medium = medium
        self._radio = radio
        self.name = name
        self._position_m = position_m
        self._reception = reception if reception is not None else SinrThresholdReception()
        self._rng = rng if rng is not None else random.Random(0)
        self._tracer = tracer if tracer is not None else Tracer()
        # Trace channels, each taken on first use (take_channel).  Fault
        # events (power_off, power_on) go through Tracer.emit.
        self._trace_tx_start = self._trace_tx_end = None
        self._trace_rx_lock = self._trace_rx_end = self._trace_rx_abort = None
        self._trace_capture = self._trace_sdu_rx_fail = None
        self._listener = PhyListener()
        self._state = _IDLE
        self._signals: dict[int, float] = {}  # signal_id -> rx power, mW
        self._locked_signal: Signal | None = None
        self._locked_power_dbm = 0.0
        self._locked_start_ns = 0
        self._interference_log: list[tuple[int, float]] = []
        self._cs_busy = False
        self._powered = True
        self._noise_rise_db = 0.0
        self._noise_mw = dbm_to_mw(radio.noise_floor_dbm)
        self._cs_threshold_mw = dbm_to_mw(radio.cs_threshold_dbm)
        # Pending own-transmission-complete event, in slot form (seq 0 =
        # no transmission in flight).
        self._tx_slot = -1
        self._tx_seq = 0
        medium.attach(self)

    # ------------------------------------------------------------- wiring

    def set_listener(self, listener: PhyListener) -> None:
        """Attach the MAC (or a test probe)."""
        self._listener = listener

    @property
    def radio(self) -> RadioParameters:
        """The radio parameters in force."""
        return self._radio

    @property
    def position_m(self) -> Position:
        """Current station position (metres)."""
        return self._position_m

    @position_m.setter
    def position_m(self, position: Position) -> None:
        self._position_m = position
        # The medium evicts stale pair-cache rows and re-buckets the
        # spatial index; tolerates devices not yet attached (this setter
        # does not fire during __init__, but external movers may assign
        # before attach in exotic wiring).
        self._medium.notify_moved(self)

    @property
    def state(self) -> PhyState:
        """Current macro-state."""
        return self._state

    @property
    def cs_busy(self) -> bool:
        """Physical carrier sense: energy detect or own transmission.

        Deliberately energy-based (CCA mode 1): a weak frame beyond the
        energy-detect range can still be *received* (the PLCP travels at
        1 Mbps) without making the medium look busy, matching the
        measured behaviour the calibration targets (DESIGN.md §2).
        """
        return self._cs_busy

    @property
    def total_power_mw(self) -> float:
        """Summed received power of all audible signals."""
        return sum(self._signals.values())

    @property
    def powered(self) -> bool:
        """False while the radio is crashed/powered down."""
        return self._powered

    @property
    def noise_rise_db(self) -> float:
        """Current noise-floor elevation (fault injection)."""
        return self._noise_rise_db

    def set_noise_rise_db(self, rise_db: float) -> None:
        """Elevate (or restore, with 0) the effective noise floor.

        Models wide-band interference — microwave ovens, co-channel
        bursts — that degrades SINR at this receiver without being a
        decodable or carrier-sensable signal.
        """
        self._noise_rise_db = rise_db
        self._noise_mw = dbm_to_mw(self._radio.noise_floor_dbm + rise_db)

    def power_off(self) -> None:
        """Crash the radio: stop hearing the medium, abandon TX/RX.

        No listener callbacks fire — the caller is expected to reset the
        MAC as part of the same crash (see :meth:`repro.net.node.Node.crash`).
        A transmission already on the air keeps propagating to receivers
        (the energy has left the antenna); only its local completion
        callback is dropped.
        """
        if not self._powered:
            return
        self._powered = False
        if self._tx_seq != 0:
            self._sim.cancel_slot(self._tx_slot, self._tx_seq)
            self._tx_seq = 0
        self._locked_signal = None
        self._interference_log = []
        self._signals.clear()
        self._state = _IDLE
        self._cs_busy = False
        self._tracer.emit(self._sim.now_ns, self._category, "power_off")

    def power_on(self) -> None:
        """Reboot the radio.  Signals already in flight stay unheard."""
        if self._powered:
            return
        self._powered = True
        self._tracer.emit(self._sim.now_ns, self._category, "power_on")
        self._update_cs()

    # --------------------------------------------------------------- MAC

    def transmit(self, plan: TransmissionPlan, mac_frame: Any) -> int:
        """Put a frame on the air; returns its duration in ns.

        Transmitting while already transmitting is a MAC bug.  A
        transmission that starts while a reception is in progress aborts
        the reception (half-duplex radio).
        """
        if not self._powered:
            raise MacError(f"{self.name}: transmit while powered off")
        state = self._state
        if state is _TX:
            raise MacError(f"{self.name}: transmit while already transmitting")
        if state is _RX:
            self._abort_reception()
        self._state = _TX
        signal = self._medium.transmit(
            self, PhyFrame(mac_frame, plan), plan.duration_ns, self._radio.tx_power_dbm
        )
        tx_start = self._trace_tx_start or take_channel(self, "tx_start")
        tx_start.count += 1
        if tx_start.callbacks:
            tx_start.publish(
                self._sim.now_ns,
                {"frame": type(mac_frame).__name__, "dur_ns": signal.duration_ns},
            )
        self._tx_slot, self._tx_seq = self._sim.schedule_slot(
            plan.duration_ns, self._finish_tx
        )
        # Transmitting always senses busy.
        if not self._cs_busy:
            self._cs_busy = True
            self._listener.on_cs_busy()
        return plan.duration_ns

    def _finish_tx(self) -> None:
        self._tx_seq = 0
        self._state = _IDLE
        tx_end = self._trace_tx_end or take_channel(self, "tx_end")
        tx_end.count += 1
        if tx_end.callbacks:
            tx_end.publish(self._sim.now_ns, {})
        self._update_cs()
        self._listener.on_tx_end()

    # ------------------------------------------------------------ medium

    def on_signal_start(self, signal: Signal, rx_power_dbm: float) -> None:
        """Medium callback: a signal's energy reaches us.

        The audible-power sum is computed once here and threaded through
        lock, capture, interference and the carrier-sense edge — it was
        the single hottest expression in saturated profiles when each of
        them re-derived it.  Reusing one value is bit-identical: the
        signal dict does not change between those reads.
        """
        if not self._powered:
            return
        signals = self._signals
        # ``units.dbm_to_mw``, stored once: the lock test reuses it.
        signals[signal.signal_id] = 10.0 ** (rx_power_dbm / 10.0)
        total_mw = sum(signals.values())
        state = self._state
        if state is _RX:
            self._note_interference_change(total_mw)
            self._maybe_capture(signal, rx_power_dbm, total_mw)
        elif state is _IDLE:
            self._maybe_lock(signal, rx_power_dbm, total_mw)
        # Carrier-sense edge, on the state a lock or capture left.
        busy = self._state is _TX or total_mw >= self._cs_threshold_mw
        if busy != self._cs_busy:
            self._cs_busy = busy
            if busy:
                self._listener.on_cs_busy()
            else:
                self._listener.on_cs_idle()

    def on_signal_end(self, signal: Signal) -> None:
        """Medium callback: a signal fades out at our position."""
        if not self._powered:
            return
        signals = self._signals
        signals.pop(signal.signal_id, None)
        total_mw = sum(signals.values())
        if self._locked_signal is signal:
            self._finish_reception(signal)
        elif self._state is _RX:
            self._note_interference_change(total_mw)
        # Carrier-sense edge, on the state the reception left.
        busy = self._state is _TX or total_mw >= self._cs_threshold_mw
        if busy != self._cs_busy:
            self._cs_busy = busy
            if busy:
                self._listener.on_cs_busy()
            else:
                self._listener.on_cs_idle()

    # --------------------------------------------------------- internals

    def _maybe_lock(self, signal: Signal, rx_power_dbm: float, total_mw: float) -> None:
        radio = self._radio
        if rx_power_dbm < radio.preamble_lock_dbm:
            return
        signal_mw = self._signals[signal.signal_id]
        interference_mw = total_mw - signal_mw
        sinr = signal_mw / (self._noise_mw + interference_mw)
        plcp_rate = signal.frame.plan.segments[0].rate
        # ``10.0 * log10`` is units.linear_to_db inlined (SINR > 0 here).
        if 10.0 * log10(sinr) < radio.sinr_threshold_db[plcp_rate]:
            return
        now = self._sim.now_ns
        self._state = _RX
        self._locked_signal = signal
        self._locked_power_dbm = rx_power_dbm
        self._locked_start_ns = now
        self._interference_log = [(0, interference_mw)]
        rx_lock = self._trace_rx_lock or take_channel(self, "rx_lock")
        rx_lock.count += 1
        if rx_lock.callbacks:
            rx_lock.publish(
                now, {"signal": signal.signal_id, "rx_dbm": round(rx_power_dbm, 1)}
            )
        self._listener.on_rx_start()

    def _maybe_capture(self, signal: Signal, rx_power_dbm: float, total_mw: float) -> None:
        if not self._radio.capture_enabled or self._locked_signal is None:
            return
        in_preamble = (
            self._sim.now_ns - self._locked_start_ns
            <= self._locked_signal.frame.plan.preamble_end_ns
        )
        if not in_preamble:
            return
        if rx_power_dbm >= self._locked_power_dbm + self._radio.capture_margin_db:
            (self._trace_capture or take_channel(self, "capture")).emit(
                self._sim.now_ns,
                {"old": self._locked_signal.signal_id, "new": signal.signal_id},
            )
            # The previously locked frame degrades into interference.
            self._locked_signal = None
            self._state = _IDLE
            self._maybe_lock(signal, rx_power_dbm, total_mw)

    def _note_interference_change(self, total_mw: float) -> None:
        """Log, from now on, the summed power of all but the locked signal."""
        locked = self._locked_signal
        if locked is not None:
            total_mw -= self._signals.get(locked.signal_id, 0.0)
        self._interference_log.append(
            (self._sim.now_ns - self._locked_start_ns, max(total_mw, 0.0))
        )

    def _finish_reception(self, signal: Signal) -> None:
        phy_frame: PhyFrame = signal.frame
        context = ReceptionContext(
            plan=phy_frame.plan,
            rx_power_dbm=self._locked_power_dbm,
            noise_mw=self._noise_mw,
            interference_timeline=tuple(self._interference_log),
        )
        outcome = self._reception.evaluate(context, self._radio, self._rng)
        self._locked_signal = None
        self._interference_log = []
        self._state = _IDLE
        rx_end = self._trace_rx_end or take_channel(self, "rx_end")
        rx_end.count += 1
        if rx_end.callbacks:
            rx_end.publish(
                self._sim.now_ns, {"signal": signal.signal_id, "outcome": outcome.value}
            )
        if outcome.success:
            mac_frame = phy_frame.mac_frame
        else:
            mac_frame = None
            if self._tracer.audit:
                self._audit_rx_fail(phy_frame, outcome.value)
        self._listener.on_rx_end(mac_frame, outcome)

    def _abort_reception(self) -> None:
        signal = self._locked_signal
        self._locked_signal = None
        self._interference_log = []
        self._state = _IDLE
        if signal is not None:
            rx_abort = self._trace_rx_abort or take_channel(self, "rx_abort")
            rx_abort.emit(self._sim.now_ns, {"signal": signal.signal_id})
            if self._tracer.audit:
                self._audit_rx_fail(signal.frame, ReceptionOutcome.ABORTED.value)
            self._listener.on_rx_end(None, ReceptionOutcome.ABORTED)

    def _update_cs(self) -> None:
        busy = (
            self._state is _TX
            or sum(self._signals.values()) >= self._cs_threshold_mw
        )
        if busy == self._cs_busy:
            return
        self._cs_busy = busy
        if busy:
            self._listener.on_cs_busy()
        else:
            self._listener.on_cs_idle()

    def _audit_rx_fail(self, phy_frame: PhyFrame, outcome_value: str) -> None:
        """Audit-channel record of a failed reception of a tracked SDU.

        Duck-typed against ``mac_frame.msdu`` so the PHY stays ignorant
        of MAC frame classes: only data frames carry an MSDU, and only
        the last fragment of a burst carries the tracked one.
        """
        msdu = getattr(phy_frame.mac_frame, "msdu", None)
        sdu = getattr(msdu, "sdu_id", -1)
        if sdu < 0:
            return
        (self._trace_sdu_rx_fail or take_channel(self, "sdu_rx_fail")).emit(
            self._sim.now_ns, {"sdu": sdu, "origin": msdu.src, "outcome": outcome_value}
        )
