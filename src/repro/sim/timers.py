"""Restartable one-shot timers on top of the simulator.

MAC protocols are full of "start a timeout, cancel it if the reply
arrives, restart it on retransmission" logic; :class:`Timer` packages that
pattern so state machines never touch raw event handles.

Timers ride the simulator's slot API (`schedule_slot_at` / `cancel_slot`)
rather than :class:`~repro.sim.engine.EventHandle`, so the restart-heavy
MAC paths (NAV, backoff, response timeouts) allocate nothing per cycle:
a (re)start is one heap push plus two int writes, a cancel is an O(1)
tombstone.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import Simulator


class Timer:
    """A named, restartable one-shot timer.

    The callback is fixed at construction; each (re)start may carry
    different arguments.  Starting a running timer implicitly cancels the
    previous schedule.
    """

    __slots__ = ("_sim", "_callback", "_name", "_slot", "_seq",
                 "_expiry_ns", "_jitter", "_fire_bound")

    def __init__(
        self, sim: Simulator, callback: Callable[..., None], name: str = ""
    ) -> None:
        self._sim = sim
        self._callback = callback
        self._name = name
        # (slot, seq) of the pending event; seq 0 means "not armed"
        # (the simulator never issues sequence number 0).
        self._slot = -1
        self._seq = 0
        self._expiry_ns = 0
        self._jitter: Callable[[int], int] | None = None
        # Bound once: every (re)start schedules this same method object.
        self._fire_bound: Callable[..., None] = self._fire

    @property
    def name(self) -> str:
        """Diagnostic name of the timer."""
        return self._name

    @property
    def running(self) -> bool:
        """True while a timeout is pending."""
        return self._seq != 0 and self._sim.slot_active(self._slot, self._seq)

    @property
    def expiry_ns(self) -> int | None:
        """Absolute expiry time, or ``None`` if not running."""
        if self.running:
            return self._expiry_ns
        return None

    def set_jitter(self, jitter: Callable[[int], int] | None) -> None:
        """Install (or clear) a delay-perturbation hook.

        Every subsequent :meth:`start` passes its delay through
        ``jitter`` (clamped to >= 0).  This is the clock-skew hook the
        fault-injection layer uses; an already-armed timer is not
        re-jittered.
        """
        self._jitter = jitter

    def start(self, delay_ns: int, *args: Any) -> None:
        """(Re)arm the timer to fire after ``delay_ns`` nanoseconds."""
        sim = self._sim
        if self._seq != 0:
            sim.cancel_slot(self._slot, self._seq)
        if self._jitter is not None:
            delay_ns = max(0, self._jitter(delay_ns))
        expiry_ns = sim.now_ns + delay_ns
        self._slot, self._seq = sim.schedule_slot_at(
            expiry_ns, self._fire_bound, *args
        )
        self._expiry_ns = expiry_ns

    def start_s(self, delay_s: float, *args: Any) -> None:
        """(Re)arm the timer to fire after ``delay_s`` seconds."""
        from repro.units import s_to_ns

        self.start(s_to_ns(delay_s), *args)

    def cancel(self) -> None:
        """Disarm the timer.  Safe to call when not running."""
        if self._seq != 0:
            self._sim.cancel_slot(self._slot, self._seq)
            self._seq = 0

    def _fire(self, *args: Any) -> None:
        self._seq = 0
        self._callback(*args)
