"""Contention-window management and backoff slot bookkeeping.

:class:`ContentionWindow` implements the binary exponential schedule of
Table 1 (CWmin 32 slots, CWmax 1024 slots): draws are uniform over
``{0, ..., W-1}``, the window doubles on every failure and snaps back to
CWmin on success or final drop.

:class:`Backoff` tracks the *remaining* slot count across busy periods:
the DCF station tells it when countdown intervals start and end, and it
consumes whole elapsed slots, exactly like the standard's slotted
decrement (a slot interrupted by a busy medium does not count).
"""

from __future__ import annotations

import random

from repro.core.params import MacParameters
from repro.errors import MacError


class ContentionWindow:
    """The current window size and its exponential schedule."""

    def __init__(self, mac: MacParameters):
        self._mac = mac
        self._window_slots = mac.cw_min_slots

    @property
    def window_slots(self) -> int:
        """Current window size W; draws are uniform over [0, W-1]."""
        return self._window_slots

    def draw(self, rng: random.Random) -> int:
        """A fresh backoff count in slots."""
        return rng.randrange(self._window_slots)

    def double(self) -> None:
        """Failure: W <- min(2 W, CWmax)."""
        self._window_slots = min(self._window_slots * 2, self._mac.cw_max_slots)

    def reset(self) -> None:
        """Success or final drop: W <- CWmin."""
        self._window_slots = self._mac.cw_min_slots


class Backoff:
    """Remaining-slot bookkeeping across interrupted countdowns."""

    def __init__(self, mac: MacParameters):
        self._slot_ns = round(mac.slot_time_us * 1000)
        self._remaining_slots: int | None = None
        self._countdown_start_ns: int | None = None

    @property
    def pending(self) -> bool:
        """True while a countdown has slots left to consume."""
        return self._remaining_slots is not None

    @property
    def remaining_slots(self) -> int:
        """Slots still to count down (0 means ready at the next IFS)."""
        if self._remaining_slots is None:
            raise MacError("no backoff in progress")
        return self._remaining_slots

    @property
    def counting(self) -> bool:
        """True while slots are actively being consumed."""
        return self._countdown_start_ns is not None

    def begin(self, slots: int) -> None:
        """Arm a new countdown of ``slots`` slots."""
        if slots < 0:
            raise MacError(f"backoff slots must be >= 0, got {slots}")
        self._remaining_slots = slots
        self._countdown_start_ns = None

    def countdown_started(self, start_ns: int) -> None:
        """The medium has been idle for the IFS; slots now tick.

        ``start_ns`` is the instant the first slot begins (idle start +
        IFS), which may be in the past relative to 'now' when the IFS has
        already elapsed.
        """
        if self._remaining_slots is None:
            raise MacError("countdown started without a pending backoff")
        self._countdown_start_ns = start_ns

    def countdown_stopped(self, now_ns: int) -> None:
        """The medium went busy; consume the whole slots that elapsed."""
        if self._countdown_start_ns is None:
            return
        elapsed_ns = now_ns - self._countdown_start_ns
        consumed = max(0, elapsed_ns // self._slot_ns)
        self._remaining_slots = max(0, self._remaining_slots - int(consumed))
        self._countdown_start_ns = None

    def finish(self) -> None:
        """The countdown reached zero and access was granted."""
        self._remaining_slots = None
        self._countdown_start_ns = None
