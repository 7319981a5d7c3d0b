"""The discrete-event simulator core.

Time is an integer number of nanoseconds.  Events scheduled for the same
instant fire in scheduling order (a monotonically increasing sequence
number breaks heap ties), which makes simulations bit-for-bit reproducible.

Event storage is array-backed: each scheduled event occupies a *slot* in
parallel lists (callback, args, token), slots are recycled through a
free-list, and the heap holds plain ``(time_ns, seq, slot)`` integer
triples.  Cancellation is an O(1) tombstone — the slot's token is
invalidated and the heap entry is skipped when popped; no heap surgery,
no per-event object allocation on the hot path.  The :class:`EventHandle`
returned by the public ``schedule*`` family is a thin view over a slot;
components with a tight schedule/cancel loop (timers, the medium) use
the slot API directly and never allocate a handle at all.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import SchedulingError, SimulationError, WatchdogTimeout
from repro.units import ns_to_s, s_to_ns

#: Event-count accumulator across every :class:`Simulator` in the process.
#: Purely observational (perf harnesses read it to compute events/sec);
#: nothing simulation-visible ever depends on it.
_events_fired_total = 0


def events_fired_total() -> int:
    """Total events fired by all simulators in this process (telemetry)."""
    return _events_fired_total


class EventHandle:
    """A scheduled event that can be cancelled before it fires.

    A thin view over the simulator's slot storage: cancellation is lazy
    (the heap entry stays in place and is skipped when popped), keeping
    both operations O(log n) / O(1).  A handle held across its event's
    firing stays safe — the slot token it captured can never be
    reissued, so a stale :meth:`cancel` is a no-op even after the slot
    has been recycled for a different event.
    """

    __slots__ = ("time_ns", "_sim", "_slot", "_seq")

    time_ns: int
    _sim: "Simulator"
    _slot: int
    _seq: int

    def __init__(self, sim: "Simulator", slot: int, seq: int, time_ns: int) -> None:
        self.time_ns = time_ns
        self._sim = sim
        self._slot = slot
        self._seq = seq

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self._sim.cancel_slot(self._slot, self._seq)

    @property
    def cancelled(self) -> bool:
        """True once the event can no longer fire (cancelled or fired)."""
        return not self._sim.slot_active(self._slot, self._seq)


@dataclass(frozen=True)
class Watchdog:
    """Runaway-simulation guard attached to a :class:`Simulator`.

    Unlike :meth:`Simulator.run`'s ``max_events`` argument — a quiet
    pagination break — an exhausted watchdog budget *raises*
    :class:`~repro.errors.WatchdogTimeout`, so a livelocked scenario
    (e.g. two faulty MACs ping-ponging zero-delay events) surfaces as a
    structured failure instead of spinning forever.

    ``invariant`` is an optional hook called every ``invariant_interval``
    events with the simulator; returning ``False`` (or raising) aborts
    the run — use it for cheap cross-layer consistency checks.
    """

    max_events: int | None = None
    max_wall_s: float | None = None
    invariant: Callable[["Simulator"], bool | None] | None = None
    invariant_interval: int = 1000
    #: Wall-clock rechecks happen every this many events (the syscall is
    #: too slow to pay on every event).
    wall_check_interval: int = 512


class Simulator:
    """Event heap + clock.

    Typical use::

        sim = Simulator()
        sim.schedule_s(1.0, lambda: print("one second in"))
        sim.run(until_s=10.0)
    """

    def __init__(self, watchdog: Watchdog | None = None) -> None:
        self._heap: list[tuple[int, int, int]] = []
        # Slot storage: _slot_token[i] is the seq of the event occupying
        # slot i (0 = free); _slot_callback/_slot_args hold its payload.
        self._slot_token: list[int] = []
        self._slot_callback: list[Callable[..., None] | None] = []
        self._slot_args: list[tuple[Any, ...]] = []
        self._free_slots: list[int] = []
        self._now_ns = 0
        self._sequence = 0
        self._running = False
        self._stopped = False
        self._closed = False
        self._events_processed = 0
        self._shutdown_hooks: list[Callable[[], None]] = []
        self.watchdog = watchdog

    @property
    def now_ns(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now_ns

    @property
    def now_s(self) -> float:
        """Current simulation time in seconds."""
        return ns_to_s(self._now_ns)

    @property
    def events_processed(self) -> int:
        """Number of events fired since construction."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events in the queue.

        Every live event holds exactly one slot and every other slot is
        on the free-list, so the count is a subtraction rather than a
        heap scan and watchdog invariant hooks can poll it for free.
        """
        return len(self._slot_token) - len(self._free_slots)

    # ------------------------------------------------------- slot API

    def schedule_slot_at(
        self, time_ns: int, callback: Callable[..., None], *args: Any
    ) -> tuple[int, int]:
        """Schedule ``callback(*args)`` at ``time_ns``; return ``(slot, seq)``.

        The low-churn path: no :class:`EventHandle` is allocated.  Keep
        the returned pair to :meth:`cancel_slot` later, or discard it
        for fire-and-forget events.  ``seq`` values are never reused, so
        a stale pair can never cancel a different event.
        """
        if self._closed:
            raise SchedulingError("cannot schedule on a shut-down simulator")
        if time_ns < self._now_ns:
            raise SchedulingError(
                f"cannot schedule at {time_ns} ns: clock is already at "
                f"{self._now_ns} ns"
            )
        seq = self._sequence + 1
        self._sequence = seq
        free = self._free_slots
        if free:
            slot = free.pop()
            self._slot_token[slot] = seq
            self._slot_callback[slot] = callback
            self._slot_args[slot] = args
        else:
            slot = len(self._slot_token)
            self._slot_token.append(seq)
            self._slot_callback.append(callback)
            self._slot_args.append(args)
        heapq.heappush(self._heap, (time_ns, seq, slot))
        return slot, seq

    def schedule_slot(
        self, delay_ns: int, callback: Callable[..., None], *args: Any
    ) -> tuple[int, int]:
        """Slot-API twin of :meth:`schedule`: relative delay, no handle.

        Implemented in full (not via :meth:`schedule_slot_at`) — this is
        the single hottest scheduling entry point (timers, the medium),
        and the extra frame was measurable.
        """
        if delay_ns < 0:
            raise SchedulingError(f"delay must be >= 0 ns, got {delay_ns}")
        if self._closed:
            raise SchedulingError("cannot schedule on a shut-down simulator")
        seq = self._sequence + 1
        self._sequence = seq
        free = self._free_slots
        if free:
            slot = free.pop()
            self._slot_token[slot] = seq
            self._slot_callback[slot] = callback
            self._slot_args[slot] = args
        else:
            slot = len(self._slot_token)
            self._slot_token.append(seq)
            self._slot_callback.append(callback)
            self._slot_args.append(args)
        heapq.heappush(self._heap, (self._now_ns + delay_ns, seq, slot))
        return slot, seq

    def cancel_slot(self, slot: int, seq: int) -> bool:
        """Tombstone the event in ``slot`` if ``seq`` still owns it.

        O(1): the slot is released to the free-list immediately and the
        stale heap entry is skipped when popped.  Returns False (a
        no-op) when the event already fired or was already cancelled.
        """
        if slot < 0 or slot >= len(self._slot_token):
            return False
        if self._slot_token[slot] != seq:
            return False
        self._slot_token[slot] = 0
        self._slot_callback[slot] = None
        self._slot_args[slot] = ()
        self._free_slots.append(slot)
        return True

    def slot_active(self, slot: int, seq: int) -> bool:
        """True while the event scheduled as ``(slot, seq)`` can still fire."""
        return (
            0 <= slot < len(self._slot_token) and self._slot_token[slot] == seq
        )

    # ----------------------------------------------------- handle API

    def schedule_at(
        self, time_ns: int, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``time_ns``."""
        slot, seq = self.schedule_slot_at(time_ns, callback, *args)
        return EventHandle(self, slot, seq, time_ns)

    def schedule(
        self, delay_ns: int, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay_ns`` nanoseconds."""
        if delay_ns < 0:
            raise SchedulingError(f"delay must be >= 0 ns, got {delay_ns}")
        return self.schedule_at(self._now_ns + delay_ns, callback, *args)

    def schedule_s(
        self, delay_s: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay_s`` seconds."""
        return self.schedule(s_to_ns(delay_s), callback, *args)

    def run(
        self,
        until_ns: int | None = None,
        until_s: float | None = None,
        max_events: int | None = None,
    ) -> None:
        """Process events in time order.

        Stops when the queue drains, when the clock would pass the given
        horizon (the clock is then advanced *to* the horizon), after
        ``max_events`` events, or when :meth:`stop` is called from inside
        an event.
        """
        global _events_fired_total
        if until_ns is not None and until_s is not None:
            raise SchedulingError("pass only one of until_ns / until_s")
        if until_s is not None:
            until_ns = s_to_ns(until_s)
        if until_ns is not None and until_ns < self._now_ns:
            raise SchedulingError(
                f"horizon {until_ns} ns is before current time {self._now_ns} ns"
            )
        if self._closed:
            raise SchedulingError("cannot run a shut-down simulator")
        watchdog = self.watchdog
        deadline = None
        if watchdog is not None and watchdog.max_wall_s is not None:
            deadline = time.monotonic() + watchdog.max_wall_s
        self._stopped = False
        self._running = True
        fired = 0
        # Hot loop: bind everything invariant to locals — the heap, the
        # pop, the slot arrays — so each event pays attribute lookups
        # only for state that genuinely changes under it (``_stopped``
        # can be flipped by any callback).
        heap = self._heap
        heappop = heapq.heappop
        tokens = self._slot_token
        callbacks = self._slot_callback
        arglists = self._slot_args
        free = self._free_slots
        try:
            while heap and not self._stopped:
                time_ns, seq, slot = heap[0]
                if until_ns is not None and time_ns > until_ns:
                    break
                heappop(heap)
                if tokens[slot] != seq:
                    continue  # tombstone of a cancelled event
                callback = callbacks[slot]
                args = arglists[slot]
                # Release the slot before invoking so an exception in
                # the callback cannot keep the closure alive, and so the
                # callback itself may recycle the slot.
                tokens[slot] = 0
                callbacks[slot] = None
                arglists[slot] = ()
                free.append(slot)
                self._now_ns = time_ns
                callback(*args)  # type: ignore[misc]
                self._events_processed += 1
                fired += 1
                if max_events is not None and fired >= max_events:
                    break
                if watchdog is not None:
                    self._check_watchdog(watchdog, fired, deadline)
        finally:
            self._running = False
            _events_fired_total += fired
        if until_ns is not None and not self._stopped and (
            max_events is None or fired < max_events
        ):
            self._now_ns = max(self._now_ns, until_ns)

    def _check_watchdog(
        self, watchdog: Watchdog, fired: int, deadline: float | None
    ) -> None:
        if watchdog.max_events is not None and fired >= watchdog.max_events:
            raise WatchdogTimeout(
                f"watchdog: {fired} events fired in one run "
                f"(budget {watchdog.max_events}) at t={self.now_s:.6f} s"
            )
        if (
            deadline is not None
            and fired % watchdog.wall_check_interval == 0
            and time.monotonic() > deadline
        ):
            raise WatchdogTimeout(
                f"watchdog: wall-clock budget of {watchdog.max_wall_s} s "
                f"exhausted after {fired} events at t={self.now_s:.6f} s"
            )
        if (
            watchdog.invariant is not None
            and fired % watchdog.invariant_interval == 0
            and watchdog.invariant(self) is False
        ):
            raise SimulationError(
                f"watchdog: invariant violated at t={self.now_s:.6f} s "
                f"after {fired} events"
            )

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def add_shutdown_hook(self, callback: Callable[[], None]) -> None:
        """Run ``callback()`` at the start of :meth:`shutdown`.

        Hooks fire in registration order, exactly once, while the
        simulator is still usable — this is where end-of-life audits
        (e.g. the packet-conservation ledger balance check) belong.
        """
        if self._closed:
            raise SchedulingError(
                "cannot add a shutdown hook to a shut-down simulator"
            )
        self._shutdown_hooks.append(callback)

    def shutdown(self) -> None:
        """Stop permanently: drop all events; further use raises.

        Registered shutdown hooks run first (in registration order),
        then the event queue is dropped.  After shutdown both
        :meth:`run` and the ``schedule*`` family raise
        :class:`~repro.errors.SchedulingError` — a component whose
        timers outlive the scenario fails loudly instead of silently
        queueing work that will never run.
        """
        if self._closed:
            return
        hooks, self._shutdown_hooks = self._shutdown_hooks, []
        for hook in hooks:
            hook()
        self.stop()
        self.clear()
        self._closed = True

    def clear(self) -> None:
        """Drop all pending events (the clock is left untouched)."""
        for _, seq, slot in self._heap:
            if self._slot_token[slot] == seq:
                self._slot_token[slot] = 0
                self._slot_callback[slot] = None
                self._slot_args[slot] = ()
                self._free_slots.append(slot)
        self._heap.clear()
