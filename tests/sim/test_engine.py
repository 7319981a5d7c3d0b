"""Tests for the discrete-event kernel."""

import functools
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchedulingError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(300, fired.append, "c")
        sim.schedule(100, fired.append, "a")
        sim.schedule(200, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for label in "abcde":
            sim.schedule(100, fired.append, label)
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(150, lambda: seen.append(sim.now_ns))
        sim.run()
        assert seen == [150]

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(50, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulingError):
            Simulator().schedule(-1, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(50, lambda: fired.append("second"))

        sim.schedule(100, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now_ns == 150

    def test_schedule_s_converts_seconds(self):
        sim = Simulator()
        sim.schedule_s(1.5, lambda: None)
        sim.run()
        assert sim.now_ns == 1_500_000_000
        assert sim.now_s == pytest.approx(1.5)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(100, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(100, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        handle = sim.schedule(200, lambda: None)
        handle.cancel()
        assert sim.pending_events == 1

    def test_pending_events_counts_down_as_events_fire(self):
        sim = Simulator()
        seen = []
        for delay in (100, 200, 300):
            sim.schedule(delay, lambda: seen.append(sim.pending_events))
        assert sim.pending_events == 3
        sim.run()
        # Each callback observes the events still queued behind it.
        assert seen == [2, 1, 0]
        assert sim.pending_events == 0

    def test_pending_events_after_double_cancel_and_clear(self):
        # The live counter must not double-decrement on repeated
        # cancels or on clear() after manual cancels.
        sim = Simulator()
        handle = sim.schedule(100, lambda: None)
        sim.schedule(200, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending_events == 1
        sim.clear()
        assert sim.pending_events == 0
        sim.schedule_at(sim.now_ns + 1, lambda: None)
        assert sim.pending_events == 1

    def test_cancel_after_fire_keeps_counter_consistent(self):
        sim = Simulator()
        handle = sim.schedule(100, lambda: None)
        sim.run()
        assert sim.pending_events == 0
        handle.cancel()  # firing already consumed the event
        assert sim.pending_events == 0

    def test_clear_drops_everything(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, fired.append, "x")
        sim.clear()
        sim.run()
        assert fired == []


class TestRunControl:
    def test_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, fired.append, "a")
        sim.schedule(300, fired.append, "b")
        sim.run(until_ns=200)
        assert fired == ["a"]
        assert sim.now_ns == 200

    def test_until_preserves_later_events_for_next_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, fired.append, "a")
        sim.schedule(300, fired.append, "b")
        sim.run(until_ns=200)
        sim.run()
        assert fired == ["a", "b"]

    def test_event_exactly_at_horizon_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(200, fired.append, "edge")
        sim.run(until_ns=200)
        assert fired == ["edge"]

    def test_until_s_form(self):
        sim = Simulator()
        sim.run(until_s=2.0)
        assert sim.now_s == pytest.approx(2.0)

    def test_both_horizons_rejected(self):
        with pytest.raises(SchedulingError):
            Simulator().run(until_ns=10, until_s=1.0)

    def test_horizon_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.run(until_ns=50)

    def test_stop_from_inside_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, lambda: (fired.append("a"), sim.stop()))
        sim.schedule(200, fired.append, "b")
        sim.run()
        assert fired == ["a"]

    def test_max_events_limit(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(100 + i, fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_processed == 4


class TestOrderingProperty:
    @given(delays=st.lists(st.integers(min_value=0, max_value=10_000), max_size=60))
    def test_fire_times_are_sorted(self, delays):
        sim = Simulator()
        fire_times = []
        for delay in delays:
            sim.schedule(delay, lambda: fire_times.append(sim.now_ns))
        sim.run()
        assert fire_times == sorted(fire_times)
        assert len(fire_times) == len(delays)

    @given(
        delays=st.lists(
            st.integers(min_value=0, max_value=1000), min_size=2, max_size=40
        ),
        cancel_index=st.integers(min_value=0, max_value=39),
    )
    def test_cancelling_one_event_leaves_others(self, delays, cancel_index):
        if cancel_index >= len(delays):
            cancel_index = len(delays) - 1
        sim = Simulator()
        fired = []
        handles = [
            sim.schedule(delay, fired.append, i) for i, delay in enumerate(delays)
        ]
        handles[cancel_index].cancel()
        sim.run()
        assert set(fired) == set(range(len(delays))) - {cancel_index}


class TestSlotRecycling:
    """Edge cases of the slot/token storage behind EventHandle.

    Slots are recycled through a free-list; the monotonically increasing
    sequence token is what distinguishes "this event" from "whatever now
    occupies the same slot".  Every stale-handle operation must be a safe
    no-op.
    """

    def test_cancel_then_fire_same_slot(self):
        # Cancelling releases the slot; the next schedule may reuse it.
        # The replacement event must fire, the cancelled one must not.
        sim = Simulator()
        fired = []
        first = sim.schedule(100, fired.append, "cancelled")
        first.cancel()
        sim.schedule(100, fired.append, "survivor")
        sim.run()
        assert fired == ["survivor"]

    def test_stale_handle_cannot_cancel_slot_reuser(self):
        # A handle whose event was cancelled must not be able to kill the
        # unrelated event now living in the recycled slot.
        sim = Simulator()
        fired = []
        stale = sim.schedule(100, fired.append, "old")
        stale.cancel()
        sim.schedule(50, fired.append, "new")  # takes the freed slot
        stale.cancel()  # second cancel: stale token, must be a no-op
        sim.run()
        assert fired == ["new"]

    def test_stale_handle_after_fire_cannot_cancel_reuser(self):
        # Same as above, but the slot is released by *firing*, not by an
        # explicit cancel.
        sim = Simulator()
        fired = []
        stale = sim.schedule(10, fired.append, "first")
        sim.run()
        later = sim.schedule(10, fired.append, "second")
        stale.cancel()  # must not touch "second" even if slots collide
        sim.run()
        assert fired == ["first", "second"]
        assert later.cancelled

    def test_cancel_at_now_before_dispatch(self):
        # An event scheduled for *now* (delay 0) can still be cancelled
        # as long as the loop has not dispatched it.
        sim = Simulator()
        fired = []

        def cancel_sibling():
            sibling.cancel()

        # Same timestamp, scheduling order: canceller runs first.
        sim.schedule(100, cancel_sibling)
        sibling = sim.schedule(100, fired.append, "sibling")
        sim.run()
        assert fired == []
        assert sibling.cancelled

    def test_cancel_twice_reports_first_only(self):
        sim = Simulator()
        slot, seq = sim.schedule_slot(100, lambda: None)
        assert sim.cancel_slot(slot, seq) is True
        assert sim.cancel_slot(slot, seq) is False
        assert sim.pending_events == 0

    def test_handle_cancelled_property_tracks_slot_state(self):
        sim = Simulator()
        handle = sim.schedule(100, lambda: None)
        assert not handle.cancelled
        sim.run()
        assert handle.cancelled  # fired counts as no-longer-pending

    def test_free_list_reuses_slots_bounded(self):
        # Churning schedule/cancel through a small window must not grow
        # the slot arrays without bound.
        sim = Simulator()
        for _ in range(10_000):
            sim.schedule(100, lambda: None).cancel()
        assert len(sim._slot_token) < 64
        sim.run()
        assert sim.pending_events == 0


#: One scheduler operation: ``(kind, a, b)``; what ``a`` and ``b`` mean
#: depends on the kind (a delay, a handle index, an event budget ...).
_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(
            ["schedule", "schedule_at", "schedule_slot", "cancel", "cancel_twice",
             "run", "clear"]
        ),
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=60,
)


class TestPendingEventsProperty:
    """``pending_events`` equals a reference count of live events at every step."""

    @settings(max_examples=200, deadline=None)
    @given(operations=_OPERATIONS)
    def test_pending_events_matches_reference_count(self, operations):
        sim = Simulator()
        live: set[int] = set()
        #: (event id, its cancel) for every event ever scheduled.
        scheduled: list[tuple[int, Callable[[], object]]] = []

        def schedule(kind, delay_ns, spawn):
            event_id = len(scheduled) + 1
            live.add(event_id)
            if kind == "schedule_slot":
                slot, seq = sim.schedule_slot(delay_ns, fire, event_id, spawn)
                cancel = functools.partial(sim.cancel_slot, slot, seq)
            elif kind == "schedule_at":
                cancel = sim.schedule_at(
                    sim.now_ns + delay_ns, fire, event_id, spawn
                ).cancel
            else:
                cancel = sim.schedule(delay_ns, fire, event_id, spawn).cancel
            scheduled.append((event_id, cancel))

        def fire(event_id, spawn):
            assert event_id in live
            live.discard(event_id)
            # The firing event's slot is already free.
            assert sim.pending_events == len(live)
            if spawn:
                # Scheduled from inside a callback: reuses the slot this
                # firing just released.
                schedule("schedule", spawn * 50, spawn - 1)

        for kind, a, b in operations:
            if kind.startswith("schedule"):
                schedule(kind, a, b)
            elif kind.startswith("cancel"):
                if scheduled:
                    event_id, cancel = scheduled[a % len(scheduled)]
                    for _ in range(2 if kind == "cancel_twice" else 1):
                        cancel()
                    live.discard(event_id)
            elif kind == "run":
                sim.run(max_events=b + 1)
            else:
                sim.clear()
                live.clear()
            assert sim.pending_events == len(live)
        sim.run()
        assert sim.pending_events == len(live) == 0
