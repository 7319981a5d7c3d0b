"""Engine guards: the run(max_events=) break, shutdown, stale handles."""

import pytest

from repro.errors import SchedulingError
from repro.sim.engine import Simulator


def spin(sim):
    """An event that reschedules itself forever at the same instant."""
    sim.schedule(0, spin, sim)


class TestEventBudget:
    def test_max_events_run_argument_still_breaks_quietly(self):
        # run(max_events=...) is a pagination break, not an error: a
        # livelocked scenario is stopped by its sweep point's deadline.
        sim = Simulator()
        spin(sim)
        sim.run(max_events=10)
        assert sim.events_processed == 10


class TestShutdown:
    def test_schedule_after_shutdown_raises(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.shutdown()
        with pytest.raises(SchedulingError, match="shut-down"):
            sim.schedule(200, lambda: None)
        with pytest.raises(SchedulingError, match="shut-down"):
            sim.schedule_at(500, lambda: None)

    def test_run_after_shutdown_raises(self):
        sim = Simulator()
        sim.shutdown()
        with pytest.raises(SchedulingError):
            sim.run(until_s=1.0)

    def test_shutdown_drops_pending_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, fired.append, "never")
        sim.shutdown()
        assert sim.pending_events == 0
        assert fired == []

    def test_shutdown_from_inside_an_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, sim.shutdown)
        sim.schedule(200, fired.append, "after")
        sim.run()
        assert fired == []


class TestHandleCancellation:
    def test_cancel_after_fire_is_harmless(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(10, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        handle.cancel()  # already fired: must be a no-op
        handle.cancel()  # and idempotent
        assert handle.cancelled
        sim.schedule(20, fired.append, "y")
        sim.run()
        assert fired == ["x", "y"]

    def test_cancel_before_fire_still_works(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(10, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []
