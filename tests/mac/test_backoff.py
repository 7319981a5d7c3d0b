"""Tests for contention-window and backoff bookkeeping."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.params import MacParameters
from repro.errors import MacError
from repro.mac.backoff import Backoff, ContentionWindow


@pytest.fixture
def mac():
    return MacParameters()


class TestContentionWindow:
    def test_starts_at_cw_min(self, mac):
        assert ContentionWindow(mac).window_slots == 32

    def test_doubles_up_to_cw_max(self, mac):
        cw = ContentionWindow(mac)
        sizes = []
        for _ in range(8):
            cw.double()
            sizes.append(cw.window_slots)
        assert sizes == [64, 128, 256, 512, 1024, 1024, 1024, 1024]

    def test_reset_returns_to_cw_min(self, mac):
        cw = ContentionWindow(mac)
        cw.double()
        cw.double()
        cw.reset()
        assert cw.window_slots == 32

    def test_draw_within_window(self, mac):
        cw = ContentionWindow(mac)
        rng = random.Random(3)
        draws = [cw.draw(rng) for _ in range(500)]
        assert all(0 <= d < 32 for d in draws)
        # The draw is uniform over [0, 31]: mean 15.5 (what makes the
        # paper's Table 2 reproduce).
        assert sum(draws) / len(draws) == pytest.approx(15.5, abs=1.0)

    @given(doublings=st.integers(min_value=0, max_value=20))
    def test_window_always_within_bounds(self, doublings):
        mac = MacParameters()
        cw = ContentionWindow(mac)
        for _ in range(doublings):
            cw.double()
        assert mac.cw_min_slots <= cw.window_slots <= mac.cw_max_slots


class TestBackoff:
    def test_not_pending_initially(self, mac):
        assert not Backoff(mac).pending

    def test_begin_and_finish(self, mac):
        backoff = Backoff(mac)
        backoff.begin(5)
        assert backoff.pending
        assert backoff.remaining_slots == 5
        backoff.finish()
        assert not backoff.pending

    def test_negative_slots_rejected(self, mac):
        with pytest.raises(MacError):
            Backoff(mac).begin(-1)

    def test_remaining_without_backoff_rejected(self, mac):
        with pytest.raises(MacError):
            Backoff(mac).remaining_slots

    def test_full_slots_consumed_on_interruption(self, mac):
        backoff = Backoff(mac)
        backoff.begin(10)
        backoff.countdown_started(0)
        # 3.5 slots elapse (slot = 20 us = 20_000 ns): only 3 count.
        backoff.countdown_stopped(70_000)
        assert backoff.remaining_slots == 7

    def test_interruption_before_countdown_consumes_nothing(self, mac):
        backoff = Backoff(mac)
        backoff.begin(10)
        # Busy again before the IFS completed: countdown never started.
        backoff.countdown_stopped(5_000)
        assert backoff.remaining_slots == 10

    def test_interruption_before_ifs_end_consumes_nothing(self, mac):
        backoff = Backoff(mac)
        backoff.begin(10)
        backoff.countdown_started(50_000)  # first slot begins at 50 us
        backoff.countdown_stopped(40_000)  # busy arrives before that
        assert backoff.remaining_slots == 10

    def test_cannot_exceed_remaining(self, mac):
        backoff = Backoff(mac)
        backoff.begin(2)
        backoff.countdown_started(0)
        backoff.countdown_stopped(1_000_000)
        assert backoff.remaining_slots == 0

    def test_countdown_started_without_begin_rejected(self, mac):
        with pytest.raises(MacError):
            Backoff(mac).countdown_started(0)

    @pytest.mark.parametrize("slot_time_us", [9.0, 20.0, 12.3456])
    def test_consumed_slots_follow_the_rounded_slot_time(self, slot_time_us):
        slot_ns = round(slot_time_us * 1000)
        for elapsed_ns in (0, 1, slot_ns - 1, slot_ns, 3 * slot_ns + 1, 250 * slot_ns - 1):
            backoff = Backoff(MacParameters(slot_time_us=slot_time_us))
            backoff.begin(1000)
            backoff.countdown_started(7_000)
            backoff.countdown_stopped(7_000 + elapsed_ns)
            assert 1000 - backoff.remaining_slots == elapsed_ns // slot_ns

    @given(
        slots=st.integers(min_value=0, max_value=1023),
        interruptions=st.lists(
            st.integers(min_value=0, max_value=200_000), max_size=10
        ),
    )
    def test_remaining_never_negative(self, slots, interruptions):
        mac = MacParameters()
        backoff = Backoff(mac)
        backoff.begin(slots)
        t = 0
        for gap in interruptions:
            backoff.countdown_started(t)
            t += gap
            backoff.countdown_stopped(t)
            assert 0 <= backoff.remaining_slots <= slots
