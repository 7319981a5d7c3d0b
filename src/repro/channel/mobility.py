"""Station mobility.

The paper's §3.2 closes with a mobility argument: "the shorter is the
TX_range, the higher is the frequency of route re-calculation when the
network stations are mobile."  These models move stations so that claim
can be quantified (see ``repro.experiments.mobility``).

The medium samples positions at transmission time, so mobility is just
a scheduled sequence of position updates on the transceiver.  Each
update is one simulator event, scheduled by the mobility model itself.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.units import ns_to_s, s_to_ns


class LinearMobility:
    """Constant-velocity motion with periodic position updates."""

    def __init__(
        self,
        sim: Simulator,
        device,
        velocity_m_s: tuple[float, float],
        update_interval_s: float = 0.1,
    ):
        # Checked in whole nanoseconds: an interval that rounds to 0 ns
        # would re-arm its tick at one instant forever.
        interval_ns = s_to_ns(update_interval_s)
        if interval_ns <= 0:
            raise ConfigurationError(
                f"update interval must be >= 1 ns, got {update_interval_s} s"
            )
        self._sim = sim
        self._device = device
        self._velocity = velocity_m_s
        self._interval_ns = interval_ns
        self._last_update_ns = sim.now_ns
        #: (slot, seq) of the pending tick while running.
        self._tick_event = (-1, 0)
        self._running = False

    @property
    def speed_m_s(self) -> float:
        """Scalar speed."""
        return math.hypot(*self._velocity)

    def start(self) -> None:
        """Begin moving."""
        if not self._running:
            self._running = True
            self._last_update_ns = self._sim.now_ns
            self._tick_event = self._sim.schedule_slot(self._interval_ns, self._tick)

    def stop(self) -> None:
        """Freeze at the current position."""
        if self._running:
            self._apply_motion()
            self._running = False
            self._sim.cancel_slot(*self._tick_event)

    def set_velocity(self, velocity_m_s: tuple[float, float]) -> None:
        """Change direction/speed, applying motion accumulated so far."""
        self._apply_motion()
        self._velocity = velocity_m_s

    def _apply_motion(self) -> None:
        now = self._sim.now_ns
        elapsed_s = ns_to_s(now - self._last_update_ns)
        x, y = self._device.position_m
        self._device.position_m = (
            x + self._velocity[0] * elapsed_s,
            y + self._velocity[1] * elapsed_s,
        )
        self._last_update_ns = now

    def _tick(self) -> None:
        # Only a running model has a tick pending: stop() cancels it.
        self._apply_motion()
        self._tick_event = self._sim.schedule_slot(self._interval_ns, self._tick)


def walk_away(
    sim: Simulator,
    device,
    speed_m_s: float,
    update_interval_s: float = 0.1,
) -> LinearMobility:
    """Move a station along +x at ``speed_m_s`` (the range-walk pattern)."""
    if speed_m_s <= 0:
        raise ConfigurationError(f"speed must be > 0 m/s, got {speed_m_s}")
    mobility = LinearMobility(
        sim, device, (speed_m_s, 0.0), update_interval_s
    )
    mobility.start()
    return mobility
