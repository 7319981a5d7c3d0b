"""Tests for station mobility."""

import pytest

from repro.channel.mobility import LinearMobility, walk_away
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.units import ns_to_s, s_to_ns


class FakeDevice:
    def __init__(self):
        self.position_m = (0.0, 0.0)


class RecordingDevice:
    """Records ``(time_ns, position)`` at every position assignment."""

    def __init__(self, sim, position):
        self._sim = sim
        self._position_m = position
        self.updates = []

    @property
    def position_m(self):
        return self._position_m

    @position_m.setter
    def position_m(self, position):
        self._position_m = position
        self.updates.append((self._sim.now_ns, position))


def accumulate(start, steps):
    """Positions from ``x + vx * ns_to_s(elapsed)`` applied step by step.

    ``steps`` lists ``(time_ns, velocity)`` for each update: the device
    moved at ``velocity`` since the previous update (or ``start``'s time).
    """
    (time_ns, (x, y)) = start
    out = []
    for update_ns, (vx, vy) in steps:
        elapsed_s = ns_to_s(update_ns - time_ns)
        x, y = x + vx * elapsed_s, y + vy * elapsed_s
        out.append((update_ns, (x, y)))
        time_ns = update_ns
    return out


class TestLinearMobility:
    def test_moves_at_constant_velocity(self):
        sim = Simulator()
        device = FakeDevice()
        mobility = LinearMobility(sim, device, (2.0, -1.0), update_interval_s=0.1)
        mobility.start()
        sim.run(until_s=3.0)
        assert device.position_m[0] == pytest.approx(6.0, abs=0.3)
        assert device.position_m[1] == pytest.approx(-3.0, abs=0.2)

    def test_speed_property(self):
        sim = Simulator()
        mobility = LinearMobility(sim, FakeDevice(), (3.0, 4.0))
        assert mobility.speed_m_s == 5.0

    def test_stop_freezes_position(self):
        sim = Simulator()
        device = FakeDevice()
        mobility = LinearMobility(sim, device, (1.0, 0.0), update_interval_s=0.1)
        mobility.start()
        sim.schedule_s(1.0, mobility.stop)
        sim.run(until_s=5.0)
        assert device.position_m[0] == pytest.approx(1.0, abs=0.15)

    def test_velocity_change_mid_flight(self):
        sim = Simulator()
        device = FakeDevice()
        mobility = LinearMobility(sim, device, (1.0, 0.0), update_interval_s=0.05)
        mobility.start()
        sim.schedule_s(1.0, mobility.set_velocity, (0.0, 1.0))
        sim.run(until_s=2.0)
        assert device.position_m[0] == pytest.approx(1.0, abs=0.1)
        assert device.position_m[1] == pytest.approx(1.0, abs=0.1)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            LinearMobility(Simulator(), FakeDevice(), (1.0, 0.0), 0.0)

    def test_interval_rounding_to_zero_ns_rejected(self):
        # 4e-10 s is 0 ns on the clock: the tick would re-arm at one
        # instant forever and the simulation would never advance.
        with pytest.raises(ConfigurationError):
            LinearMobility(Simulator(), FakeDevice(), (1.0, 0.0), 4e-10)

    def test_walk_away_starts_immediately(self):
        sim = Simulator()
        device = FakeDevice()
        walk_away(sim, device, speed_m_s=5.0)
        sim.run(until_s=2.0)
        assert device.position_m[0] == pytest.approx(10.0, abs=0.6)

    def test_walk_away_rejects_bad_speed(self):
        with pytest.raises(ConfigurationError):
            walk_away(Simulator(), FakeDevice(), speed_m_s=0.0)


class TestTickSchedule:
    """Update instants and positions, compared with ``==``."""

    INTERVAL_NS = s_to_ns(0.1)

    def test_ticks_accumulate_the_nominal_step(self):
        sim = Simulator()
        device = RecordingDevice(sim, (3.0, -2.0))
        velocity = (1.7, -0.3)
        mobility = LinearMobility(sim, device, velocity, update_interval_s=0.1)
        start_ns = 37_000_001
        sim.schedule_at(start_ns, mobility.start)
        sim.run(until_ns=start_ns + 25 * self.INTERVAL_NS)
        steps = [(start_ns + k * self.INTERVAL_NS, velocity) for k in range(1, 26)]
        assert device.updates == accumulate((start_ns, (3.0, -2.0)), steps)

    def test_velocity_change_and_restart(self):
        sim = Simulator()
        device = RecordingDevice(sim, (0.0, 0.0))
        mobility = LinearMobility(sim, device, (2.0, 0.5), update_interval_s=0.1)
        mobility.start()
        interval = self.INTERVAL_NS
        turn_ns = 2 * interval + 50_000_013
        stop_ns = 4 * interval + 20_000_007
        restart_ns = 6 * interval
        sim.schedule_at(turn_ns, mobility.set_velocity, (-1.0, 3.0))
        sim.schedule_at(stop_ns, mobility.stop)
        sim.schedule_at(restart_ns, mobility.start)
        sim.run(until_ns=10 * interval)
        first = accumulate(
            (0, (0.0, 0.0)),
            [
                (interval, (2.0, 0.5)),
                (2 * interval, (2.0, 0.5)),
                (turn_ns, (2.0, 0.5)),
                (3 * interval, (-1.0, 3.0)),
                (4 * interval, (-1.0, 3.0)),
                (stop_ns, (-1.0, 3.0)),
            ],
        )
        # Stopped, the station stays put; a restart counts from its instant.
        second = accumulate(
            (restart_ns, first[-1][1]),
            [(restart_ns + k * interval, (-1.0, 3.0)) for k in range(1, 5)],
        )
        assert device.updates == first + second

    def test_stop_leaves_no_tick_pending(self):
        sim = Simulator()
        device = RecordingDevice(sim, (0.0, 0.0))
        mobility = LinearMobility(sim, device, (1.0, 0.0), update_interval_s=0.1)
        mobility.start()
        assert sim.pending_events == 1
        sim.run(until_ns=3 * self.INTERVAL_NS + 5)
        mobility.stop()
        assert sim.pending_events == 0
        updates = list(device.updates)
        sim.run(until_s=2.0)
        assert device.updates == updates


class TestMobileLink:
    USABLE_LIFETIME = "repro.experiments.mobility:usable_lifetime"

    def lifetime_s(self, rate_mbps, horizon_s, ns2_preset=False):
        from repro.experiments.mobility import lifetime_spec
        from repro.scenario import scenario_point

        spec = lifetime_spec(
            rate_mbps, 20.0, ns2_preset, seed=1, horizon_s=horizon_s
        )
        return scenario_point(spec.to_dict(), extract=self.USABLE_LIFETIME)

    def test_walking_receiver_eventually_loses_the_link(self):
        from repro.core.params import Rate
        from repro.experiments.mobility import LinkLifetime

        result = LinkLifetime(
            Rate.MBPS_11, "calibrated", 20.0, self.lifetime_s(11.0, 10.0)
        )
        # 11 Mbps range ~31 m from a 5 m start at 20 m/s: ~1.3 s.
        assert 0.5 < result.lifetime_s < 3.5
        assert 15.0 < result.break_distance_m < 60.0

    def test_ns2_preset_lives_much_longer(self):
        calibrated = self.lifetime_s(2.0, 20.0)
        ns2 = self.lifetime_s(2.0, 20.0, ns2_preset=True)
        assert ns2 > 2.0 * calibrated
