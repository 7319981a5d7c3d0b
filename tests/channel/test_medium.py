"""Tests for the broadcast medium."""

import math
import random

import pytest

from repro.channel import medium as medium_module
from repro.channel.medium import GridIndex, Medium, Signal
from repro.channel.shadowing import ChannelModel
from repro.channel.weather import DayConditions, WeatherProcess
from repro.errors import ConfigurationError, MediumError
from repro.sim.engine import Simulator


class FakeDevice:
    """Minimal medium device recording its callbacks."""

    def __init__(self, sim, position):
        self._sim = sim
        self.position_m = position
        self.events = []

    def on_signal_start(self, signal, rx_power_dbm):
        self.events.append(("start", self._sim.now_ns, signal.signal_id, rx_power_dbm))

    def on_signal_end(self, signal):
        self.events.append(("end", self._sim.now_ns, signal.signal_id))


def force_pass(monkeypatch, grid):
    """Force the grid pass (cutoff 0) or the full pass (cutoff above N)."""
    monkeypatch.setattr(medium_module, "AUTO_SPATIAL_CUTOFF", 0 if grid else 10**9)


def make_medium(*positions, floor=-110.0, sigma=0.0):
    sim = Simulator()
    channel = ChannelModel(fast_sigma_db=sigma, rng=random.Random(1))
    medium = Medium(sim, channel, delivery_floor_dbm=floor)
    devices = []
    for position in positions:
        device = FakeDevice(sim, (float(position), 0.0))
        medium.attach(device)
        devices.append(device)
    return sim, medium, devices


class TestTransmit:
    def test_signal_reaches_other_devices_not_sender(self):
        sim, medium, (tx, rx) = make_medium(0, 30)
        medium.transmit(tx, "frame", duration_ns=1_000_000, tx_power_dbm=15.0)
        sim.run()
        assert tx.events == []
        kinds = [event[0] for event in rx.events]
        assert kinds == ["start", "end"]

    def test_start_and_end_separated_by_duration(self):
        sim, medium, (tx, rx) = make_medium(0, 30)
        medium.transmit(tx, "frame", duration_ns=1_000_000, tx_power_dbm=15.0)
        sim.run()
        start = next(e for e in rx.events if e[0] == "start")
        end = next(e for e in rx.events if e[0] == "end")
        assert end[1] - start[1] == 1_000_000

    def test_propagation_delay_applied(self):
        sim, medium, (tx, rx) = make_medium(0, 300)
        medium.transmit(tx, "frame", duration_ns=1000, tx_power_dbm=40.0)
        sim.run()
        start = next(e for e in rx.events if e[0] == "start")
        # 300 m at light speed: ~1000 ns.
        assert start[1] == pytest.approx(1000, abs=10)

    def test_rx_power_follows_path_loss(self):
        sim, medium, (tx, near, far) = make_medium(0, 10, 100)
        medium.transmit(tx, "frame", duration_ns=1000, tx_power_dbm=15.0)
        sim.run()
        near_power = next(e for e in near.events if e[0] == "start")[3]
        far_power = next(e for e in far.events if e[0] == "start")[3]
        assert near_power - far_power == pytest.approx(35.0, abs=0.1)

    def test_delivery_floor_suppresses_weak_signals(self):
        sim, medium, (tx, rx) = make_medium(0, 500, floor=-100.0)
        medium.transmit(tx, "frame", duration_ns=1000, tx_power_dbm=15.0)
        sim.run()
        assert rx.events == []

    def test_multiple_receivers_each_get_the_signal(self):
        sim, medium, devices = make_medium(0, 20, 40, 60)
        medium.transmit(devices[0], "frame", duration_ns=1000, tx_power_dbm=15.0)
        sim.run()
        for rx in devices[1:]:
            assert [e[0] for e in rx.events] == ["start", "end"]

    def test_signal_ids_are_unique(self):
        sim, medium, (tx, rx) = make_medium(0, 20)
        a = medium.transmit(tx, "one", duration_ns=1000, tx_power_dbm=15.0)
        b = medium.transmit(tx, "two", duration_ns=1000, tx_power_dbm=15.0)
        assert a.signal_id != b.signal_id

    def test_signal_ids_are_per_medium(self):
        # Two live mediums in one process must not perturb each other's
        # id streams (worker determinism depends on it).
        _, medium_a, (tx_a, _) = make_medium(0, 20)
        _, medium_b, (tx_b, _) = make_medium(0, 20)
        first_a = medium_a.transmit(tx_a, "f", duration_ns=1000, tx_power_dbm=15.0)
        first_b = medium_b.transmit(tx_b, "f", duration_ns=1000, tx_power_dbm=15.0)
        second_a = medium_a.transmit(tx_a, "f", duration_ns=1000, tx_power_dbm=15.0)
        assert first_a.signal_id == 1
        assert first_b.signal_id == 1
        assert second_a.signal_id == 2

    def test_signal_duration_property(self):
        signal = Signal(None, "f", 15.0, 100, 400)
        assert signal.duration_ns == 300


class TestPairCache:
    def test_moving_a_device_recomputes_geometry(self):
        sim, medium, (tx, rx) = make_medium(0, 10)
        medium.transmit(tx, "near", duration_ns=1000, tx_power_dbm=15.0)
        sim.run()
        near_power = next(e for e in rx.events if e[0] == "start")[3]
        rx.events.clear()
        rx.position_m = (100.0, 0.0)  # mobility replaces the tuple
        medium.transmit(tx, "far", duration_ns=1000, tx_power_dbm=15.0)
        sim.run()
        far_power = next(e for e in rx.events if e[0] == "start")[3]
        # Calibrated log-distance model: 10 -> 100 m costs ~35 dB.
        assert near_power - far_power == pytest.approx(35.0, abs=0.1)

    def test_repeated_frames_reuse_cached_delay(self):
        sim, medium, (tx, rx) = make_medium(0, 300)
        for frame in ("a", "b"):
            medium.transmit(tx, frame, duration_ns=100, tx_power_dbm=40.0)
        sim.run()
        starts = [e[1] for e in rx.events if e[0] == "start"]
        # Both frames see the same ~1000 ns propagation delay.
        assert starts[0] == pytest.approx(1000, abs=10)
        assert starts[1] == starts[0]

    def test_static_shadowing_survives_cache_reuse(self):
        sim, medium, (tx, rx) = make_medium(0, 50, sigma=0.0)
        medium._channel.static_sigma_db = 3.0
        medium.transmit(tx, "a", duration_ns=1000, tx_power_dbm=15.0)
        medium.transmit(tx, "b", duration_ns=1000, tx_power_dbm=15.0)
        sim.run()
        powers = [e[3] for e in rx.events if e[0] == "start"]
        # The static link draw happens once; both frames share it.
        assert powers[0] == powers[1]


class TestGridIndex:
    def _random_grid(self, n=80, cell=50.0, seed=4):
        rng = random.Random(seed)
        positions = [
            (rng.uniform(0.0, 1200.0), rng.uniform(0.0, 1200.0)) for _ in range(n)
        ]
        grid = GridIndex(cell)
        for index, position in enumerate(positions):
            grid.add(index, position)
        return grid, positions

    def test_near_is_a_superset_of_the_radius_in_ascending_order(self):
        grid, positions = self._random_grid()
        for radius in (60.0, 150.0, 400.0):
            for centre in positions[:10]:
                got = grid.near(centre, radius)
                assert got == sorted(got)
                inside = {
                    index
                    for index, position in enumerate(positions)
                    if math.dist(centre, position) <= radius
                }
                # Conservative query: may over-report, never under-report.
                assert inside <= set(got)

    def test_move_rebuckets_the_device(self):
        grid, positions = self._random_grid()
        grid.move(3, (2400.0, 2400.0))
        assert 3 not in grid.near(positions[3], 100.0)
        assert 3 in grid.near((2400.0, 2400.0), 1.0)

    def test_out_of_order_add_rejected(self):
        grid = GridIndex(10.0)
        with pytest.raises(MediumError):
            grid.add(1, (0.0, 0.0))

    def test_non_positive_cell_rejected(self):
        with pytest.raises(ConfigurationError):
            GridIndex(0.0)


def _scripted_run(fast_sigma_db=0.0, weather=False, moves=False, weather_offset_db=1.0):
    """One fixed transmit/move script; returns the medium and all events.

    Forty stations on a 2.5 km square — far wider than the ~300 m cull
    radius at 15 dBm — so the grid pass genuinely skips most devices.
    """
    sim = Simulator()
    weather_process = None
    if weather:
        weather_process = WeatherProcess(
            random.Random(5),
            DayConditions(
                name="test",
                offset_db=weather_offset_db,
                sigma_db=2.0,
                correlation_time_s=0.5,
            ),
        )
    channel = ChannelModel(
        fast_sigma_db=fast_sigma_db, rng=random.Random(2), weather=weather_process
    )
    medium = Medium(sim, channel)
    layout = random.Random(9)
    devices = []
    for _ in range(40):
        device = FakeDevice(
            sim, (layout.uniform(0.0, 2500.0), layout.uniform(0.0, 2500.0))
        )
        medium.attach(device)
        devices.append(device)
    mover = devices[7]
    for round_index in range(6):
        for tx in (devices[0], devices[19], devices[39]):
            medium.transmit(
                tx, f"frame-{round_index}", duration_ns=1000, tx_power_dbm=15.0
            )
            sim.run()
        if moves:
            x, y = mover.position_m
            mover.position_m = (x + 400.0, y)
            medium.notify_moved(mover)
    return medium, [device.events for device in devices]


class TestSpatialIdentity:
    """The grid pass emits the full pass's event stream, bit for bit."""

    @pytest.mark.parametrize("fast_sigma_db", [0.0, 2.5])
    @pytest.mark.parametrize("weather", [False, True])
    @pytest.mark.parametrize("moves", [False, True])
    def test_spatial_matches_dense(self, monkeypatch, fast_sigma_db, weather, moves):
        force_pass(monkeypatch, grid=False)
        _, full = _scripted_run(fast_sigma_db, weather, moves)
        force_pass(monkeypatch, grid=True)
        _, grid = _scripted_run(fast_sigma_db, weather, moves)
        assert full == grid
        # The script is not vacuous: somebody actually heard something.
        assert any(events for events in full)

    @pytest.mark.parametrize(
        "fast_sigma_db, weather_offset_db, reach", [(8.0, 1.0, 1.0), (0.0, -20.0, 2.5)]
    )
    def test_links_beyond_the_radius_match(
        self, monkeypatch, fast_sigma_db, weather_offset_db, reach
    ):
        # A deep fast fade, or a good day whose gain exceeds the cull
        # guard, lifts devices beyond the cull radius above the floor.
        # The day's gain reaches past the grid's candidate square
        # (at most 1.5 radii per axis from the source).
        runs = {}
        for grid in (False, True):
            force_pass(monkeypatch, grid)
            runs[grid] = _scripted_run(
                fast_sigma_db, weather=True, weather_offset_db=weather_offset_db
            )
        (medium, full), (_, grid) = runs[False], runs[True]
        assert full == grid
        radius = medium.cull_radius_m(15.0)
        sources = [medium.devices[i].position_m for i in (0, 19, 39)]
        beyond = [
            events
            for device, events in zip(medium.devices, full)
            if all(math.dist(device.position_m, xy) > reach * radius for xy in sources)
        ]
        assert any(beyond), "no device that far out heard anything"

    def test_the_script_actually_culls(self, monkeypatch):
        force_pass(monkeypatch, grid=False)
        full_medium, _ = _scripted_run()
        force_pass(monkeypatch, grid=True)
        grid_medium, _ = _scripted_run()
        assert full_medium._grid is None
        assert grid_medium._grid is not None
        # The full pass touches every directed pair; the grid only
        # candidates.
        assert len(grid_medium._pair_cache) < len(full_medium._pair_cache)


class TestModeDispatch:
    def _wide_medium(self, n, static_sigma=0.0):
        sim = Simulator()
        channel = ChannelModel(
            fast_sigma_db=0.0, static_sigma_db=static_sigma, rng=random.Random(1)
        )
        medium = Medium(sim, channel)
        devices = []
        for index in range(n):
            device = FakeDevice(sim, (index * 40.0, 0.0))
            medium.attach(device)
            devices.append(device)
        return sim, medium, devices

    def test_auto_stays_dense_below_the_cutoff(self):
        sim, medium, devices = self._wide_medium(medium_module.AUTO_SPATIAL_CUTOFF - 1)
        medium.transmit(devices[0], "f", duration_ns=1000, tx_power_dbm=15.0)
        sim.run()
        assert medium._grid is None

    def test_auto_engages_the_grid_at_scale(self):
        sim, medium, devices = self._wide_medium(medium_module.AUTO_SPATIAL_CUTOFF)
        medium.transmit(devices[0], "f", duration_ns=1000, tx_power_dbm=15.0)
        sim.run()
        assert medium._grid is not None

    def test_loss_hooks_pin_the_dense_path(self, monkeypatch):
        force_pass(monkeypatch, grid=True)
        sim, medium, devices = self._wide_medium(32)
        medium.add_loss_hook(lambda source, receiver, time_ns: 0.0)
        medium.transmit(devices[0], "f", duration_ns=1000, tx_power_dbm=15.0)
        sim.run()
        assert medium._grid is None

    def test_static_shadowing_pins_the_dense_path(self, monkeypatch):
        force_pass(monkeypatch, grid=True)
        sim, medium, devices = self._wide_medium(32, static_sigma=3.0)
        medium.transmit(devices[0], "f", duration_ns=1000, tx_power_dbm=15.0)
        sim.run()
        assert medium._grid is None

    def test_cull_radius_exists_for_realistic_power(self):
        _, medium, _ = self._wide_medium(2)
        radius = medium.cull_radius_m(15.0)
        assert radius is not None
        assert 100.0 < radius < 1000.0


def _reference_transmit(medium, source, frame, duration_ns, tx_power_dbm):
    """The original dense delivery loop, kept as the draw-order oracle.

    Per receiver in index order: the pair lookup (a cache miss draws the
    link's static shadowing), then one ``variable_loss_db`` call (fast
    shadowing, weather update), then the loss hooks.
    """
    source_index = medium._device_indices[source]
    now = medium._sim.now_ns
    signal = Signal(
        source,
        frame,
        tx_power_dbm,
        now,
        now + duration_ns,
        signal_id=next(medium._signal_ids),
    )
    channel = medium._channel
    hooks = medium._loss_hooks
    pair_cache = medium._pair_cache
    pair_partners = medium._pair_partners
    floor_dbm = medium._delivery_floor_dbm
    schedule = medium._sim.schedule_slot
    source_pos = source.position_m
    for device_index, device in enumerate(medium.devices):
        if device is source:
            continue
        device_pos = device.position_m
        pair_key = (source_index, device_index)
        entry = pair_cache.get(pair_key)
        if (
            entry is None
            or entry[0] is not source_pos
            or entry[1] is not device_pos
        ):
            base_db = channel.base_loss_db(
                source_pos, device_pos, source_index, device_index
            )
            delay_ns = medium.propagation_delay_ns(source_pos, device_pos)
            entry = (source_pos, device_pos, base_db, delay_ns)
            pair_cache[pair_key] = entry
            pair_partners.setdefault(source_index, set()).add(device_index)
            pair_partners.setdefault(device_index, set()).add(source_index)
        loss_db = entry[2] + channel.variable_loss_db(now)
        if hooks:
            for hook in hooks:
                loss_db += hook(source, device, now)
        rx_power_dbm = tx_power_dbm - loss_db
        if rx_power_dbm < floor_dbm:
            continue
        delay_ns = entry[3]
        schedule(delay_ns, device.on_signal_start, signal, rx_power_dbm)
        schedule(delay_ns + duration_ns, device.on_signal_end, signal)
    return signal


def _shadowed_run(transmit, fast_sigma_db, hook, weather_shares_rng):
    """A static-shadowing script (always the full pass); returns all events.

    Twenty stations — above the grid cutoff, so the full pass is forced
    by the static shadowing itself.  The weather process either has its
    own stream or shares the channel's, which pins where its per-frame
    update falls among the static and fast draws.
    """
    sim = Simulator()
    rng = random.Random(3)
    weather = WeatherProcess(
        rng if weather_shares_rng else random.Random(5),
        DayConditions(name="test", offset_db=1.0, sigma_db=2.0, correlation_time_s=0.5),
    )
    channel = ChannelModel(
        fast_sigma_db=fast_sigma_db, static_sigma_db=4.0, rng=rng, weather=weather
    )
    medium = Medium(sim, channel)
    layout = random.Random(9)
    devices = []
    for _ in range(20):
        device = FakeDevice(sim, (layout.uniform(0.0, 600.0), layout.uniform(0.0, 600.0)))
        medium.attach(device)
        devices.append(device)
    if hook:
        hook_rng = random.Random(11)
        medium.add_loss_hook(lambda source, receiver, time_ns: hook_rng.gauss(0.0, 1.0))
    mover = devices[7]
    for round_index in range(4):
        for tx in (devices[0], devices[9], devices[19]):
            transmit(medium, tx, f"frame-{round_index}", 1000, 15.0)
            sim.run()
        x, y = mover.position_m
        mover.position_m = (x + 50.0, y)
        medium.notify_moved(mover)
    return [device.events for device in devices]


class TestFullPassDrawOrder:
    """The full pass consumes draws exactly as the original dense loop."""

    @pytest.mark.parametrize("fast_sigma_db", [0.0, 2.5])
    @pytest.mark.parametrize("hook", [False, True])
    @pytest.mark.parametrize("weather_shares_rng", [False, True])
    def test_matches_the_reference_loop(self, fast_sigma_db, hook, weather_shares_rng):
        expected = _shadowed_run(
            _reference_transmit, fast_sigma_db, hook, weather_shares_rng
        )
        actual = _shadowed_run(Medium.transmit, fast_sigma_db, hook, weather_shares_rng)
        assert actual == expected
        assert sum(len(events) for events in expected) > 100


class TestValidation:
    def test_double_attach_rejected(self):
        sim, medium, (device,) = make_medium(0)
        with pytest.raises(MediumError):
            medium.attach(device)

    def test_unattached_transmitter_rejected(self):
        sim, medium, _ = make_medium(0)
        stranger = FakeDevice(sim, (5.0, 0.0))
        with pytest.raises(MediumError):
            medium.transmit(stranger, "frame", duration_ns=1000, tx_power_dbm=15.0)

    def test_non_positive_duration_rejected(self):
        sim, medium, (tx, _) = make_medium(0, 10)
        with pytest.raises(MediumError):
            medium.transmit(tx, "frame", duration_ns=0, tx_power_dbm=15.0)


def _reference_grid_transmit(medium, source, frame, duration_ns, tx_power_dbm):
    """The grid pass with a fresh ``GridIndex.near`` query for every frame.

    The oracle for the medium's reused candidate windows, with fast and
    static shadowing off and no hooks: the index is rebuilt from the
    current positions each frame, so nothing in it can be stale, and
    each link's geometry is computed afresh (which draws nothing).
    """
    channel = medium.channel
    floor_dbm = medium._delivery_floor_dbm
    radius_m = medium.cull_radius_m(tx_power_dbm)
    now = medium._sim.now_ns
    signal = Signal(
        source,
        frame,
        tx_power_dbm,
        now,
        now + duration_ns,
        signal_id=next(medium._signal_ids),
    )
    variable_db = channel.variable_loss_db(now)
    # The frame-level check under which the medium trusts the radius.
    assert tx_power_dbm - channel.mean_loss_db(radius_m) - variable_db < floor_dbm
    devices = medium.devices
    grid = GridIndex(radius_m / 2.0)
    for index, device in enumerate(devices):
        grid.add(index, device.position_m)
    source_index = medium._device_indices[source]
    source_pos = source.position_m
    schedule = medium._sim.schedule_slot
    for index in grid.near(source_pos, radius_m):
        device = devices[index]
        if device is source:
            continue
        device_pos = device.position_m
        loss_db = (
            channel.base_loss_db(source_pos, device_pos, source_index, index)
            + variable_db
        )
        rx_power_dbm = tx_power_dbm - loss_db
        if rx_power_dbm < floor_dbm:
            continue
        delay_ns = medium.propagation_delay_ns(source_pos, device_pos)
        schedule(delay_ns, device.on_signal_start, signal, rx_power_dbm)
        schedule(delay_ns + duration_ns, device.on_signal_end, signal)
    return signal


#: Per-round displacement of the mobile field's movers (device index ->
#: metres): one crosses a cell almost every round, one now and then,
#: one walks through a source's neighbourhood.
_FIELD_MOVES = {3: (170.0, 0.0), 7: (0.0, -120.0), 19: (45.0, 45.0), 30: (-60.0, -25.0)}


def _mobile_field_run(transmit):
    """A mobile field on the true grid pass; returns the medium, events, tracks.

    Forty stations (above the grid cutoff) on a jittered 150 m lattice
    with fast shadowing off.  Every source sends twice between moves,
    so candidate windows are reused as well as rebuilt; movers report
    each move through ``notify_moved``; one station attaches after the
    first frame, when the grid already exists.
    """
    sim = Simulator()
    medium = Medium(sim, ChannelModel(fast_sigma_db=0.0, rng=random.Random(2)))
    layout = random.Random(9)
    devices = []
    for index in range(40):
        device = FakeDevice(
            sim,
            (
                150.0 * (index % 8) + layout.uniform(-40.0, 40.0),
                150.0 * (index // 8) + layout.uniform(-40.0, 40.0),
            ),
        )
        medium.attach(device)
        devices.append(device)
    sources = [devices[index] for index in (0, 3, 19, 27, 39)]
    late = FakeDevice(sim, (devices[0].position_m[0] + 60.0, devices[0].position_m[1] + 30.0))
    tracks = {index: [devices[index].position_m] for index in _FIELD_MOVES}
    for round_index in range(8):
        for tx in sources:
            for copy in range(2):
                transmit(medium, tx, f"frame-{round_index}-{copy}", 1000, 15.0)
                sim.run()
                if late not in devices:
                    # Between two frames of one source, with no move in
                    # between: the second must reach the newcomer.
                    medium.attach(late)
                    devices.append(late)
        for index, (dx, dy) in _FIELD_MOVES.items():
            mover = devices[index]
            x, y = mover.position_m
            mover.position_m = (x + dx, y + dy)
            medium.notify_moved(mover)
            tracks[index].append(mover.position_m)
    return medium, [device.events for device in devices], tracks


class TestGridWindows:
    """Reused candidate windows emit what a fresh grid query would."""

    def test_mobile_field_matches_the_full_pass_and_a_fresh_query(self, monkeypatch):
        grid_medium, grid, tracks = _mobile_field_run(Medium.transmit)
        _, fresh, _ = _mobile_field_run(_reference_grid_transmit)
        force_pass(monkeypatch, grid=False)
        full_medium, full, _ = _mobile_field_run(Medium.transmit)
        assert grid == full
        assert grid == fresh
        assert full_medium._grid is None
        assert grid_medium._grid is not None
        # Not vacuous: the late station hears frames, movers both cross
        # cells and stay inside one, and most stations hear something.
        assert grid[-1]
        assert sum(bool(events) for events in grid) > 20
        cell_m = grid_medium.cull_radius_m(15.0) / 2.0

        def cell(position):
            return (position[0] // cell_m, position[1] // cell_m)

        steps = [
            cell(before) != cell(after)
            for track in tracks.values()
            for before, after in zip(track, track[1:])
        ]
        assert any(steps) and not all(steps)
