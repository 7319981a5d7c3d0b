"""Integration tests of the transceiver over a real medium."""

import dataclasses
import random

import pytest

from repro.channel.medium import Medium, Signal
from repro.channel.shadowing import ChannelModel
from repro.core.airtime import AirtimeCalculator
from repro.core.params import Rate
from repro.errors import MacError
from repro.phy.plans import control_frame_plan, data_frame_plan
from repro.phy.radio import RadioParameters
from repro.phy.reception import ReceptionOutcome
from repro.phy.transceiver import PhyFrame, PhyListener, PhyState, Transceiver
from repro.sim.engine import Simulator


class Probe(PhyListener):
    """Records every PHY callback with its time."""

    def __init__(self, sim):
        self._sim = sim
        self.events = []

    def on_cs_busy(self):
        self.events.append((self._sim.now_ns, "cs_busy"))

    def on_cs_idle(self):
        self.events.append((self._sim.now_ns, "cs_idle"))

    def on_rx_start(self):
        self.events.append((self._sim.now_ns, "rx_start"))

    def on_rx_end(self, mac_frame, outcome):
        self.events.append((self._sim.now_ns, "rx_end", mac_frame, outcome))

    def on_tx_end(self):
        self.events.append((self._sim.now_ns, "tx_end"))

    def names(self):
        return [event[1] for event in self.events]


def make_network(*distances_m, seed=3):
    """A sim + medium + one transceiver per position, with probes."""
    sim = Simulator()
    channel = ChannelModel(fast_sigma_db=0.0, rng=random.Random(seed))
    medium = Medium(sim, channel)
    radio = RadioParameters.calibrated()
    airtime = AirtimeCalculator()
    stations = []
    for index, x in enumerate(distances_m):
        phy = Transceiver(
            sim,
            medium,
            radio,
            name=f"s{index}",
            position_m=(float(x), 0.0),
            rng=random.Random(seed + index),
        )
        probe = Probe(sim)
        phy.set_listener(probe)
        stations.append((phy, probe))
    return sim, medium, airtime, stations


class TestTransmitReceive:
    def test_nearby_station_decodes_data_frame(self):
        sim, _, airtime, stations = make_network(0, 10)
        (tx, tx_probe), (rx, rx_probe) = stations
        plan = data_frame_plan(540, Rate.MBPS_11, airtime)
        tx.transmit(plan, mac_frame="hello")
        sim.run()
        assert "tx_end" in tx_probe.names()
        rx_end = [e for e in rx_probe.events if e[1] == "rx_end"]
        assert len(rx_end) == 1
        assert rx_end[0][2] == "hello"
        assert rx_end[0][3] is ReceptionOutcome.OK

    def test_station_beyond_range_gets_nothing(self):
        sim, _, airtime, stations = make_network(0, 200)
        (tx, _), (rx, rx_probe) = stations
        plan = data_frame_plan(540, Rate.MBPS_11, airtime)
        tx.transmit(plan, mac_frame="hello")
        sim.run()
        assert "rx_end" not in rx_probe.names()
        assert "cs_busy" not in rx_probe.names()

    def test_payload_rate_limits_decoding_but_not_following(self):
        # At 60 m an 11 Mbps payload is undecodable (range 31 m) but the
        # PLCP locks and the MAC hears an erroneous frame.
        sim, _, airtime, stations = make_network(0, 60)
        (tx, _), (rx, rx_probe) = stations
        plan = data_frame_plan(540, Rate.MBPS_11, airtime)
        tx.transmit(plan, mac_frame="fast")
        sim.run()
        rx_end = [e for e in rx_probe.events if e[1] == "rx_end"]
        assert rx_end[0][2] is None
        assert rx_end[0][3] is ReceptionOutcome.BELOW_SENSITIVITY

    def test_same_distance_2_mbps_decodes(self):
        sim, _, airtime, stations = make_network(0, 60)
        (tx, _), (rx, rx_probe) = stations
        plan = data_frame_plan(540, Rate.MBPS_2, airtime)
        tx.transmit(plan, mac_frame="slow")
        sim.run()
        rx_end = [e for e in rx_probe.events if e[1] == "rx_end"]
        assert rx_end[0][2] == "slow"

    def test_transmitter_goes_busy_then_idle(self):
        sim, _, airtime, stations = make_network(0, 10)
        (tx, tx_probe), _ = stations
        plan = control_frame_plan("ack", 112, airtime)
        duration = tx.transmit(plan, mac_frame="ack")
        assert tx.state is PhyState.TX
        assert tx.cs_busy
        sim.run()
        assert tx.state is PhyState.IDLE
        assert not tx.cs_busy
        assert (duration, "tx_end") in [(e[0], e[1]) for e in tx_probe.events]

    def test_receiver_cs_tracks_signal(self):
        sim, _, airtime, stations = make_network(0, 10)
        (tx, _), (rx, rx_probe) = stations
        plan = data_frame_plan(540, Rate.MBPS_2, airtime)
        tx.transmit(plan, mac_frame="x")
        sim.run()
        names = rx_probe.names()
        assert names.index("cs_busy") < names.index("cs_idle")
        assert not rx.cs_busy

    def test_transmit_while_transmitting_is_an_error(self):
        sim, _, airtime, stations = make_network(0, 10)
        (tx, _), _ = stations
        plan = control_frame_plan("ack", 112, airtime)
        tx.transmit(plan, mac_frame="a")
        with pytest.raises(MacError):
            tx.transmit(plan, mac_frame="b")


class TestCollisions:
    def test_two_overlapping_transmissions_collide_at_receiver(self):
        # Senders 40 m either side of the receiver, transmitting at the
        # same instant at 2 Mbps: comparable powers, SINR ~0 dB, loss.
        sim, _, airtime, stations = make_network(0, 40, 80)
        (a, _), (rx, rx_probe), (b, _) = stations
        plan = data_frame_plan(540, Rate.MBPS_2, airtime)
        a.transmit(plan, mac_frame="from-a")
        b.transmit(plan, mac_frame="from-b")
        sim.run()
        decoded = [e[2] for e in rx_probe.events if e[1] == "rx_end"]
        assert decoded in ([None], [])  # either failed lock or failed SINR

    def test_hidden_terminal_interference_mid_frame(self):
        # B starts halfway through A's frame: the receiver locked on A,
        # then B's comparable power destroys the payload.
        sim, _, airtime, stations = make_network(0, 40, 80)
        (a, _), (rx, rx_probe), (b, _) = stations
        plan = data_frame_plan(1052, Rate.MBPS_2, airtime)
        a.transmit(plan, mac_frame="from-a")
        sim.schedule(plan.duration_ns // 2, b.transmit, plan, "from-b")
        sim.run()
        rx_ends = [e for e in rx_probe.events if e[1] == "rx_end"]
        assert rx_ends[0][2] is None
        assert rx_ends[0][3] is ReceptionOutcome.SINR_FAILURE

    def test_far_interferer_does_not_destroy_frame(self):
        # Interferer at 150 m from the receiver while the sender is 10 m
        # away: SINR stays high and the frame survives.
        sim, _, airtime, stations = make_network(0, 10, 160)
        (a, _), (rx, rx_probe), (b, _) = stations
        plan = data_frame_plan(540, Rate.MBPS_2, airtime)
        a.transmit(plan, mac_frame="near")
        b.transmit(plan, mac_frame="far")
        sim.run()
        decoded = [e[2] for e in rx_probe.events if e[1] == "rx_end"]
        assert decoded == ["near"]

    def test_half_duplex_transmitter_misses_frames(self):
        sim, _, airtime, stations = make_network(0, 10)
        (a, a_probe), (b, _) = stations
        plan = data_frame_plan(540, Rate.MBPS_2, airtime)
        # Both transmit simultaneously: neither can receive the other.
        a.transmit(plan, mac_frame="from-a")
        b.transmit(plan, mac_frame="from-b")
        sim.run()
        assert "rx_start" not in a_probe.names()


class TestCapture:
    def _capture_radio(self, enabled):
        return RadioParameters.calibrated(
            capture_enabled=enabled, capture_margin_db=10.0
        )

    def test_stronger_late_frame_captures_during_preamble(self):
        sim = Simulator()
        channel = ChannelModel(fast_sigma_db=0.0, rng=random.Random(5))
        medium = Medium(sim, channel)
        airtime = AirtimeCalculator()
        radio = self._capture_radio(True)
        rx = Transceiver(sim, medium, radio, name="rx", position_m=(0.0, 0.0))
        probe = Probe(sim)
        rx.set_listener(probe)
        weak = Transceiver(sim, medium, radio, name="weak", position_m=(80.0, 0.0))
        strong = Transceiver(sim, medium, radio, name="strong", position_m=(5.0, 0.0))
        plan = data_frame_plan(540, Rate.MBPS_2, airtime)
        weak.transmit(plan, mac_frame="weak")
        # 50 us later (inside the 192 us preamble) the strong one starts.
        sim.schedule(50_000, strong.transmit, plan, "strong")
        sim.run()
        decoded = [e[2] for e in probe.events if e[1] == "rx_end" and e[2]]
        assert decoded == ["strong"]

    def test_capture_disabled_keeps_first_lock(self):
        sim = Simulator()
        channel = ChannelModel(fast_sigma_db=0.0, rng=random.Random(5))
        medium = Medium(sim, channel)
        airtime = AirtimeCalculator()
        radio = self._capture_radio(False)
        rx = Transceiver(sim, medium, radio, name="rx", position_m=(0.0, 0.0))
        probe = Probe(sim)
        rx.set_listener(probe)
        weak = Transceiver(sim, medium, radio, name="weak", position_m=(80.0, 0.0))
        strong = Transceiver(sim, medium, radio, name="strong", position_m=(5.0, 0.0))
        plan = data_frame_plan(540, Rate.MBPS_2, airtime)
        weak.transmit(plan, mac_frame="weak")
        sim.schedule(50_000, strong.transmit, plan, "strong")
        sim.run()
        decoded = [e[2] for e in probe.events if e[1] == "rx_end" and e[2]]
        # The weak frame is obliterated by the strong one and no capture
        # rescue is allowed: nothing decodes.
        assert decoded == []


OK = ReceptionOutcome.OK
SINR_FAILURE = ReceptionOutcome.SINR_FAILURE
ABORTED = ReceptionOutcome.ABORTED


class TestListenerEdgeSequences:
    """The exact listener call sequence for hand-built overlapping signals.

    Each signal is delivered straight to one transceiver at a chosen
    power, so the carrier-sense, lock, capture and reception edges
    follow from the thresholds alone: carrier sense at about -94.1 dBm,
    preamble lock at about -97.1 dBm, noise at -104 dBm.  Frames: 540 B
    at 2 Mbps (2488 us), 100 B at 1 Mbps (1264 us), an ACK (248 us).
    """

    AIRTIME = AirtimeCalculator()
    DATA_2M = data_frame_plan(540, Rate.MBPS_2, AIRTIME)
    DATA_1M = data_frame_plan(100, Rate.MBPS_1, AIRTIME)
    ACK = control_frame_plan("ack", 112, AIRTIME)

    def station(self, capture=False):
        sim = Simulator()
        medium = Medium(sim, ChannelModel(fast_sigma_db=0.0, rng=random.Random(1)))
        radio = dataclasses.replace(RadioParameters.calibrated(), capture_enabled=capture)
        phy = Transceiver(sim, medium, radio, name="rx", rng=random.Random(2))
        probe = Probe(sim)
        phy.set_listener(probe)
        return sim, phy, probe

    def arrive(self, sim, phy, start_us, rx_dbm, plan, mac_frame):
        """Schedule one signal's start and end at the receiver."""
        start_ns = start_us * 1000
        end_ns = start_ns + plan.duration_ns
        signal = Signal(
            source=None,
            frame=PhyFrame(mac_frame, plan),
            tx_power_dbm=15.0,
            start_ns=start_ns,
            end_ns=end_ns,
        )
        sim.schedule_at(start_ns, phy.on_signal_start, signal, rx_dbm)
        sim.schedule_at(end_ns, phy.on_signal_end, signal)

    def test_weak_signals_below_carrier_sense(self):
        sim, phy, probe = self.station()
        # Lockable but below carrier sense: the PHY follows it silently.
        self.arrive(sim, phy, 0, -96.0, self.DATA_1M, "first")
        # A second weak signal: neither alone trips carrier sense, their
        # sum does; it also ruins the locked frame.
        self.arrive(sim, phy, 300, -96.0, self.DATA_1M, "second")
        # Below preamble lock and carrier sense: no call at all.
        self.arrive(sim, phy, 2000, -99.0, self.DATA_1M, "third")
        sim.run()
        assert probe.events == [
            (0, "rx_start"),
            (300_000, "cs_busy"),
            (1_264_000, "rx_end", None, SINR_FAILURE),
            (1_264_000, "cs_idle"),
        ]

    def test_lockable_signal_with_interferers(self):
        sim, phy, probe = self.station()
        self.arrive(sim, phy, 0, -60.0, self.DATA_2M, "data")
        self.arrive(sim, phy, 1000, -85.0, self.ACK, "under-data")
        # Outlives the locked frame: carrier sense stays busy past its end.
        self.arrive(sim, phy, 2400, -80.0, self.ACK, "straddler")
        self.arrive(sim, phy, 3000, -70.0, self.ACK, "ack")
        sim.run()
        assert probe.events == [
            (0, "rx_start"),
            (0, "cs_busy"),
            (2_488_000, "rx_end", "data", OK),
            (2_648_000, "cs_idle"),
            (3_000_000, "rx_start"),
            (3_000_000, "cs_busy"),
            (3_248_000, "rx_end", "ack", OK),
            (3_248_000, "cs_idle"),
        ]

    def test_capture_during_preamble_only(self):
        sim, phy, probe = self.station(capture=True)
        self.arrive(sim, phy, 0, -80.0, self.DATA_2M, "weak")
        # 15 dB stronger inside the 192 us preamble: captures the receiver.
        self.arrive(sim, phy, 100, -65.0, self.DATA_2M, "strong")
        # Stronger again but after the preamble: no capture, only
        # interference that ruins the captured frame.
        self.arrive(sim, phy, 400, -50.0, self.DATA_2M, "late")
        sim.run()
        assert probe.events == [
            (0, "rx_start"),
            (0, "cs_busy"),
            (100_000, "rx_start"),
            (2_588_000, "rx_end", None, SINR_FAILURE),
            (2_888_000, "cs_idle"),
        ]

    def test_own_transmission_during_reception(self):
        sim, phy, probe = self.station()
        # Locked below carrier sense: our own TX both aborts the
        # reception and raises carrier sense.
        self.arrive(sim, phy, 0, -96.0, self.DATA_1M, "weak")
        sim.schedule_at(500_000, phy.transmit, self.ACK, "ack-1")
        # Locked above carrier sense: the abort raises no edge, and the
        # signal ends while we still transmit.
        self.arrive(sim, phy, 2000, -60.0, self.ACK, "strong")
        sim.schedule_at(2_100_000, phy.transmit, self.ACK, "ack-2")
        sim.run()
        assert probe.events == [
            (0, "rx_start"),
            (500_000, "rx_end", None, ABORTED),
            (500_000, "cs_busy"),
            (748_000, "cs_idle"),
            (748_000, "tx_end"),
            (2_000_000, "rx_start"),
            (2_000_000, "cs_busy"),
            (2_100_000, "rx_end", None, ABORTED),
            (2_348_000, "cs_idle"),
            (2_348_000, "tx_end"),
        ]

    def test_power_off_mid_signal_then_power_on(self):
        sim, phy, probe = self.station()
        self.arrive(sim, phy, 0, -60.0, self.DATA_2M, "cut")
        sim.schedule_at(1_000_000, phy.power_off)
        # Starts and ends while the radio is off.
        self.arrive(sim, phy, 1500, -60.0, self.ACK, "unheard")
        # Starts while off, ends after power-on: stays unheard.
        self.arrive(sim, phy, 1900, -96.0, self.DATA_1M, "straddler")
        sim.schedule_at(2_000_000, phy.power_on)
        self.arrive(sim, phy, 3500, -60.0, self.ACK, "after")
        sim.run()
        # power_off clears carrier sense without a call, so power_on
        # finds nothing to report.
        assert probe.events == [
            (0, "rx_start"),
            (0, "cs_busy"),
            (3_500_000, "rx_start"),
            (3_500_000, "cs_busy"),
            (3_748_000, "rx_end", "after", OK),
            (3_748_000, "cs_idle"),
        ]
        assert not phy.cs_busy
