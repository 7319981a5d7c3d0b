"""Exact MAC timing verified from trace timestamps.

The DCF's value as a substrate rests on its timing discipline; these
tests pin the microsecond-level behaviour: DIFS before an immediate
transmission, SIFS between data and ACK, backoff in whole slots, EIFS
after an erroneous reception.
"""

import pytest

from repro.core.airtime import AirtimeCalculator
from repro.core.params import BASIC_RATE_SET, Dot11bConfig, MacParameters, PlcpParameters, Rate
from repro.mac.frames import AckFrame, CtsFrame, DataFrame, RtsFrame
from repro.phy.plans import control_frame_plan, data_frame_plan
from repro.units import us_to_ns
from tests.util import build_mac_network


class Recorder:
    """Collects (time_ns, category.event) pairs from the tracer."""

    def __init__(self, network, prefix=""):
        self.entries = []
        network.tracer.subscribe(self._on_record, prefix=prefix)

    def _on_record(self, record):
        self.entries.append((record.time_ns, f"{record.category}.{record.event}"))

    def times(self, key):
        return [t for t, k in self.entries if k == key]


class TestDcfTiming:
    def test_immediate_access_waits_exactly_difs(self):
        net = build_mac_network([0, 20])
        recorder = Recorder(net)
        net[0].mac.enqueue("x", dst=2, msdu_bytes=540)
        net.sim.run(until_s=0.1)
        tx_start = recorder.times("phy.s1.tx_start")[0]
        # Enqueue at t=0 on an idle medium: TX begins DIFS (50 us) later.
        assert tx_start == 50_000

    def test_ack_follows_data_after_sifs(self):
        net = build_mac_network([0, 20], data_rate=Rate.MBPS_2)
        recorder = Recorder(net)
        net[0].mac.enqueue("x", dst=2, msdu_bytes=540)
        net.sim.run(until_s=0.1)
        data_start = recorder.times("phy.s1.tx_start")[0]
        ack_start = recorder.times("phy.s2.tx_start")[0]
        # Data airtime at 2 Mbps: 192 + 136 + 2160 us; propagation ~67 ns
        # each way; ACK starts SIFS (10 us) after the data ends at S2.
        from repro.core.airtime import AirtimeCalculator

        data_us = AirtimeCalculator().data_frame_us(540, Rate.MBPS_2)
        expected = data_start + round(data_us * 1000) + 10_000
        assert ack_start == pytest.approx(expected, abs=200)  # 2x propagation

    def test_post_backoff_is_whole_slots_after_difs(self):
        net = build_mac_network([0, 20], data_rate=Rate.MBPS_2)
        recorder = Recorder(net)
        net[0].mac.enqueue("a", dst=2, msdu_bytes=540)
        net[0].mac.enqueue("b", dst=2, msdu_bytes=540)
        net.sim.run(until_s=0.2)
        ack_end_approx = None
        # Second data TX must start at (ack end + DIFS + k * slot).
        s1_tx = recorder.times("phy.s1.tx_start")
        s2_tx_end = recorder.times("phy.s2.tx_end")
        assert len(s1_tx) == 2
        first_ack_end = s2_tx_end[0]
        gap_ns = s1_tx[1] - first_ack_end
        mac = MacParameters()
        after_difs = gap_ns - round(mac.difs_us * 1000)
        assert after_difs >= 0
        slot_ns = round(mac.slot_time_us * 1000)
        # Within propagation slack of a whole number of slots.
        remainder = after_difs % slot_ns
        assert min(remainder, slot_ns - remainder) < 500
        # And within the initial contention window.
        assert after_difs // slot_ns <= mac.cw_min_slots

    def test_rts_cts_sifs_chain(self):
        net = build_mac_network([0, 20], data_rate=Rate.MBPS_2, rts_enabled=True)
        recorder = Recorder(net)
        net[0].mac.enqueue("x", dst=2, msdu_bytes=540)
        net.sim.run(until_s=0.1)
        s1_starts = recorder.times("phy.s1.tx_start")  # RTS, DATA
        s2_starts = recorder.times("phy.s2.tx_start")  # CTS, ACK
        assert len(s1_starts) == 2
        assert len(s2_starts) == 2
        from repro.core.airtime import AirtimeCalculator

        airtime = AirtimeCalculator()
        rts_ns = round(airtime.rts_us() * 1000)
        cts_ns = round(airtime.cts_us() * 1000)
        # CTS starts SIFS after the RTS ends (+|prop| slack).
        assert s2_starts[0] == pytest.approx(
            s1_starts[0] + rts_ns + 10_000, abs=200
        )
        # DATA starts SIFS after the CTS ends.
        assert s1_starts[1] == pytest.approx(
            s2_starts[0] + cts_ns + 10_000, abs=200
        )

    def test_eifs_after_erroneous_reception(self):
        from repro.core.params import PlcpParameters

        # s2 (at 60 m from s3) sends an 11 Mbps frame: s3 locks the PLCP
        # but cannot decode the payload (range 31 m) -> erroneous
        # reception -> s3's next access must wait EIFS, not DIFS.
        net = build_mac_network([0, 60, 120], data_rate=Rate.MBPS_11)
        recorder = Recorder(net)
        net[1].mac.enqueue("to-s1", dst=1, msdu_bytes=540)
        # Enqueue on s3 while s2's frame is still in the air (it flies
        # from ~50 us to ~771 us).
        net.sim.schedule(400_000, net[2].mac.enqueue, "after-error", 2, 540)
        net.sim.run(until_s=0.1)
        assert net[2].mac.counters.rx_errors >= 1
        error_end = recorder.times("phy.s3.rx_end")[0]
        tx_start = recorder.times("phy.s3.tx_start")[0]
        eifs_ns = round(
            MacParameters().eifs_us(PlcpParameters.long()) * 1000
        )
        # Arrival on a busy medium draws a backoff, so the wait is
        # EIFS (364 us) plus a whole number of slots — in particular it
        # is far above anything DIFS (50 us) could produce.
        wait_ns = tx_start - error_end
        assert wait_ns >= eifs_ns - 500
        slot_ns = round(MacParameters().slot_time_us * 1000)
        slots = (wait_ns - eifs_ns) / slot_ns
        assert abs(slots - round(slots)) < 0.05
        assert 0 <= round(slots) < MacParameters().cw_min_slots


@pytest.mark.parametrize("control_rate", BASIC_RATE_SET, ids=str)
@pytest.mark.parametrize("plcp", ["long", "short"])
class TestFrameDurationFields:
    """Duration fields, NAV reset and control plans equal the calculator's.

    Compared with ``==``: each must be bit-identical to the airtime
    expression the standard gives, for both PLCP formats and each
    control rate.
    """

    RATE = Rate.MBPS_11

    def network(self, plcp, control_rate, **kwargs):
        plcp_params = PlcpParameters.long() if plcp == "long" else PlcpParameters.short()
        dot11 = Dot11bConfig(plcp=plcp_params, control_rate=control_rate)
        net = build_mac_network([0, 20], data_rate=self.RATE, dot11=dot11, **kwargs)
        sent = []
        for station in net.stations:
            phy = station.phy

            def transmit(plan, frame, _transmit=phy.transmit):
                sent.append((plan, frame))
                return _transmit(plan, frame)

            phy.transmit = transmit
        return net, AirtimeCalculator(dot11), dot11.mac, sent

    def test_rts_cts_data_ack(self, plcp, control_rate):
        net, airtime, mac, sent = self.network(plcp, control_rate, rts_enabled=True)
        net[0].mac.enqueue("x", dst=2, msdu_bytes=540)
        net.sim.run(until_s=0.1)
        (rts_plan, rts), (cts_plan, cts), (data_plan, data), (ack_plan, ack) = sent
        assert [type(frame) for frame in (rts, cts, data, ack)] == [
            RtsFrame, CtsFrame, DataFrame, AckFrame,
        ]
        assert rts.duration_us == (
            3 * mac.sifs_us
            + airtime.cts_us()
            + airtime.data_frame_us(540, self.RATE)
            + airtime.ack_us()
        )
        assert cts.duration_us == max(
            0.0, rts.duration_us - mac.sifs_us - airtime.cts_us()
        )
        assert data.duration_us == mac.sifs_us + airtime.ack_us()
        assert ack.duration_us == 0.0
        assert rts_plan == control_frame_plan("rts", mac.rts_bits, airtime)
        assert cts_plan == control_frame_plan("cts", mac.cts_bits, airtime)
        assert ack_plan == control_frame_plan("ack", mac.ack_bits, airtime)
        assert data_plan == data_frame_plan(540, self.RATE, airtime)

    def test_fragment_nav_chain(self, plcp, control_rate):
        net, airtime, mac, sent = self.network(
            plcp, control_rate, fragmentation_threshold_bytes=256
        )
        net[0].mac.enqueue("x", dst=2, msdu_bytes=540)
        net.sim.run(until_s=0.1)
        fragments = [frame for _, frame in sent if isinstance(frame, DataFrame)]
        assert [frame.msdu_bytes for frame in fragments] == [256, 256, 28]
        chained = [
            3 * mac.sifs_us + 2 * airtime.ack_us() + airtime.data_frame_us(size, self.RATE)
            for size in (256, 28)
        ]
        assert [frame.duration_us for frame in fragments] == [
            *chained,
            mac.sifs_us + airtime.ack_us(),
        ]

    def test_nav_reset_after_missing_cts(self, plcp, control_rate):
        net, airtime, mac, _ = self.network(plcp, control_rate)
        recorder = Recorder(net)
        # A bare RTS to an absent station: station 2 sets its NAV, sees
        # no CTS follow and resets the NAV after the grace period.
        rts = RtsFrame(src=1, dst=9, duration_us=2000.0, msdu_bytes=540)
        net[0].phy.transmit(control_frame_plan("rts", mac.rts_bits, airtime), rts)
        net.sim.run(until_s=0.1)
        (rts_end,) = recorder.times("phy.s2.rx_end")
        (reset,) = recorder.times("mac.2.nav_reset")
        assert reset - rts_end == (
            2 * us_to_ns(mac.sifs_us)
            + us_to_ns(airtime.cts_us())
            + 2 * us_to_ns(mac.slot_time_us)
        )
