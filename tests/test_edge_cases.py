"""Cross-cutting edge cases that don't belong to a single package."""

import pytest

from repro.apps.cbr import CbrSource
from repro.apps.sink import UdpSink
from repro.core.params import Rate
from repro.scenario import build_network
from repro.sim.engine import Simulator


class TestEngineRobustness:
    def test_exception_in_callback_propagates_but_leaves_engine_usable(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("callback failure")

        fired = []
        sim.schedule(100, boom)
        sim.schedule(200, fired.append, "after")
        with pytest.raises(RuntimeError):
            sim.run()
        # The failed event is consumed; the engine keeps going.
        sim.run()
        assert fired == ["after"]

    def test_clock_never_goes_backwards_across_runs(self):
        sim = Simulator()
        sim.run(until_s=1.0)
        stamps = []
        sim.schedule_s(0.5, lambda: stamps.append(sim.now_s))
        sim.run(until_s=3.0)
        assert stamps == [pytest.approx(1.5)]
        assert sim.now_s == pytest.approx(3.0)


class TestTimestampedDelays:
    def test_sink_records_one_way_delays(self):
        net = build_network([0, 10], data_rate=Rate.MBPS_11, fast_sigma_db=0.0)
        sink = UdpSink(net[1], port=5001)
        CbrSource(
            net[0],
            dst=2,
            dst_port=5001,
            payload_bytes=512,
            rate_bps=500_000,
            timestamped=True,
        )
        net.run(1.0)
        assert sink.delays.count > 40
        # One-way delay of an uncontended frame: DIFS + frame + margin,
        # well under 2 ms at 11 Mbps.
        assert 0.0005 < sink.delays.mean_s < 0.002
        # Sequences are still tracked from the tuple payloads.
        assert sink.sequences == sorted(sink.sequences)


class TestMixedTraffic:
    def test_udp_and_tcp_coexist_on_one_link(self):
        from repro.apps.bulk import BulkTcpReceiver, BulkTcpSender

        net = build_network([0, 10], data_rate=Rate.MBPS_11, fast_sigma_db=0.0)
        sink = UdpSink(net[1], port=5001, warmup_s=0.5)
        CbrSource(
            net[0], dst=2, dst_port=5001, payload_bytes=512, rate_bps=800_000
        )
        receiver = BulkTcpReceiver(net[1], port=80, warmup_s=0.5)
        BulkTcpSender(net[0], dst=2, dst_port=80)
        net.run(3.0)
        udp_mbps = sink.throughput_bps(3.0) / 1e6
        tcp_mbps = receiver.throughput_bps(3.0) / 1e6
        # The rate-limited UDP flow keeps its offered rate; TCP absorbs
        # the rest of the channel.
        assert udp_mbps == pytest.approx(0.8, rel=0.1)
        assert tcp_mbps > 1.0

    def test_station_can_send_and_receive_concurrently(self):
        net = build_network([0, 10], data_rate=Rate.MBPS_11, fast_sigma_db=0.0)
        sink_at_1 = UdpSink(net[0], port=5001, warmup_s=0.2)
        sink_at_2 = UdpSink(net[1], port=5001, warmup_s=0.2)
        CbrSource(net[0], dst=2, dst_port=5001, payload_bytes=512,
                  rate_bps=500_000)
        CbrSource(net[1], dst=1, dst_port=5001, payload_bytes=512,
                  rate_bps=500_000)
        net.run(2.0)
        assert sink_at_1.throughput_bps(2.0) == pytest.approx(500_000, rel=0.1)
        assert sink_at_2.throughput_bps(2.0) == pytest.approx(500_000, rel=0.1)


class TestFaultDeterminism:
    def test_same_seed_and_schedule_give_bit_identical_traces(self):
        """Two runs with the same seed + fault schedule must match exactly.

        This is the property that makes the hardened runner's
        retry-with-perturbed-seed meaningful: a *re-run* of the same
        seed reproduces the failure, while a perturbed seed explores a
        genuinely different trajectory.
        """
        from repro.faults import (
            ClockJitter,
            FaultSchedule,
            NodeCrash,
            link_blackout,
        )

        def one_run(seed):
            net = build_network([0, 10], data_rate=Rate.MBPS_11, seed=seed)
            trace = []
            net.tracer.subscribe(lambda record: trace.append(str(record)))
            UdpSink(net[1], port=5001)
            CbrSource(
                net[0], dst=2, dst_port=5001, payload_bytes=512,
                rate_bps=600_000,
            )
            FaultSchedule(
                [
                    link_blackout(0.4, 0.3, node_a=0, node_b=1),
                    NodeCrash(start_s=1.0, duration_s=0.4, node=0),
                    ClockJitter(start_s=0.0, duration_s=None, node=1,
                                sigma_ns=1500.0),
                ]
            ).install(net)
            net.run(2.0)
            return trace

        first = one_run(seed=11)
        second = one_run(seed=11)
        assert len(first) > 500
        assert first == second
        # And a different seed really does diverge.
        assert one_run(seed=12) != first


class TestMediumDeviceKeying:
    """Regression: device keys must not be recycled object ids (PR 3).

    ``Medium`` used to key its attach set and per-pair geometry cache by
    ``id(device)``.  CPython reuses ids the moment an object is
    collected, so a detached-and-collected device could alias a new one
    — passing attach checks it should fail and serving stale base-loss
    entries.  Keys are now per-medium monotonic indices, which makes
    them independent of allocation history altogether.
    """

    class _Probe:
        """Minimal MediumDevice: records the powers it hears."""

        def __init__(self, position_m):
            self.position_m = position_m
            self.rx_powers = []

        def on_signal_start(self, signal, rx_power_dbm):
            self.rx_powers.append(rx_power_dbm)

        def on_signal_end(self, signal):
            pass

    def _run_once(self, channel):
        from repro.channel.medium import Medium
        from repro.sim.engine import Simulator

        sim = Simulator()
        medium = Medium(sim, channel)
        sender = self._Probe((0.0, 0.0))
        receiver = self._Probe((25.0, 0.0))
        medium.attach(sender)
        medium.attach(receiver)
        medium.transmit(sender, "frame", duration_ns=1000, tx_power_dbm=15.0)
        sim.run()
        return receiver.rx_powers

    def test_sequential_mediums_use_identical_non_id_keys(self):
        import gc
        import random

        from repro.channel.shadowing import ChannelModel

        # One channel model shared by two sequentially created mediums —
        # the sweep-worker shape: scenario B starts after scenario A's
        # objects are garbage.  Static shadowing is drawn once per
        # (tx_key, rx_key); with id()-derived keys the second medium's
        # draw depended on allocation history, with per-medium indices
        # both mediums present the keys (0, 1) and hear bit-identical
        # channels.
        channel = ChannelModel(
            fast_sigma_db=0.0,
            static_sigma_db=6.0,
            rng=random.Random(7),
        )
        first = self._run_once(channel)
        gc.collect()
        second = self._run_once(channel)
        gc.collect()
        third = self._run_once(channel)
        assert len(first) == 1
        assert first == second == third

    def test_attach_checks_survive_gc_churn(self):
        import gc

        from repro.channel.medium import Medium, MediumError
        from repro.channel.shadowing import ChannelModel
        from repro.sim.engine import Simulator

        sim = Simulator()
        medium = Medium(sim, ChannelModel(fast_sigma_db=0.0))
        anchor = self._Probe((0.0, 0.0))
        medium.attach(anchor)
        # Churn through short-lived device objects with collections in
        # between: every fresh device must attach cleanly (an id-keyed
        # set could see a recycled id as "already attached"), and the
        # genuinely attached device must still be rejected.
        for step in range(50):
            probe = self._Probe((float(step + 1), 0.0))
            medium.attach(probe)
            del probe
            gc.collect()
        with pytest.raises(MediumError):
            medium.attach(anchor)
        assert len(medium.devices) == 51


class TestPairCacheMobilityEviction:
    """Regression: a move must evict pair-cache rows, not strand them (PR 9).

    Before the spatial medium landed, a moved device's cached geometry
    was only *overwritten* when its pair transmitted again; rows for
    pairs that stopped being neighbours lingered forever.  A reported
    move (``Medium.notify_moved``, which every supported mover fires via
    the transceiver's position property) now drops every row touching
    the mover, so long mobile runs never accumulate stale geometry.
    """

    class _Probe:
        def __init__(self, position_m):
            self.position_m = position_m

        def on_signal_start(self, signal, rx_power_dbm):
            pass

        def on_signal_end(self, signal):
            pass

    @pytest.fixture(autouse=True)
    def _grid_pass(self, monkeypatch):
        from repro.channel import medium

        monkeypatch.setattr(medium, "AUTO_SPATIAL_CUTOFF", 0)

    def _make(self, n=18, spacing=40.0):
        import random

        from repro.channel.medium import Medium
        from repro.channel.shadowing import ChannelModel
        from repro.sim.engine import Simulator

        sim = Simulator()
        medium = Medium(sim, ChannelModel(fast_sigma_db=0.0, rng=random.Random(3)))
        probes = [self._Probe((index * spacing, 0.0)) for index in range(n)]
        for probe in probes:
            medium.attach(probe)
        return sim, medium, probes

    def test_notify_moved_evicts_every_row_touching_the_mover(self):
        sim, medium, probes = self._make()
        for probe in probes:
            medium.transmit(probe, "fill", duration_ns=1000, tx_power_dbm=15.0)
        sim.run()
        assert any(0 in key for key in medium._pair_cache)
        probes[0].position_m = (5000.0, 0.0)
        medium.notify_moved(probes[0])
        assert not any(0 in key for key in medium._pair_cache)
        assert 0 not in medium._pair_partners
        assert all(0 not in partners for partners in medium._pair_partners.values())

    def test_cache_stays_bounded_under_position_churn(self):
        sim, medium, probes = self._make()
        mover = probes[0]
        sizes = []
        for round_index in range(40):
            # Oscillate: fresh tuple every round, same two geometries.
            mover.position_m = (1.0 if round_index % 2 else 0.0, 0.0)
            medium.notify_moved(mover)
            medium.transmit(
                mover, f"frame-{round_index}", duration_ns=1000, tx_power_dbm=15.0
            )
            sim.run()
            sizes.append(len(medium._pair_cache))
        # Only the mover transmits, and the grid culls: fewer rows than
        # even its full partner count, and no growth across churn.
        assert max(sizes) < len(probes) - 1
        assert sizes[-1] == sizes[-3]
        assert sizes[-2] == sizes[-4]
