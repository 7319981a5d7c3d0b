"""Tests for the MAC parameter-response surface experiment."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.mac_surface import (
    DEFAULT_STATIONS,
    SURFACE_AXES,
    format_mac_surface,
    mac_surface_metrics,
    ring_positions,
    run_mac_surface,
    saturation_spec,
    surface_sweeps,
)
import repro.scenario.points as scenario_points
from repro.channel import medium as medium_module
from repro.parallel import SweepCache
from repro.scenario import ScenarioSpec, apply_overrides, build, run_scenarios

#: Collapse every axis so the whole surface is one point per axis.
PIN_ALL = {
    "cw_min": 32,
    "cw_max": 1024,
    "retry": 7,
    "slot_us": 20.0,
    "sifs_us": 10.0,
    "queue": 50,
}


def test_ring_positions_are_equidistant_from_the_sink():
    positions = ring_positions(5)
    assert positions[0] == (0.0, 0.0)
    assert len(positions) == 6
    for x, y in positions[1:]:
        assert (x * x + y * y) ** 0.5 == pytest.approx(5.0)


def test_saturation_spec_round_trips_canonically():
    spec = saturation_spec(3, duration_s=0.5, seed=7)
    restored = ScenarioSpec.from_json(spec.to_json())
    assert restored == spec
    assert restored.canonical_json() == spec.canonical_json()
    assert len(spec.traffic.flows) == 3
    assert all(flow.rate_bps is None for flow in spec.traffic.flows)
    assert spec.observability.audit


def test_surface_rows_cover_every_axis_value():
    rows = surface_sweeps(stations=(2, 5), duration_s=0.5)
    per_n = sum(len(values) for _, _, values in SURFACE_AXES)
    assert len(rows) == 2 * per_n
    seen = {(n, label, value) for n, label, value, _ in rows}
    for label, _, values in SURFACE_AXES:
        for n in (2, 5):
            for value in values:
                assert (n, label, value) in seen


def test_pins_collapse_axes_and_reach_the_spec():
    rows = surface_sweeps(stations=(2,), duration_s=0.5, pins=PIN_ALL)
    assert len(rows) == len(SURFACE_AXES)
    for _, label, value, spec in rows:
        assert value == PIN_ALL[label]
    cw_row = next(spec for _, label, _, spec in rows if label == "cw_min")
    assert cw_row.stack.mac.cw_min_slots == 32


def test_unknown_pin_is_rejected_with_the_axis_menu():
    with pytest.raises(ExperimentError, match="cw_minn.*accepted"):
        surface_sweeps(pins={"cw_minn": 32})


def test_metrics_shape_and_fairness_bounds():
    spec = saturation_spec(2, duration_s=0.3, warmup_s=0.1)
    net = build(spec)
    net.run(spec.duration_s)
    total_bps, mean_delay_s, jain = mac_surface_metrics(net)
    assert total_bps > 1e6  # saturated 11 Mbps channel
    assert 0.0 < mean_delay_s < 1.0
    assert 0.5 <= jain <= 1.0


def test_surface_output_identical_serial_pooled_and_cached(tmp_path):
    """The acceptance matrix: serial == --jobs 2 == warm cache, bytewise."""
    kwargs = dict(
        stations=(2,), duration_s=0.3, seed=1, pins=PIN_ALL
    )
    cache = SweepCache(root=tmp_path / "cache")
    serial = format_mac_surface(run_mac_surface(**kwargs))
    pooled = format_mac_surface(run_mac_surface(**kwargs, jobs=2, cache=cache))
    warm = format_mac_surface(run_mac_surface(**kwargs, cache=cache))
    assert serial == pooled == warm
    assert cache.hits > 0


#: The Table 1 value on each axis: these six rows per station count
#: build the same default network.
TABLE1 = {
    "cw_min": 32,
    "cw_max": 1024,
    "retry": 7,
    "slot_us": 20.0,
    "sifs_us": 10.0,
    "queue": 200,
}


def test_default_surface_simulates_each_distinct_network_once(monkeypatch):
    # The work guard: 26 rows from 16 builds.  A new MacParamsSpec field
    # or axis that normalisation misses shows up here as extra builds.
    builds = []

    def counting_build(spec):
        builds.append(spec)
        return build(spec)

    monkeypatch.setattr(scenario_points, "build", counting_build)
    for _ in range(2):  # no memo outlives a sweep: each call builds 16
        builds.clear()
        points = run_mac_surface(duration_s=0.1, warmup_s=0.05, cache=None)
        assert len(points) == 26
        assert len(builds) == 16
    for n in DEFAULT_STATIONS:
        defaults = {
            (point.throughput_bps, point.model_bps, point.mean_delay_s, point.jain)
            for point in points
            if point.stations == n and TABLE1[point.axis] == point.value
        }
        assert len(defaults) == 1, defaults


@pytest.mark.parametrize(
    "overrides",
    [
        {"cw_min_slots": 8, "cw_max_slots": 16},
        {"cw_min_slots": 2048, "cw_max_slots": 4096},
        {"sifs_us": 2.0, "difs_us": 5.0},
    ],
    ids=["cw-8-16", "cw-2048-4096", "sifs-2-difs-5"],
)
def test_overrides_valid_only_together_sweep_as_written(overrides):
    # Either half alone meets an inconsistent Table 1 default (CWmin 32
    # above CWmax 16, CWmin 2048 above CWmax 1024, SIFS 10 above DIFS 5),
    # so the sweep must keep both and run the network as written.
    spec = apply_overrides(
        saturation_spec(2, duration_s=0.1, warmup_s=0.05),
        {f"stack.mac.{name}": value for name, value in overrides.items()},
    )
    [row] = run_scenarios(
        [spec], extract="repro.experiments.mac_surface:mac_surface_metrics"
    )
    net = build(spec)
    net.run(spec.duration_s)
    assert row == mac_surface_metrics(net)


# ------------------------------------------- cross-pass determinism
#
# One small mac-surface point must produce bit-identical event streams
# on the medium's full pass and on its grid pass — culling is an
# optimisation, not physics.  The cutoff is the seam that forces each.


def _digest_spec() -> ScenarioSpec:
    spec = saturation_spec(2, duration_s=0.3, warmup_s=0.1)
    doc = spec.to_dict()
    doc["observability"]["trace_digest"] = True
    return ScenarioSpec.from_dict(doc)


def test_trace_digest_identical_on_full_pass_and_grid(monkeypatch):
    digests = {}
    for name, cutoff in (("full", 10**9), ("grid", 0)):
        monkeypatch.setattr(medium_module, "AUTO_SPATIAL_CUTOFF", cutoff)
        [row] = run_scenarios(
            [_digest_spec()], extract="repro.obs.export:trace_digest_row"
        )
        assert row["records"] > 0
        digests[name] = row["trace_sha256"]
    assert digests["full"] == digests["grid"], repr(digests)
