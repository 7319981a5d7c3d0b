"""Self-tests of the benchmark harness: ``python -m pytest benchmarks/suite``."""

from __future__ import annotations

import importlib
import json
import re
import sys
from pathlib import Path

import pytest

from .metrics import (
    END_TO_END, PER_LAYER, PINNED_SEEDS, RUN_SECONDS, UNITS, count_failures, load_reference,
)
from .spans import (
    CALLBACK_REGISTRATIONS, ENTRY_POINTS, LAYERS, Probe, SpanRecorder, instrument,
    self_time_from_intervals, self_time_ns,
)
from .workloads import WORKLOADS, digest, result_digest

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(recorder: SpanRecorder, site: int, start: int, end: int, parent: int) -> int:
    recorder.site.append(site)
    recorder.start.append(start)
    recorder.end.append(end)
    recorder.parent.append(parent)
    recorder.point.append(0)
    return len(recorder.site) - 1


def test_self_time_subtracts_children_once_including_same_layer_nesting():
    recorder = SpanRecorder()
    mac = recorder.site_id("mac.MacStation.on_rx_end", "mac")
    mac_event = recorder.site_id("event.mac", "mac")
    phy = recorder.site_id("phy.Transceiver.transmit", "phy")
    sim = recorder.site_id("sim.Simulator.run", "sim")
    other = recorder.site_id("event.other", "other")
    root = _span(recorder, 0, 0, 100, -1)
    outer = _span(recorder, mac_event, 10, 60, root)
    _span(recorder, mac, 20, 40, outer)          # same layer, nested
    _span(recorder, phy, 45, 55, outer)
    _span(recorder, sim, 70, 90, root)
    _span(recorder, other, 92, 95, root)

    totals = self_time_ns(recorder)

    assert totals["mac"] == (50 - 20 - 10) + 20
    assert totals["phy"] == 10
    assert totals["sim"] == 20
    assert totals["unattributed"] == (100 - 50 - 20 - 3) + 3
    assert sum(totals.values()) == 100
    assert self_time_from_intervals(recorder) == totals


def test_interval_self_time_disagrees_with_wrong_parents_and_rejects_overlap():
    recorder = SpanRecorder()
    mac = recorder.site_id("mac.MacStation.on_rx_end", "mac")
    phy = recorder.site_id("phy.Transceiver.transmit", "phy")
    root = _span(recorder, 0, 0, 100, -1)
    _span(recorder, mac, 10, 60, root)
    _span(recorder, phy, 20, 30, root)           # inside the mac span, parented to root
    assert self_time_ns(recorder)["mac"] == 50
    assert self_time_from_intervals(recorder)["mac"] == 40

    overlapping = SpanRecorder()
    mac, phy = overlapping.site_id("mac.x", "mac"), overlapping.site_id("phy.x", "phy")
    root = _span(overlapping, 0, 0, 100, -1)
    outer = _span(overlapping, mac, 10, 50, root)
    _span(overlapping, phy, 40, 70, outer)       # ends after its parent
    assert self_time_from_intervals(overlapping) is None


def test_recorded_spans_nest_under_the_root():
    recorder = SpanRecorder()
    site = recorder.site_id("mac.x", "mac")
    work = recorder.spanned(lambda value: value * 2, site)
    dispatch = recorder.dispatcher()
    with recorder.root():
        assert work(21) == 42
        dispatch(site, work, 1)
    assert list(recorder.parent) == [-1, 0, 0, 2]
    assert all(end >= start for start, end in zip(recorder.start, recorder.end))
    assert sum(self_time_ns(recorder).values()) == recorder.end[0] - recorder.start[0]


def test_metric_names_are_well_formed_unique_and_have_units():
    names = [metric.name for metric in (*END_TO_END, *PER_LAYER)]
    assert len(names) == len(set(names))
    for metric in (*END_TO_END, *PER_LAYER):
        assert NAME.fullmatch(metric.name), metric.name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric.unit), metric.unit
        assert metric.better in ("lower", "higher")
        assert UNITS[metric.name] == metric.unit
    assert len(PER_LAYER) == 33
    assert {name.split(".")[0] for name in names if "." in name} <= {*LAYERS, "trace"}


def test_benchmark_json_matches_the_harness():
    spec = json.loads(BENCHMARK.read_text())
    assert spec["run_seconds"] == RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert setup.bound == max(m.bound for m in END_TO_END)


def test_every_workload_is_pinned_for_the_pinned_seeds():
    reference = load_reference()
    for name in WORKLOADS:
        assert sorted(reference[name]) == [str(seed) for seed in PINNED_SEEDS]


def test_fail_ratio_is_one_when_the_pinned_digest_is_corrupted():
    points = [digest(value) for value in (1.5, 2.5, 3.5)]
    reps = [points, list(points), list(points)]
    assert count_failures(reps, result_digest(points)) == (9, 0)
    assert count_failures(reps, None) == (9, 0)
    corrupted = "0" * 64
    attempted, failed = count_failures(reps, corrupted)
    assert failed / attempted == 1.0


def test_failures_count_points_that_disagree_or_raise():
    points = [digest(value) for value in (1.5, 2.5)]
    odd = [points[0], digest(9.0)]
    assert count_failures([points, odd, points], None) == (6, 1)
    assert count_failures([points, None, points], None) == (6, 2)
    assert count_failures([None, None], None) == (2, 2)


def test_digest_keeps_every_float_digit():
    assert digest(0.1 + 0.2) != digest(0.3)
    assert digest((1.0, "a")) == digest([1.0, "a"])


def _wrapped_attributes() -> dict[tuple[str, str], object]:
    for module, *_ in (*ENTRY_POINTS, *CALLBACK_REGISTRATIONS):
        importlib.import_module(module)
    owners = {}
    for module, class_name, names in ENTRY_POINTS:
        cls = getattr(sys.modules[module], class_name)
        owners.update({(f"{module}.{class_name}", name): vars(cls)[name] for name in names})
    for module, class_name, name, _ in CALLBACK_REGISTRATIONS:
        cls = getattr(sys.modules[module], class_name)
        owners[(f"{module}.{class_name}", name)] = vars(cls)[name]
    from repro.phy.reception import ReceptionModel
    from repro.sim.engine import Simulator

    for name in ("schedule_slot", "schedule_slot_at", "cancel_slot"):
        owners[("Simulator", name)] = vars(Simulator)[name]
    for model in ReceptionModel.__subclasses__():
        owners[(model.__name__, "evaluate")] = vars(model)["evaluate"]
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "repro":
            for attr in ("build", "scenario_point", "run_sweep"):
                if attr in vars(module):
                    owners[(module_name, attr)] = vars(module)[attr]
    return owners


def _probe_spec() -> dict:
    from repro.experiments.ranges import loss_spec

    return loss_spec(11.0, 60.0, probes=20, seed=3).to_dict()


def test_wrappers_change_nothing_simulated_and_restore_every_attribute():
    import repro.experiments.ranges  # noqa: F401 - binds build/run_sweep before wrapping
    from repro.scenario import scenario_point

    plain = scenario_point(_probe_spec(), "repro.experiments.ranges:probe_loss")
    before = _wrapped_attributes()

    recorder, probe = SpanRecorder(), Probe()
    with instrument(recorder, probe), recorder.root():
        traced = scenario_point(_probe_spec(), "repro.experiments.ranges:probe_loss")
    after = _wrapped_attributes()

    assert traced == plain
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert len(probe.nets) == 1 and probe.evaluations > 0
    layers = {recorder.sites[site][1] for site in recorder.site}
    assert {"sim", "channel", "phy", "mac", "scenario"} <= layers
    assert sum(self_time_ns(recorder).values()) == recorder.end[0] - recorder.start[0]
    assert self_time_from_intervals(recorder) == self_time_ns(recorder)


def test_wrappers_are_removed_when_the_workload_raises():
    before = _wrapped_attributes()
    recorder = SpanRecorder()
    with pytest.raises(RuntimeError):
        with instrument(recorder, Probe()), recorder.root():
            raise RuntimeError("workload failed")
    after = _wrapped_attributes()
    assert all(after[key] is before[key] for key in before)
