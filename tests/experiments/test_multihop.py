"""Scale equivalence: a 100-station field renders identically on both medium passes.

Ten walking stations exercise grid re-bucketing and pair-cache eviction.
The cutoff is the seam: above N it forces the full pass, at 0 the grid.
"""

from __future__ import annotations

from repro.channel import medium as medium_module
from repro.experiments.multihop import density_spec
from repro.scenario import ScenarioSpec, build


def _mobile_density_spec() -> ScenarioSpec:
    doc = density_spec(100, 0.3, 0.1, seed=1).to_dict()
    doc["topology"]["mobility"] = [
        {"node": node, "speed_m_s": 1.5, "update_interval_s": 0.1}
        for node in range(10)
    ]
    doc["observability"]["trace_digest"] = True
    return ScenarioSpec.from_dict(doc)


def test_density_field_is_identical_on_full_pass_and_grid(monkeypatch):
    spec = _mobile_density_spec()
    runs = {}
    for name, cutoff in (("full", 10**9), ("grid", 0)):
        monkeypatch.setattr(medium_module, "AUTO_SPATIAL_CUTOFF", cutoff)
        net = build(spec)
        net.run(spec.duration_s)
        digest = net.recorder.digest
        runs[name] = (digest.hexdigest(), digest.records_hashed, net.medium)
    assert runs["full"][1] > 0
    assert runs["full"][:2] == runs["grid"][:2]
    full_medium, grid_medium = runs["full"][2], runs["grid"][2]
    assert full_medium._grid is None and grid_medium._grid is not None
    assert len(grid_medium._pair_cache) < len(full_medium._pair_cache)
