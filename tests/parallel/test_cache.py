"""Cache semantics: hit/miss/invalidation by params, seed and version."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.parallel import SweepCache, SweepPoint, code_version_tag, run_sweep
from repro.parallel.cache import _tagged_files, default_cache_dir

#: Cheap analytic point function used throughout (no simulation).
POINT_FN = "repro.experiments.table2:throughput_point"
PARAMS = {"rate_mbps": 11.0, "payload_bytes": 512, "rts_cts": False}

_SRC = Path(__file__).resolve().parents[2] / "src"

#: Runs an audited mac-surface point and a figure-7 panel point, then
#: prints the file of every ``repro`` module the interpreter loaded.
_POINT_IMPORTS_SCRIPT = """
import json, sys
from repro.experiments.four_nodes import ASYMMETRIC_SESSIONS, panel_spec
from repro.experiments.mac_surface import saturation_spec
from repro.scenario.points import run_scenarios

run_scenarios(
    [saturation_spec(2, duration_s=0.2, warmup_s=0.05)],
    extract="repro.experiments.mac_surface:mac_surface_metrics",
)
run_scenarios(
    [panel_spec("figure6", 11.0, "udp", False, ASYMMETRIC_SESSIONS, 1.5, 1)],
    extract="repro.experiments.four_nodes:panel_rows",
)
print(json.dumps([
    module.__file__
    for name, module in sys.modules.items()
    if name.split(".")[0] == "repro" and getattr(module, "__file__", None)
]))
"""


def make_cache(tmp_path, tag="test-tag"):
    return SweepCache(root=tmp_path / "cache", version_tag=tag)


class TestLookup:
    def test_cold_lookup_is_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        hit, value = cache.lookup(POINT_FN, PARAMS)
        assert not hit
        assert value is None
        assert cache.misses == 1

    def test_put_then_lookup_is_hit(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(POINT_FN, PARAMS, [1.0, 2.0])
        hit, value = cache.lookup(POINT_FN, PARAMS)
        assert hit
        assert value == [1.0, 2.0]
        assert cache.hits == 1

    def test_param_change_misses(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(POINT_FN, PARAMS, [1.0, 2.0])
        changed = dict(PARAMS, payload_bytes=1024)
        hit, _ = cache.lookup(POINT_FN, changed)
        assert not hit

    def test_seed_change_misses(self, tmp_path):
        cache = make_cache(tmp_path)
        params = dict(PARAMS, seed=1)
        cache.put(POINT_FN, params, 0.25)
        hit, _ = cache.lookup(POINT_FN, dict(params, seed=2))
        assert not hit
        hit, value = cache.lookup(POINT_FN, params)
        assert hit and value == 0.25

    def test_version_tag_change_invalidates(self, tmp_path):
        old = make_cache(tmp_path, tag="v1")
        old.put(POINT_FN, PARAMS, 42.0)
        new = SweepCache(root=old.root, version_tag="v2")
        hit, _ = new.lookup(POINT_FN, PARAMS)
        assert not hit
        # The old entry is still there for the old tag (content address).
        hit, value = make_cache(tmp_path, tag="v1").lookup(POINT_FN, PARAMS)
        assert hit and value == 42.0

    def test_function_change_misses(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(POINT_FN, PARAMS, 1.0)
        hit, _ = cache.lookup("repro.scenario.points:scenario_point", PARAMS)
        assert not hit

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(POINT_FN, PARAMS, 1.0)
        path = cache._path(cache.key(POINT_FN, PARAMS))
        path.write_text("not json{")
        hit, _ = cache.lookup(POINT_FN, PARAMS)
        assert not hit

    def test_key_is_order_insensitive(self, tmp_path):
        cache = make_cache(tmp_path)
        forward = cache.key(POINT_FN, {"a": 1, "b": 2})
        backward = cache.key(POINT_FN, {"b": 2, "a": 1})
        assert forward == backward


class TestClear:
    def test_clear_removes_entries(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(POINT_FN, PARAMS, 1.0)
        cache.put(POINT_FN, dict(PARAMS, rts_cts=True), 2.0)
        assert cache.clear() == 2
        hit, _ = cache.lookup(POINT_FN, PARAMS)
        assert not hit

    def test_clear_on_missing_root_is_zero(self, tmp_path):
        assert make_cache(tmp_path).clear() == 0


class TestEntryFormat:
    def test_entry_is_debuggable_json(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(POINT_FN, PARAMS, [3.0])
        path = cache._path(cache.key(POINT_FN, PARAMS))
        document = json.loads(path.read_text())
        assert document["fn"] == POINT_FN
        assert document["params"] == PARAMS
        assert document["version"] == "test-tag"
        assert document["value"] == [3.0]


class TestVersionTag:
    def test_tag_is_stable_within_process(self):
        assert code_version_tag() == code_version_tag()

    def test_default_cache_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_tag_hashes_every_module_a_point_imports(self):
        # A cached value may depend on any module its point imports, so
        # editing one of them must change the tag.  Run an audited
        # mac-surface point and a figure-7 panel point in a fresh
        # interpreter and list the repro modules it loaded.
        imported = json.loads(
            subprocess.run(
                [sys.executable, "-c", _POINT_IMPORTS_SCRIPT],
                env={**os.environ, "PYTHONPATH": str(_SRC)},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
        )
        loaded = {Path(file).resolve() for file in imported}
        for needed in ("analysis/analytic.py", "analysis/meters.py", "obs/ledger.py"):
            assert _SRC / "repro" / needed in loaded
        assert sorted(loaded - set(_tagged_files())) == []


class TestSweepIntegration:
    def test_run_sweep_fills_and_reuses_cache(self, tmp_path):
        points = [
            SweepPoint(POINT_FN, dict(PARAMS, payload_bytes=payload))
            for payload in (512, 1024)
        ]
        cold = make_cache(tmp_path)
        first = run_sweep(points, cache=cold)
        assert cold.hits == 0 and cold.misses == 2
        warm = make_cache(tmp_path)
        second = run_sweep(points, cache=warm)
        assert warm.hits == 2 and warm.misses == 0
        assert first == second

    def test_stale_version_recomputes(self, tmp_path):
        points = [SweepPoint(POINT_FN, PARAMS)]
        run_sweep(points, cache=make_cache(tmp_path, tag="v1"))
        fresh = make_cache(tmp_path, tag="v2")
        result = run_sweep(points, cache=fresh)
        assert fresh.misses == 1
        assert result == run_sweep(points)  # uncached reference


class TestMissSentinel:
    def test_cached_none_value_is_a_hit(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(POINT_FN, PARAMS, None)
        hit, value = cache.lookup(POINT_FN, PARAMS)
        assert hit and value is None


@pytest.mark.parametrize("payload", [512, 1024])
def test_round_trip_matches_direct_call(tmp_path, payload):
    from repro.experiments.table2 import throughput_point

    cache = SweepCache(root=tmp_path, version_tag="rt")
    params = dict(PARAMS, payload_bytes=payload)
    (via_engine,) = run_sweep([SweepPoint(POINT_FN, params)], cache=cache)
    assert via_engine == throughput_point(**params)
    (from_cache,) = run_sweep([SweepPoint(POINT_FN, params)], cache=cache)
    assert from_cache == via_engine
