"""The measurement side: what runs inside each fresh interpreter.

``python -m benchmarks.suite _child setup|measure|trace ...`` lands here.
Every protocol prints one JSON object as its last stdout line; the
parent (:mod:`benchmarks.suite.cli`) turns those into metrics.
"""

from __future__ import annotations

import importlib
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from .metrics import COUNTS, MIN_REPS, P90_MIN_POINTS, count_failures
from .spans import (
    LAYERS, Patches, Probe, SpanRecorder, instrument, self_time_from_intervals, self_time_ns,
)
from .workloads import Workload, digest

#: Where the per-call sweep caches live, inside the checkout.
CACHE_ROOT = Path(__file__).resolve().parents[2] / ".bench_suite"


class _FirstBuild(Exception):
    """Raised out of the workload once its first ``build()`` has returned."""


def _cpu_s() -> tuple[float, float]:
    """(own, waited-for children's) user+sys CPU seconds so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


@contextmanager
def _cache(workload: Workload) -> Iterator[Any]:
    """A fresh, empty sweep cache for one call (or None), removed after."""
    if not workload.fresh_cache:
        yield None
        return
    from repro.parallel import SweepCache

    CACHE_ROOT.mkdir(exist_ok=True)
    root = tempfile.mkdtemp(prefix="cache-", dir=CACHE_ROOT)
    try:
        yield SweepCache(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            CACHE_ROOT.rmdir()
        except OSError:
            pass  # another measurement still uses it


def first_build_at(workload: Workload, seed: int) -> float:
    """Run ``workload`` serially until its first ``build()`` returns.

    Returns ``time.monotonic()`` at that moment — system-wide on Linux,
    so the parent can subtract the instant it started this interpreter.
    """
    for module in workload.modules:
        importlib.import_module(module)
    from repro.scenario import builder

    original = builder.build
    stamps: list[float] = []

    def build_once(spec: Any) -> Any:
        original(spec)
        stamps.append(time.monotonic())
        raise _FirstBuild

    patches = Patches()
    patches.replace_everywhere(original, build_once)
    try:
        workload.call(seed, 1, None)
    except _FirstBuild:
        pass
    finally:
        patches.restore()
    if not stamps:
        raise RuntimeError(f"{workload.name} returned without calling build()")
    return stamps[0]


def timed_call(workload: Workload, seed: int) -> dict[str, Any]:
    """One experiment call as ``run`` times it: wall, CPU, point digests."""
    with _cache(workload) as cache:
        own0, children0 = _cpu_s()
        start = time.perf_counter()
        try:
            points = workload.call(seed, workload.jobs, cache)
        except Exception:  # noqa: BLE001 - a raising call is a failed repetition
            traceback.print_exc()
            points = None
        wall_s = time.perf_counter() - start
        own1, children1 = _cpu_s()
    return {
        "wall_s": wall_s,
        "cpu_s": own1 - own0 + children1 - children0,
        "children_cpu_s": children1 - children0,
        "points": None if points is None else [digest(point) for point in points],
    }


def measure(workload: Workload, seed: int, seconds: float) -> dict[str, Any]:
    """Untimed first build, then calls back to back for ``seconds`` (at least 3)."""
    first = first_build_at(workload, seed)
    reps: list[dict[str, Any]] = []
    began = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - began < seconds:
        reps.append(timed_call(workload, seed))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"first_build_at": first, "reps": reps, "peak_rss_kb": max(own, children)}


def _site_counts(recorder: SpanRecorder) -> dict[str, int]:
    return {recorder.sites[site][0]: count for site, count in Counter(recorder.site).items()}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    recorder: SpanRecorder, probe: Probe, calls: dict[str, int], self_ns: dict[str, int],
    plain: dict[str, Any], traced_cpu_s: float, jobs: int,
) -> dict[str, float]:
    """Every per-layer metric of one traced run (``plain``: the untraced call)."""
    root_ns = recorder.end[0] - recorder.start[0]
    nets = probe.nets
    events = sum(net.sim.events_processed for net in nets)
    macs = [node.mac.counters for net in nets for node in net.nodes]
    ips = [node.ip for net in nets for node in net.nodes]
    delivered = accepted = 0
    for net in nets:
        for flow in net.flows:
            if hasattr(flow.sink, "packets"):  # datagram flows
                delivered += flow.sink.packets
                accepted += sum(getattr(s, "packets_accepted", 0) for s in flow.sources)
    point_site = recorder.site_id("scenario.scenario_point", "scenario")
    build_site = recorder.site_id("scenario.build", "scenario")
    durations: dict[int, list[int]] = {point_site: [], build_site: []}
    for site, start, end in zip(recorder.site, recorder.start, recorder.end):
        if site in durations:
            durations[site].append(end - start)
    # A workload that builds and runs without scenario_point is one point.
    points_s = [ns / 1e9 for ns in durations[point_site] or [root_ns]]
    if len(points_s) >= P90_MIN_POINTS:
        p90 = statistics.quantiles(points_s, n=10)[-1]
    else:
        p90 = max(points_s)
    transmits = calls.get("channel.Medium.transmit", 0)
    data_tx = sum(c.data_tx for c in macs)
    metrics = {
        "sim.events": events,
        "sim.events_per_s": events / plain["cpu_s"],
        "sim.cancel_ratio": _ratio(probe.cancelled, probe.scheduled),
        "channel.transmits": transmits,
        "channel.fanout": _ratio(calls.get("phy.Transceiver.on_signal_start", 0), transmits),
        "channel.moves": calls.get("channel.Medium.notify_moved", 0),
        "phy.receptions": probe.evaluations,
        "phy.rx_ok_ratio": _ratio(probe.evaluations_ok, probe.evaluations),
        "phy.timeline_mean": _ratio(probe.timeline_entries, probe.evaluations),
        "phy.vector_share": _ratio(probe.vector_evaluations, probe.evaluations),
        "mac.data_tx": data_tx,
        "mac.retries": sum(c.retries for c in macs),
        "mac.tx_success_ratio": _ratio(sum(c.tx_success for c in macs), data_tx),
        "net.datagrams": sum(ip.datagrams_sent + ip.datagrams_forwarded for ip in ips),
        "transport.tcp_segments": calls.get("transport.TcpProtocol.send_segment", 0),
        "apps.delivery_ratio": _ratio(delivered, accepted),
        "scenario.builds": len(durations[build_site]),
        "scenario.build_s": sum(durations[build_site]) / 1e9,
        "scenario.point_p50_s": statistics.median(points_s),
        "scenario.point_p90_s": p90,
        "parallel.points": probe.sweep_points,
        "parallel.busy_ratio": plain["children_cpu_s"] / (plain["wall_s"] * jobs),
        "obs.sdus": sum(net.recorder.ledger.opened for net in nets if net.recorder),
        "trace.overhead": traced_cpu_s / plain["cpu_s"],
        "trace.coverage": sum(self_ns[layer] for layer in LAYERS) / root_ns,
    }
    for layer in LAYERS:
        if layer not in ("scenario", "parallel"):
            metrics[f"{layer}.self_s"] = self_ns[layer] / 1e9
    return metrics


def traced_run(
    workload: Workload, seed: int, plain: dict[str, Any], keep_spans: bool
) -> dict[str, Any]:
    """One serial call with every wrapper installed, reduced to its numbers."""
    recorder, probe = SpanRecorder(), Probe()
    with _cache(workload) as cache, instrument(recorder, probe):
        own0, _ = _cpu_s()
        with recorder.root():
            points = workload.call(seed, 1, cache)
        own1, _ = _cpu_s()
    calls, self_ns = _site_counts(recorder), self_time_ns(recorder)
    run = {
        "points": [digest(point) for point in points],
        "metrics": layer_metrics(
            recorder, probe, calls, self_ns, plain, own1 - own0, workload.jobs
        ),
        "calls": calls,
        "self_ns": self_ns,
        "interval_ns": self_time_from_intervals(recorder),
        "root_ns": recorder.end[0] - recorder.start[0],
    }
    if keep_spans:
        run["spans"] = {"sites": recorder.sites, "columns": recorder.columns()}
    return run


def trace(workload: Workload, seed: int, pinned: str | None, keep_spans: bool) -> dict[str, Any]:
    """One untraced call, then two traced serial calls, and their checks."""
    first_build_at(workload, seed)
    plain = timed_call(workload, seed)
    if plain["points"] is None:
        raise RuntimeError(f"{workload.name}: the untraced call raised")
    first = traced_run(workload, seed, plain, keep_spans)
    second = traced_run(workload, seed, plain, False)
    attempted, failed = count_failures(
        [plain["points"], first["points"], second["points"]], pinned
    )
    checks = {
        "digest": plain["points"] == first["points"] == second["points"],
        "counts": (
            all(first["metrics"][name] == second["metrics"][name] for name in COUNTS)
            and first["calls"] == second["calls"]
        ),
        "self_time": first["interval_ns"] is not None and all(
            abs(first["self_ns"][layer] - first["interval_ns"][layer])
            <= 0.01 * first["root_ns"]
            for layer in first["self_ns"]
        ),
    }
    result: dict[str, Any] = {
        "metrics": first["metrics"], "checks": checks,
        "attempted": attempted, "failed": failed,
        "unattributed_s": first["self_ns"]["unattributed"] / 1e9,
        "root_s": first["root_ns"] / 1e9,
        "points": first["calls"].get("scenario.scenario_point", 1),
    }
    if keep_spans:
        result["spans"] = first["spans"]
    return result
