"""Shared machinery of the analytical-conformance harness.

The pinned validation grid (``grid.json``) names saturation points —
``stations x CWmin x retry-limit`` — and a per-point tolerance band.
For each point :func:`run_point` builds the same ring-of-contenders
scenario the ``mac-surface`` experiment sweeps, runs it, computes the
closed-form prediction from :mod:`repro.analysis.analytic` (off the
identical ``StackSpec.dot11_config()`` constants), and returns a
record with the relative delta plus enough MAC-level diagnostics
(transmissions, timeouts, empirical collision probability, drop
taxonomy) to debug a violation without re-running anything.

``python -m tests.conformance.report_grid`` renders the whole grid as
a JSON report — the artifact the CI ``conformance`` job uploads.

Regenerating the grid: edit ``GRID_POINTS`` / ``TOLERANCES`` below and
run ``python -m tests.conformance.report_grid --write-grid`` to rewrite
``grid.json`` (then commit both, and say why the bands moved).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

GRID_PATH = Path(__file__).with_name("grid.json")

#: The pinned cross product: every (stations, CWmin, retry) combination.
GRID_STATIONS: tuple[int, ...] = (1, 2, 5, 8)
GRID_CW_MIN: tuple[int, ...] = (32, 128)
GRID_RETRY: tuple[int, ...] = (1, 7)

#: Tolerance bands (relative |sim/model - 1|).  A single contender has
#: no collisions — sim and model share the exact slot arithmetic, so
#: the band is tight.  Contending points inherit Bianchi's decoupling
#: approximation plus finite-run noise; observed deltas sit under 3%,
#: the band leaves a 2x margin.
TOLERANCE_SINGLE = 0.015
TOLERANCE_CONTENDED = 0.06

#: Shared scenario settings of every grid point.
GRID_DEFAULTS: dict[str, Any] = {
    "duration_s": 1.5,
    "warmup_s": 0.25,
    "seed": 1,
    "payload_bytes": 1024,
    "rate_mbps": 11.0,
}


def grid_document() -> dict[str, Any]:
    """The canonical ``grid.json`` content for the constants above."""
    points = [
        {
            "stations": stations,
            "cw_min": cw_min,
            "retry": retry,
            "tolerance": (
                TOLERANCE_SINGLE if stations == 1 else TOLERANCE_CONTENDED
            ),
        }
        for stations in GRID_STATIONS
        for cw_min in GRID_CW_MIN
        for retry in GRID_RETRY
    ]
    return {"defaults": dict(GRID_DEFAULTS), "points": points}


def load_grid() -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """(defaults, points) from the pinned ``grid.json``."""
    data = json.loads(GRID_PATH.read_text())
    return data["defaults"], data["points"]


def point_spec(defaults: Mapping[str, Any], point: Mapping[str, Any]):
    """The :class:`ScenarioSpec` for one grid point."""
    from repro.experiments.mac_surface import saturation_spec
    from repro.scenario import apply_overrides

    spec = saturation_spec(
        stations=point["stations"],
        duration_s=defaults["duration_s"],
        warmup_s=defaults["warmup_s"],
        seed=defaults["seed"],
        payload_bytes=defaults["payload_bytes"],
        rate_mbps=defaults["rate_mbps"],
    )
    return apply_overrides(
        spec,
        {
            "stack.mac.cw_min_slots": point["cw_min"],
            "stack.mac.short_retry_limit": point["retry"],
        },
    )


def run_point(
    defaults: Mapping[str, Any], point: Mapping[str, Any]
) -> dict[str, Any]:
    """Simulate one grid point and compare it with the model."""
    from repro.analysis.analytic import predict_scenario
    from repro.scenario import build
    from repro.units import s_to_ns

    spec = point_spec(defaults, point)
    prediction = predict_scenario(spec)
    net = build(spec)
    net.sim.run(until_ns=s_to_ns(spec.duration_s))
    sim_bps = sum(
        flow.sink.throughput_bps(spec.duration_s) for flow in net.flows
    )
    data_tx = sum(node.mac.counters.data_tx for node in net.nodes)
    timeouts = sum(node.mac.counters.ack_timeouts for node in net.nodes)
    tx_drops = sum(node.mac.counters.tx_drops for node in net.nodes)
    delta = sim_bps / prediction.throughput_bps - 1.0
    return {
        "stations": point["stations"],
        "cw_min": point["cw_min"],
        "retry": point["retry"],
        "tolerance": point["tolerance"],
        "sim_bps": sim_bps,
        "model_bps": prediction.throughput_bps,
        "delta": delta,
        "ok": abs(delta) <= point["tolerance"],
        "diagnostics": {
            "model_tau": prediction.tau,
            "model_p": prediction.collision_probability,
            "model_expected_slot_us": prediction.expected_slot_us,
            "model_t_success_us": prediction.t_success_us,
            "model_t_collision_us": prediction.t_collision_us,
            "sim_data_tx": data_tx,
            "sim_ack_timeouts": timeouts,
            "sim_retry_drops": tx_drops,
            "sim_p": timeouts / data_tx if data_tx else 0.0,
            "ledger_drops": dict(net.recorder.ledger.drops),
        },
    }


def describe(record: Mapping[str, Any]) -> str:
    """Human-readable per-point diagnostics (assertion message)."""
    diag = record["diagnostics"]
    return (
        f"n={record['stations']} CWmin={record['cw_min']} "
        f"retry={record['retry']}: sim {record['sim_bps'] / 1e6:.3f} Mbps "
        f"vs model {record['model_bps'] / 1e6:.3f} Mbps "
        f"(delta {record['delta'] * 100:+.2f}%, "
        f"tolerance ±{record['tolerance'] * 100:.1f}%)\n"
        f"  model: tau={diag['model_tau']:.4f} p={diag['model_p']:.4f} "
        f"E[slot]={diag['model_expected_slot_us']:.1f}us "
        f"Ts={diag['model_t_success_us']:.1f}us "
        f"Tc={diag['model_t_collision_us']:.1f}us\n"
        f"  sim: tx={diag['sim_data_tx']} "
        f"timeouts={diag['sim_ack_timeouts']} "
        f"retry_drops={diag['sim_retry_drops']} "
        f"p={diag['sim_p']:.4f} drops={diag['ledger_drops']}"
    )
