"""Closed-form DCF model: the analytic half of the conformance harness.

The retry-limited saturation throughput lives here, computed from the
*same* :class:`~repro.core.params.MacParameters` constants the
simulator's stations consume (via :meth:`repro.scenario.specs.StackSpec.
dot11_config`), so a swept scenario and its prediction can never drift
apart on the constants.  It is Bianchi's bidimensional Markov chain
("Performance Analysis of the IEEE 802.11 Distributed Coordination
Function", JSAC 2000) extended with a finite frame-retry limit in the
style of Wu et al.: a station that exhausts its retries drops the frame
and resets to stage 0, so the transmission probability responds to the
retry-limit axis — exactly what the ``mac-surface`` sweeps vary.  With
the retry limit at infinity the expression reduces to Bianchi's Eq. (7);
at n = 1 it reduces to the paper's Equation (1) plus the mean initial
backoff.

The zero-contention bound each prediction is compared against (the
per-rate maximum throughput of "Throughput Limits of IEEE 802.11 and
IEEE 802.15.3", PAPERS.md) is the paper's own Equation (1):
:meth:`repro.core.throughput_model.ThroughputModel.max_throughput_bps`,
with its per-component breakdown in
:meth:`~repro.core.throughput_model.ThroughputModel.occupancy`.

The collision-slot duration is *simulator-faithful* rather than
textbook: after a collision the transmitters run the ACK-await timeout
(SIFS + PLCP + 2 slots) followed by DIFS, while every bystander that
decoded garbage defers EIFS from the moment the medium went idle.  The
next contention round starts when the slowest of the two is ready, so

    T_c = T_data + max(EIFS, ACK_timeout + DIFS)

which with the Table 1 defaults is dominated by EIFS (364 µs > 292 µs).
``collision_model="difs"`` selects Bianchi's classic ``T_data + DIFS``
instead, for comparison against the literature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from repro.core.airtime import AirtimeCalculator
from repro.core.encapsulation import TransportProtocol, mac_payload_bytes
from repro.core.params import Dot11bConfig, Rate
from repro.core.throughput_model import ThroughputModel
from repro.errors import ConfigurationError

#: Collision-cost accounting modes (see module docstring).
COLLISION_MODELS = ("sim", "difs")


def contention_windows(
    cw_min_slots: int, cw_max_slots: int, retry_limit: int
) -> tuple[int, ...]:
    """Window sizes W_0..W_R of the binary exponential schedule.

    Stage ``i`` is reached after ``i`` consecutive failures;
    ``retry_limit`` is the number of *retries* (attempts - 1), matching
    :class:`repro.mac.dcf.MacStation`'s drop rule and
    :class:`repro.mac.backoff.ContentionWindow`'s doubling/clamping.
    """
    if cw_min_slots < 1 or cw_max_slots < cw_min_slots:
        raise ConfigurationError(
            "contention window must satisfy 1 <= CWmin <= CWmax, got "
            f"CWmin={cw_min_slots}, CWmax={cw_max_slots}"
        )
    if retry_limit < 0:
        raise ConfigurationError(f"retry limit must be >= 0, got {retry_limit}")
    return tuple(
        min(cw_min_slots * 2**stage, cw_max_slots)
        for stage in range(retry_limit + 1)
    )


def retry_limited_tau(
    p: float, cw_min_slots: int, cw_max_slots: int, retry_limit: int
) -> float:
    """Transmission probability for collision probability ``p``.

    Finite-retry Bianchi chain: ``b(i,0) = p^i b(0,0)`` for stages
    ``0..R``, a failure at stage R drops the frame and resets to stage
    0, and normalisation over the uniform backoff residuals gives

        tau = 2 * sum_i p^i / sum_i p^i (W_i + 1).

    For ``p = 0`` this is ``2 / (CWmin + 1)``; as R grows it converges
    to Bianchi's Eq. (7).
    """
    if not 0.0 <= p < 1.0:
        raise ConfigurationError(f"collision probability must be in [0, 1), got {p}")
    windows = contention_windows(cw_min_slots, cw_max_slots, retry_limit)
    attempts = 0.0
    residency = 0.0
    weight = 1.0
    for window in windows:
        attempts += weight
        residency += weight * (window + 1)
        weight *= p
    return 2.0 * attempts / residency


def solve_fixed_point(
    stations: int,
    cw_min_slots: int,
    cw_max_slots: int,
    retry_limit: int,
    tolerance: float = 1e-12,
) -> tuple[float, float]:
    """(tau, p) solving ``p = 1 - (1 - tau(p))^(n-1)`` by bisection.

    The residual is strictly decreasing in p (tau falls as p rises), so
    bisection on [0, 1) always converges.
    """
    if stations < 1:
        raise ConfigurationError(f"need >= 1 station, got {stations}")

    def tau_of(p: float) -> float:
        return retry_limited_tau(p, cw_min_slots, cw_max_slots, retry_limit)

    if stations == 1:
        return tau_of(0.0), 0.0
    lo, hi = 0.0, 0.999999
    for _ in range(200):
        mid = (lo + hi) / 2.0
        residual = (1.0 - (1.0 - tau_of(mid)) ** (stations - 1)) - mid
        if residual > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tolerance:
            break
    p = (lo + hi) / 2.0
    return tau_of(p), p


@dataclass(frozen=True)
class DcfPrediction:
    """One closed-form saturation point, with its slot accounting."""

    stations: int
    #: Per-station transmission probability in a random slot.
    tau: float
    #: Conditional collision probability seen by a transmission.
    collision_probability: float
    #: Aggregate application-payload throughput, bits per second.
    throughput_bps: float
    #: Probability a frame is dropped after exhausting its retries.
    drop_probability: float
    #: Duration of a successful exchange / a collision, microseconds.
    t_success_us: float
    t_collision_us: float
    #: Mean duration of one contention slot, microseconds.
    expected_slot_us: float
    #: Zero-contention upper bound at the same rate/payload (Eq. 1/2).
    max_throughput_bps: float

    @property
    def efficiency(self) -> float:
        """Throughput as a fraction of the zero-contention bound."""
        return self.throughput_bps / self.max_throughput_bps


def collision_overhead_us(config: Dot11bConfig, model: str = "sim") -> float:
    """Post-collision dead time before slots tick again (see module doc)."""
    if model not in COLLISION_MODELS:
        raise ConfigurationError(
            f"unknown collision model {model!r}; accepted: {list(COLLISION_MODELS)}"
        )
    mac = config.mac
    if model == "difs":
        return mac.difs_us
    plcp_us = config.plcp.duration_us
    await_timeout_us = mac.sifs_us + plcp_us + 2 * mac.slot_time_us
    return max(mac.eifs_us(config.plcp), await_timeout_us + mac.difs_us)


def saturation_throughput(
    stations: int,
    app_payload_bytes: int = 512,
    data_rate: Rate = Rate.MBPS_11,
    config: Dot11bConfig | None = None,
    retry_limit: int | None = None,
    transport: TransportProtocol = TransportProtocol.UDP,
    collision_model: str = "sim",
) -> DcfPrediction:
    """Closed-form aggregate saturation throughput (basic access).

    ``retry_limit`` defaults to the config's short retry limit — the
    one a basic-access (no RTS) data frame consumes in the simulator.
    """
    if config is None:
        config = Dot11bConfig()
    mac = config.mac
    if retry_limit is None:
        retry_limit = mac.short_retry_limit
    tau, p = solve_fixed_point(
        stations, mac.cw_min_slots, mac.cw_max_slots, retry_limit
    )
    airtime = AirtimeCalculator(config)
    msdu = mac_payload_bytes(app_payload_bytes, transport)
    t_data_us = airtime.data_frame_us(msdu, data_rate)
    t_ack_us = airtime.ack_us()
    t_success_us = mac.difs_us + t_data_us + mac.sifs_us + t_ack_us
    t_collision_us = t_data_us + collision_overhead_us(config, collision_model)

    p_tr = 1.0 - (1.0 - tau) ** stations
    if p_tr == 0.0:
        expected_slot_us = mac.slot_time_us
        throughput_bps = 0.0
    else:
        p_success = (
            stations * tau * (1.0 - tau) ** (stations - 1) / p_tr
        )
        expected_slot_us = (
            (1.0 - p_tr) * mac.slot_time_us
            + p_tr * p_success * t_success_us
            + p_tr * (1.0 - p_success) * t_collision_us
        )
        throughput_bps = (
            p_tr * p_success * app_payload_bytes * 8 / (expected_slot_us * 1e-6)
        )
    bound = ThroughputModel(config=config, transport=transport)
    return DcfPrediction(
        stations=stations,
        tau=tau,
        collision_probability=p,
        throughput_bps=throughput_bps,
        drop_probability=p ** (retry_limit + 1),
        t_success_us=t_success_us,
        t_collision_us=t_collision_us,
        expected_slot_us=expected_slot_us,
        max_throughput_bps=bound.max_throughput_bps(app_payload_bytes, data_rate),
    )


def predict_scenario(spec) -> DcfPrediction:
    """The saturation prediction for one mac-surface scenario spec.

    The spec must be a saturated-contender scenario: every flow a
    saturated CBR with the same payload size (the shape
    :func:`repro.experiments.mac_surface.saturation_spec` builds).  The
    protocol constants come from ``spec.stack.dot11_config()`` — the
    identical object :func:`repro.scenario.build` hands every station.
    """
    flows = spec.traffic.flows
    if not flows:
        raise ConfigurationError("spec has no flows to predict")
    payloads = {flow.payload_bytes for flow in flows}
    if len(payloads) != 1 or any(flow.rate_bps is not None for flow in flows):
        raise ConfigurationError(
            "predict_scenario needs saturated CBR flows with one payload size"
        )
    return saturation_throughput(
        stations=len(flows),
        app_payload_bytes=payloads.pop(),
        data_rate=Rate.from_mbps(spec.stack.data_rate_mbps),
        config=spec.stack.dot11_config(),
    )


def jain_index(values) -> float:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2), 1 = perfectly fair."""
    xs = [float(v) for v in values]
    if not xs:
        raise ConfigurationError("Jain index needs at least one value")
    if any(x < 0 for x in xs):
        raise ConfigurationError("Jain index needs non-negative values")
    peak = max(xs)
    if 0.0 < peak < math.sqrt(sys.float_info.min):
        # The squares would underflow; the index is scale-free, so rescale.
        xs = [x / peak for x in xs]
    square_sum = math.fsum(x * x for x in xs)
    if square_sum == 0.0:
        return 1.0
    return math.fsum(xs) ** 2 / (len(xs) * square_sum)
