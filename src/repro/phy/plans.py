"""Transmission plans: the rate-and-duration schedule of a frame.

An 802.11b frame is not transmitted at one rate: the PLCP preamble and
header go at the PLCP rates, the MAC header at the header rate and the
payload at the data rate (paper §2 and §3.1).  A :class:`TransmissionPlan`
captures that schedule; the transceiver uses it both to time the signal
and to evaluate reception field by field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.airtime import AirtimeCalculator
from repro.core.params import Rate
from repro.errors import ConfigurationError
from repro.units import us_to_ns


@dataclass(frozen=True)
class Segment:
    """One constant-rate field of a frame."""

    name: str
    bits: int
    rate: Rate
    duration_ns: int


@dataclass(frozen=True)
class TransmissionPlan:
    """The full field schedule of one frame on the air.

    Plans are immutable and — when built through :func:`data_frame_plan`
    / :func:`control_frame_plan` — interned per calculator, so the
    derived quantities below are ``cached_property``: each is computed
    once per distinct plan, not once per transmitted frame.
    (``cached_property`` writes through ``__dict__`` directly, which is
    why it composes with ``frozen=True``.)
    """

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ConfigurationError("a transmission plan needs >= 1 segment")

    @cached_property
    def duration_ns(self) -> int:
        """Total airtime."""
        return sum(segment.duration_ns for segment in self.segments)

    @cached_property
    def preamble_end_ns(self) -> int:
        """Offset at which the PLCP (first segment) ends."""
        return self.segments[0].duration_ns

    @property
    def data_rate(self) -> Rate:
        """Rate of the last (payload) segment."""
        return self.segments[-1].rate

    @cached_property
    def _segment_offsets(self) -> tuple[tuple[int, int, Segment], ...]:
        offsets = []
        position = 0
        for segment in self.segments:
            offsets.append((position, position + segment.duration_ns, segment))
            position += segment.duration_ns
        return tuple(offsets)

    def segment_offsets_ns(self) -> tuple[tuple[int, int, Segment], ...]:
        """(start, end, segment) offsets relative to frame start."""
        return self._segment_offsets


def _plcp_segment(airtime: AirtimeCalculator) -> Segment:
    plcp = airtime.config.plcp
    return Segment(
        name="plcp",
        bits=plcp.preamble_bits + plcp.header_bits,
        # The PLCP is decoded at its preamble rate (1 Mbps for both formats).
        rate=plcp.preamble_rate,
        duration_ns=us_to_ns(plcp.duration_us),
    )


def data_frame_plan(
    msdu_bytes: int, data_rate: Rate, airtime: AirtimeCalculator
) -> TransmissionPlan:
    """Plan for a MAC data frame carrying an ``msdu_bytes`` payload.

    Interned: one plan object per ``(payload size, rate)`` per
    calculator.  A saturated station transmits the same few frame shapes
    tens of thousands of times; rebuilding the plan each time made the
    per-frame ``Rate`` enum arithmetic one of the hottest lines in the
    whole profile.  Plans are frozen, so sharing is safe, and the
    identity-stable objects carry the threshold reception model's
    per-plan tables.
    """
    cache = airtime.plan_cache
    key = (msdu_bytes, data_rate)
    cached = cache.get(key)
    if cached is not None:
        return cached
    plan = _build_data_frame_plan(msdu_bytes, data_rate, airtime)
    cache[key] = plan
    return plan


def _build_data_frame_plan(
    msdu_bytes: int, data_rate: Rate, airtime: AirtimeCalculator
) -> TransmissionPlan:
    breakdown = airtime.data_frame(msdu_bytes, data_rate)
    header_rate = airtime.config.header_rate_policy.header_rate(data_rate)
    return TransmissionPlan(
        segments=(
            _plcp_segment(airtime),
            Segment(
                name="mac-header",
                bits=airtime.config.mac.mac_header_bits,
                rate=header_rate,
                duration_ns=us_to_ns(breakdown.header_us),
            ),
            Segment(
                name="payload",
                bits=msdu_bytes * 8,
                rate=data_rate,
                duration_ns=us_to_ns(breakdown.payload_us),
            ),
        )
    )


def control_frame_plan(
    name: str, body_bits: int, airtime: AirtimeCalculator, rate: Rate | None = None
) -> TransmissionPlan:
    """Plan for a control frame (RTS/CTS/ACK) at the control rate.

    Interned per calculator like :func:`data_frame_plan`.
    """
    if rate is None:
        rate = airtime.config.control_rate
    if body_bits <= 0:
        raise ConfigurationError(f"control body must be > 0 bits, got {body_bits}")
    cache = airtime.plan_cache
    key = (name, body_bits, rate)
    cached = cache.get(key)
    if cached is not None:
        return cached
    plan = _build_control_frame_plan(name, body_bits, airtime, rate)
    cache[key] = plan
    return plan


def _build_control_frame_plan(
    name: str, body_bits: int, airtime: AirtimeCalculator, rate: Rate
) -> TransmissionPlan:
    return TransmissionPlan(
        segments=(
            _plcp_segment(airtime),
            Segment(
                name=name,
                bits=body_bits,
                rate=rate,
                duration_ns=us_to_ns(body_bits / rate.mbps),
            ),
        )
    )
