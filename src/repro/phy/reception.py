"""Frame reception models.

The transceiver records, for the frame it is locked on, a timeline of the
total interference power (every other signal overlapping the reception).
At frame end a :class:`ReceptionModel` turns that timeline into a verdict:

* :class:`SinrThresholdReception` (default, ns-2-style): every field of
  the frame must be received above the sensitivity of its rate and with a
  worst-case SINR above the rate's threshold.
* :class:`BerReception` (ablation): integrates the bit-error probability
  over every (field x interference interval) and draws a Bernoulli.
"""

from __future__ import annotations

import abc
import enum
import random
from dataclasses import dataclass
from math import log10 as _log10

from repro.phy import ber as ber_models
from repro.phy.plans import TransmissionPlan
from repro.phy.radio import RadioParameters
from repro.errors import ConfigurationError
from repro.units import dbm_to_mw


class ReceptionOutcome(enum.Enum):
    """Why a locked frame was or was not decoded."""

    OK = "ok"
    BELOW_SENSITIVITY = "below-sensitivity"
    SINR_FAILURE = "sinr-failure"
    BER_FAILURE = "ber-failure"
    ABORTED = "aborted"

    @property
    def success(self) -> bool:
        """True only for a clean decode."""
        return self is ReceptionOutcome.OK


@dataclass(frozen=True)
class ReceptionContext:
    """Everything known about one locked frame at its end.

    ``interference_timeline`` is a step function: ``(offset_ns, mw)``
    entries meaning "from this offset (relative to frame start at the
    receiver) the summed power of all other signals is ``mw``".  The
    first entry is always at offset 0.
    """

    plan: TransmissionPlan
    rx_power_dbm: float
    noise_mw: float
    interference_timeline: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.interference_timeline:
            raise ConfigurationError("interference timeline must not be empty")
        if self.interference_timeline[0][0] != 0:
            raise ConfigurationError("interference timeline must start at offset 0")

    def interference_intervals(
        self, start_ns: int, end_ns: int
    ) -> list[tuple[int, int, float]]:
        """The timeline restricted to [start_ns, end_ns) as intervals."""
        intervals: list[tuple[int, int, float]] = []
        timeline = self.interference_timeline
        for index, (offset, mw) in enumerate(timeline):
            next_offset = (
                timeline[index + 1][0] if index + 1 < len(timeline) else end_ns
            )
            lo = max(offset, start_ns)
            hi = min(next_offset, end_ns)
            if lo < hi:
                intervals.append((lo, hi, mw))
        return intervals


class ReceptionModel(abc.ABC):
    """Decides whether a locked frame decodes."""

    @abc.abstractmethod
    def evaluate(
        self,
        context: ReceptionContext,
        radio: RadioParameters,
        rng: random.Random,
    ) -> ReceptionOutcome:
        """Verdict for one frame."""


def _sinr_rows(
    plan: TransmissionPlan, radio: RadioParameters
) -> tuple[tuple[int, int, float, float], ...]:
    """Per-field ``(start_ns, end_ns, sensitivity_dbm, threshold_db)`` rows.

    The table rides on the (interned, frozen) plan itself, written
    through ``__dict__`` like ``cached_property`` does — an attribute
    read per frame instead of hashing the plan's segment tuple.  Plans
    are interned per calculator (see :mod:`repro.phy.plans`), the
    stations of one Dot11bConfig share a calculator, and those of one
    built network share a radio, so the tables stay a handful of
    entries.  Tagged with the radio it was built against: a different
    radio (shared plans in tests) rebuilds rather than lies.
    """
    cached = plan.__dict__.get("_sinr_rows")
    if cached is not None and cached[0] is radio:
        return cached[1]
    rows = tuple(
        (
            start_ns,
            end_ns,
            radio.sensitivity_dbm[segment.rate],
            radio.sinr_threshold_db[segment.rate],
        )
        for start_ns, end_ns, segment in plan.segment_offsets_ns()
    )
    plan.__dict__["_sinr_rows"] = (radio, rows)
    return rows


class SinrThresholdReception(ReceptionModel):
    """Per-field sensitivity + worst-case SINR thresholds.

    A field fails iff its *worst* (minimum-SINR) interference interval
    fails, and SINR falls as interference power rises.  So each field
    reduces to its maximum interference power — a pure max, no
    transcendental — and makes exactly one dB conversion, with the
    argument a per-interval walk would have used on that worst interval.
    An empty interval (a timeline entry sharing its offset with the
    next) spans no time and is skipped; the timeline need not be sorted.
    """

    def evaluate(
        self,
        context: ReceptionContext,
        radio: RadioParameters,
        rng: random.Random,
    ) -> ReceptionOutcome:
        rx_dbm = context.rx_power_dbm
        signal_mw = dbm_to_mw(rx_dbm)
        noise_mw = context.noise_mw
        timeline = context.interference_timeline
        n = len(timeline)
        rows = _sinr_rows(context.plan, radio)

        # ``10.0 * _log10(x)`` below is units.linear_to_db inlined (SINR
        # is strictly positive here): same expression, no call frame.

        if n == 1:
            # No interference change during the whole reception — the
            # modal case: every field sees the single timeline level.
            interference_mw = timeline[0][1]
            for start_ns, end_ns, sensitivity, threshold in rows:
                if rx_dbm < sensitivity:
                    return ReceptionOutcome.BELOW_SENSITIVITY
                if end_ns <= start_ns:
                    continue
                sinr = signal_mw / (noise_mw + interference_mw)
                if 10.0 * _log10(sinr) < threshold:
                    return ReceptionOutcome.SINR_FAILURE
            return ReceptionOutcome.OK

        for start_ns, end_ns, sensitivity, threshold in rows:
            if rx_dbm < sensitivity:
                return ReceptionOutcome.BELOW_SENSITIVITY
            worst_mw = -1.0
            for i in range(n):
                off, mw = timeline[i]
                nxt = timeline[i + 1][0] if i + 1 < n else end_ns
                lo = off if off > start_ns else start_ns
                hi = nxt if nxt < end_ns else end_ns
                if lo < hi and mw > worst_mw:
                    worst_mw = mw
            if worst_mw < 0.0:
                continue
            sinr = signal_mw / (noise_mw + worst_mw)
            if 10.0 * _log10(sinr) < threshold:
                return ReceptionOutcome.SINR_FAILURE
        return ReceptionOutcome.OK


class BerReception(ReceptionModel):
    """Bit-error integration over fields and interference intervals.

    Success probabilities come from the per-rate lookup tables and
    exact-key memo of
    :func:`~repro.phy.ber.frame_success_probability_cached`, which
    computes the same expression as
    :func:`~repro.phy.ber.frame_success_probability`; terms multiply in
    field-then-interval order into a single Bernoulli draw.
    """

    def evaluate(
        self,
        context: ReceptionContext,
        radio: RadioParameters,
        rng: random.Random,
    ) -> ReceptionOutcome:
        success_of = ber_models.frame_success_probability_cached
        signal_mw = dbm_to_mw(context.rx_power_dbm)
        success_probability = 1.0
        for start_ns, end_ns, segment in context.plan.segment_offsets_ns():
            duration = end_ns - start_ns
            if duration <= 0:
                continue
            for lo, hi, interference_mw in context.interference_intervals(
                start_ns, end_ns
            ):
                sinr = signal_mw / (context.noise_mw + interference_mw)
                bits = segment.bits * (hi - lo) / duration
                probability = success_of(segment.rate, sinr, round(bits))
                success_probability *= probability
        if rng.random() < success_probability:
            return ReceptionOutcome.OK
        return ReceptionOutcome.BER_FAILURE
