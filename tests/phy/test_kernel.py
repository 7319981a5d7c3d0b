"""Reception models against brute-force reference loops.

:class:`SinrThresholdReception` reduces each field to its worst
interference interval and makes one dB conversion per field; the
reference below makes one SINR/dB comparison per (field x interference
interval).  :class:`BerReception` reads memoised success-probability
tables; the reference multiplies :func:`repro.phy.ber.frame_success_probability`
term by term.  Both pairs must agree exactly — same outcome for every
context, same RNG consumption — over generated signal-overlap layouts:
short and long timelines, duplicate offsets, unsorted entries, zero
interference, bursts around the sensitivity and SINR thresholds.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.airtime import AirtimeCalculator
from repro.core.params import Rate
from repro.phy import ber as ber_models
from repro.phy.kernel import VECTOR_CUTOFF
from repro.phy.plans import data_frame_plan
from repro.phy.radio import RadioParameters
from repro.phy.reception import (
    BerReception,
    ReceptionContext,
    ReceptionOutcome,
    SinrThresholdReception,
)
from repro.units import dbm_to_mw, linear_to_db

RADIO = RadioParameters.calibrated()
AIRTIME = AirtimeCalculator()
PLANS = [
    data_frame_plan(540, Rate.MBPS_11, AIRTIME),
    data_frame_plan(1460, Rate.MBPS_2, AIRTIME),
    data_frame_plan(20, Rate.MBPS_5_5, AIRTIME),
    data_frame_plan(0, Rate.MBPS_11, AIRTIME),  # zero-length payload field
]

#: Interference levels that straddle every interesting boundary for a
#: -88..-50 dBm signal: nothing, far-below-threshold, near-threshold,
#: equal, and above.
LEVELS_MW = [0.0] + [
    dbm_to_mw(dbm) for dbm in (-95.0, -85.0, -75.0, -70.0, -65.0, -62.0, -60.0, -55.0)
]

RX_POWERS_DBM = [-90.0, -84.0, -76.0, -70.0, -60.0, -50.0]


@st.composite
def timelines(draw):
    """Sorted step-function timelines, offset 0 first, duplicates allowed."""
    n = draw(st.integers(min_value=1, max_value=3 * VECTOR_CUTOFF))
    tail = draw(
        st.lists(
            st.integers(min_value=0, max_value=1_500_000),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    offsets = [0] + sorted(tail)
    levels = draw(
        st.lists(st.sampled_from(LEVELS_MW), min_size=n, max_size=n)
    )
    return tuple(zip(offsets, levels))


def make_context(plan, rx_power_dbm, timeline):
    return ReceptionContext(
        plan=plan,
        rx_power_dbm=rx_power_dbm,
        noise_mw=dbm_to_mw(RADIO.noise_floor_dbm),
        interference_timeline=timeline,
    )


def _evaluate_reference(
    context: ReceptionContext, radio: RadioParameters
) -> ReceptionOutcome:
    signal_mw = dbm_to_mw(context.rx_power_dbm)
    for start_ns, end_ns, segment in context.plan.segment_offsets_ns():
        if context.rx_power_dbm < radio.sensitivity_dbm[segment.rate]:
            return ReceptionOutcome.BELOW_SENSITIVITY
        threshold_db = radio.sinr_threshold_db[segment.rate]
        for _, _, interference_mw in context.interference_intervals(
            start_ns, end_ns
        ):
            sinr = signal_mw / (context.noise_mw + interference_mw)
            if linear_to_db(sinr) < threshold_db:
                return ReceptionOutcome.SINR_FAILURE
    return ReceptionOutcome.OK


def _ber_success_probability(context):
    """Success product over ``frame_success_probability``."""
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
            success_probability *= ber_models.frame_success_probability(
                segment.rate, sinr, round(bits)
            )
    return success_probability


class FixedDraw:
    """An rng whose every ``random()`` returns one value, counting calls."""

    def __init__(self, value):
        self.value = value
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.value


def assert_ber_matches_reference(context):
    # BerReception decodes iff its single draw falls below its success
    # product, so draws at and just below the reference product pin the
    # model's product to the reference bit for bit.
    probability = _ber_success_probability(context)
    at = FixedDraw(probability)
    assert BerReception().evaluate(context, RADIO, at) is ReceptionOutcome.BER_FAILURE
    assert at.calls == 1
    if probability > 0.0:
        below = FixedDraw(math.nextafter(probability, 0.0))
        assert BerReception().evaluate(context, RADIO, below) is ReceptionOutcome.OK


def assert_models_match_references(context):
    got = SinrThresholdReception().evaluate(context, RADIO, random.Random(0))
    assert got is _evaluate_reference(context, RADIO)
    assert_ber_matches_reference(context)


class TestSinrBitIdentity:
    @settings(max_examples=300, deadline=None)
    @given(
        plan_index=st.integers(min_value=0, max_value=len(PLANS) - 1),
        rx_power_dbm=st.sampled_from(RX_POWERS_DBM),
        timeline=timelines(),
    )
    def test_kernel_matches_reference(self, plan_index, rx_power_dbm, timeline):
        plan = PLANS[plan_index]
        context = make_context(plan, rx_power_dbm, timeline)
        expected = _evaluate_reference(context, RADIO)
        got = SinrThresholdReception().evaluate(context, RADIO, random.Random(0))
        assert got is expected

    def test_duplicate_offsets_long_timeline(self):
        # A long timeline with every offset doubled: an entry sharing its
        # offset with its successor spans no time, so the later level
        # counts, like the reference's lo < hi interval check.
        strong = dbm_to_mw(-60.0)
        offsets = [0] + sorted(
            list(range(0, 700_000, 50_000)) + list(range(0, 700_000, 50_000))
        )[1:]
        timeline = tuple(
            (off, strong if i % 2 == 0 else 0.0) for i, off in enumerate(offsets)
        )
        assert len(timeline) >= VECTOR_CUTOFF
        for plan in PLANS:
            assert_models_match_references(make_context(plan, -60.0, timeline))

    def test_unsorted_timeline_matches_reference(self):
        # Only hand-built contexts can be unsorted; the worst-interval
        # walk must still see exactly the reference's intervals.
        strong = dbm_to_mw(-58.0)
        timeline = tuple(
            [(0, 0.0)]
            + [(off, strong if off % 100_000 else 0.0) for off in
               (900_000, 100_000, 500_000, 300_000, 700_000) * 3]
        )
        assert len(timeline) >= VECTOR_CUTOFF
        assert_models_match_references(make_context(PLANS[0], -60.0, timeline))

    def test_below_sensitivity_short_circuits_identically(self):
        weak = RADIO.sensitivity_dbm[Rate.MBPS_11] - 1.0
        context = make_context(PLANS[0], weak, ((0, 0.0),))
        assert _evaluate_reference(context, RADIO) is ReceptionOutcome.BELOW_SENSITIVITY
        outcome = SinrThresholdReception().evaluate(context, RADIO, random.Random(0))
        assert outcome is ReceptionOutcome.BELOW_SENSITIVITY


class TestBerBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(
        plan_index=st.integers(min_value=0, max_value=len(PLANS) - 1),
        rx_power_dbm=st.sampled_from(RX_POWERS_DBM),
        timeline=timelines(),
    )
    def test_cached_tables_match_reference(self, plan_index, rx_power_dbm, timeline):
        # The memoized success-probability tables must give the reference
        # product exactly, consumed by exactly one Bernoulli draw.
        assert_ber_matches_reference(
            make_context(PLANS[plan_index], rx_power_dbm, timeline)
        )
