"""Kernel-vs-reference bit-identity for the reception fast path.

The numpy kernel is only allowed to exist because it is *indistinguishable*
from the reference implementation: same outcome for every context, same
RNG consumption.  These tests drive both implementations over generated
signal-overlap layouts — short and long timelines (straddling the
vectorization cutoff), duplicate offsets, zero interference, bursts around
the sensitivity and SINR thresholds — and demand identical verdicts.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.airtime import AirtimeCalculator
from repro.core.params import Rate
from repro.errors import ConfigurationError
from repro.phy import kernel as kernel_module
from repro.phy.kernel import (
    KERNEL_ENV,
    VECTOR_CUTOFF,
    numpy_available,
    resolve_kernel,
)
from repro.phy.plans import data_frame_plan
from repro.phy.radio import RadioParameters
from repro.phy.reception import (
    BerReception,
    ReceptionContext,
    ReceptionOutcome,
    SinrThresholdReception,
)
from repro.units import dbm_to_mw

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy kernel not importable"
)

RADIO = RadioParameters.calibrated()
AIRTIME = AirtimeCalculator()
PLANS = [
    data_frame_plan(540, Rate.MBPS_11, AIRTIME),
    data_frame_plan(1460, Rate.MBPS_2, AIRTIME),
    data_frame_plan(20, Rate.MBPS_5_5, AIRTIME),
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


class TestResolveKernel:
    def test_explicit_names(self):
        assert resolve_kernel("python") == "python"
        assert resolve_kernel("numpy") == "numpy"

    def test_auto_prefers_numpy(self):
        assert resolve_kernel("auto") == "numpy"

    def test_environment_is_consulted(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "python")
        assert resolve_kernel() == "python"

    def test_preference_beats_environment(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "numpy")
        assert resolve_kernel("python") == "python"

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_kernel("fortran")

    def test_explicit_numpy_without_numpy_rejected(self, monkeypatch):
        monkeypatch.setattr(kernel_module, "_NUMPY_INSTALLED", False)
        assert resolve_kernel() == "python"  # auto falls back silently
        with pytest.raises(ConfigurationError):
            resolve_kernel("numpy")  # an explicit ask does not


class TestSinrBitIdentity:
    @settings(max_examples=300, deadline=None)
    @given(
        plan_index=st.integers(min_value=0, max_value=len(PLANS) - 1),
        rx_power_dbm=st.sampled_from(RX_POWERS_DBM),
        timeline=timelines(),
    )
    def test_kernel_matches_reference(self, plan_index, rx_power_dbm, timeline):
        plan = PLANS[plan_index]
        reference = SinrThresholdReception(kernel="python")
        fast = SinrThresholdReception(kernel="numpy")
        context = make_context(plan, rx_power_dbm, timeline)
        expected = reference.evaluate(context, RADIO, random.Random(0))
        assert fast.evaluate(context, RADIO, random.Random(0)) is expected

    def test_duplicate_offsets_long_timeline(self):
        # Above the vectorization cutoff with every offset doubled: the
        # keep-last dedupe must pick the later level, like the reference's
        # lo < hi interval check does.
        strong = dbm_to_mw(-60.0)
        offsets = [0] + sorted(
            list(range(0, 700_000, 50_000)) + list(range(0, 700_000, 50_000))
        )[1:]
        timeline = tuple(
            (off, strong if i % 2 == 0 else 0.0) for i, off in enumerate(offsets)
        )
        assert len(timeline) >= VECTOR_CUTOFF
        for plan in PLANS:
            context = make_context(plan, -60.0, timeline)
            expected = SinrThresholdReception(kernel="python").evaluate(
                context, RADIO, random.Random(0)
            )
            got = SinrThresholdReception(kernel="numpy").evaluate(
                context, RADIO, random.Random(0)
            )
            assert got is expected

    def test_unsorted_timeline_matches_reference(self):
        # Only hand-built contexts can be unsorted; the kernel must fall
        # back to the reference interval walk rather than mis-vectorize.
        strong = dbm_to_mw(-58.0)
        timeline = tuple(
            [(0, 0.0)]
            + [(off, strong if off % 100_000 else 0.0) for off in
               (900_000, 100_000, 500_000, 300_000, 700_000) * 3]
        )
        assert len(timeline) >= VECTOR_CUTOFF
        context = make_context(PLANS[0], -60.0, timeline)
        expected = SinrThresholdReception(kernel="python").evaluate(
            context, RADIO, random.Random(0)
        )
        got = SinrThresholdReception(kernel="numpy").evaluate(
            context, RADIO, random.Random(0)
        )
        assert got is expected

    def test_below_sensitivity_short_circuits_identically(self):
        weak = RADIO.sensitivity_dbm[Rate.MBPS_11] - 1.0
        context = make_context(PLANS[0], weak, ((0, 0.0),))
        for kernel in ("python", "numpy"):
            outcome = SinrThresholdReception(kernel=kernel).evaluate(
                context, RADIO, random.Random(0)
            )
            assert outcome is ReceptionOutcome.BELOW_SENSITIVITY


class TestBerBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(
        plan_index=st.integers(min_value=0, max_value=len(PLANS) - 1),
        rx_power_dbm=st.sampled_from(RX_POWERS_DBM),
        timeline=timelines(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_cached_tables_match_reference(
        self, plan_index, rx_power_dbm, timeline, seed
    ):
        # The memoized success-probability tables must not perturb the
        # Bernoulli draw: same seed, same outcome, same RNG consumption.
        plan = PLANS[plan_index]
        context = make_context(plan, rx_power_dbm, timeline)
        rng_ref, rng_fast = random.Random(seed), random.Random(seed)
        expected = BerReception(kernel="python").evaluate(context, RADIO, rng_ref)
        got = BerReception(kernel="numpy").evaluate(context, RADIO, rng_fast)
        assert got is expected
        assert rng_ref.random() == rng_fast.random()  # same draw count
