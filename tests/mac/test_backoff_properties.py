"""Property suite for the binary-exponential backoff schedule.

Unlike ``test_backoff.py`` (which pins Table 1 defaults), every
property here is parameterised over the :class:`MacParamsSpec` override
ranges the ``mac-surface`` experiment sweeps, so the schedule invariants
hold for *any* CWmin/CWmax/retry configuration a sweep can produce —
not just the 802.11b defaults.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.params import MacParameters
from repro.mac.backoff import Backoff, ContentionWindow
from repro.scenario import MacParamsSpec

#: CW bounds drawn as powers of two spanning the sweepable range
#: (SURFACE_AXES uses 16..128 for CWmin, 64..1024 for CWmax).
_cw_exponents = st.integers(min_value=0, max_value=11)


@st.composite
def mac_params_specs(draw) -> MacParamsSpec:
    """A valid MacParamsSpec over the surface's sweep ranges."""
    lo = draw(_cw_exponents)
    hi = draw(_cw_exponents)
    lo, hi = min(lo, hi), max(lo, hi)
    return MacParamsSpec(
        cw_min_slots=2**lo,
        cw_max_slots=2**hi,
        short_retry_limit=draw(st.integers(min_value=0, max_value=10)),
    )


def _mac(spec: MacParamsSpec) -> MacParameters:
    return spec.to_mac_parameters()


@given(spec=mac_params_specs(), failures=st.integers(min_value=0, max_value=16))
def test_window_doubles_and_clamps_at_cw_max(spec, failures):
    mac = _mac(spec)
    cw = ContentionWindow(mac)
    for _ in range(failures):
        before = cw.window_slots
        cw.double()
        assert cw.window_slots == min(2 * before, mac.cw_max_slots)
    assert cw.window_slots == min(
        mac.cw_min_slots * 2**failures, mac.cw_max_slots
    )


@given(spec=mac_params_specs(), failures=st.integers(min_value=0, max_value=16))
def test_reset_returns_to_cw_min_from_any_state(spec, failures):
    """Success and retry-limit drop both snap the window back to CWmin."""
    mac = _mac(spec)
    cw = ContentionWindow(mac)
    for _ in range(failures):
        cw.double()
    cw.reset()
    assert cw.window_slots == mac.cw_min_slots


@given(spec=mac_params_specs())
def test_retry_schedule_never_leaves_bounds(spec):
    """A full retry lifecycle (up to the limit, then drop) stays in
    [CWmin, CWmax] at every attempt."""
    mac = _mac(spec)
    cw = ContentionWindow(mac)
    for _ in range(mac.short_retry_limit + 1):
        assert mac.cw_min_slots <= cw.window_slots <= mac.cw_max_slots
        cw.double()
    cw.reset()  # retry limit exhausted: frame dropped
    assert cw.window_slots == mac.cw_min_slots


@given(
    spec=mac_params_specs(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    failures=st.integers(min_value=0, max_value=12),
)
@settings(max_examples=50)
def test_draws_are_uniform_over_the_current_window(spec, seed, failures):
    mac = _mac(spec)
    cw = ContentionWindow(mac)
    for _ in range(failures):
        cw.double()
    rng = random.Random(seed)
    draws = [cw.draw(rng) for _ in range(64)]
    assert all(0 <= d < cw.window_slots for d in draws)
    if cw.window_slots >= 8:
        # Coarse uniformity: both halves of the window get draws.
        half = cw.window_slots / 2
        assert any(d < half for d in draws)
        assert any(d >= half for d in draws)


@given(
    spec=mac_params_specs(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=50)
def test_rng_consumption_is_deterministic_per_seed(spec, seed):
    """Same seed, same schedule -> identical draw sequence, and the RNG
    ends in the same state (the determinism the trace goldens rely on)."""
    mac = _mac(spec)

    def run() -> tuple[list[int], tuple]:
        cw = ContentionWindow(mac)
        rng = random.Random(seed)
        draws = []
        for _ in range(6):
            draws.append(cw.draw(rng))
            cw.double()
        cw.reset()
        draws.append(cw.draw(rng))
        return draws, rng.getstate()

    first_draws, first_state = run()
    second_draws, second_state = run()
    assert first_draws == second_draws
    assert first_state == second_state


@given(
    spec=mac_params_specs(),
    slots=st.integers(min_value=0, max_value=1023),
    gaps_us=st.lists(
        st.integers(min_value=0, max_value=5_000), max_size=8
    ),
)
def test_backoff_consumes_whole_slots_under_any_timing(spec, slots, gaps_us):
    """Slot consumption honours overridden slot times: only whole
    elapsed slots count, and the remainder never goes negative."""
    slot_spec = MacParamsSpec(
        cw_min_slots=spec.cw_min_slots,
        cw_max_slots=spec.cw_max_slots,
        slot_time_us=9.0,
        sifs_us=10.0,
    )
    mac = _mac(slot_spec)
    slot_ns = round(mac.slot_time_us * 1000)
    backoff = Backoff(mac)
    backoff.begin(slots)
    t = 0
    expected = slots
    for gap_us in gaps_us:
        backoff.countdown_started(t)
        t += gap_us * 1000
        backoff.countdown_stopped(t)
        expected = max(0, expected - (gap_us * 1000) // slot_ns)
        assert backoff.remaining_slots == expected
    backoff.finish()
    assert not backoff.pending
