"""Batched reception math: the fast kernel behind the reception models.

The reference implementations in :mod:`repro.phy.reception` walk every
(frame field x interference interval) pair in Python and call
``linear_to_db`` — a transcendental — per pair.  This module restructures
that walk around one observation: for the threshold model a segment
fails iff its *worst* (minimum-SINR) interval fails, and SINR is
monotone decreasing in interference power.  The kernel therefore reduces
each segment to its maximum interference power — a pure max, no
transcendental — and makes exactly one ``linear_to_db`` call per
segment, with bit-identical arguments to the call the reference would
have made on that worst interval.  The verdict is identical by
monotonicity; the floating-point path to it is identical by
construction.

Interference timelines come from the transceiver with nondecreasing
offsets.  Long timelines (dense interferer neighbourhoods) are reduced
with numpy in one vectorized pass (``searchsorted`` + sliced ``max``
per segment); short ones — the common case — use a scalar fast path,
since numpy's per-call overhead exceeds the work below roughly a dozen
entries.  A timeline that is *not* sorted (only hand-built contexts can
produce one) falls back to the scalar path, which handles arbitrary
timelines exactly like the reference.

numpy is looked up at import time but only imported the first time a
timeline reaches ``VECTOR_CUTOFF`` entries, so a run that never gets
there never pays numpy's import cost.

Kernel selection: ``resolve_kernel()`` reads the ``REPRO_KERNEL``
environment variable (``python`` | ``numpy`` | ``auto``); scenario specs
can pin a choice per run via ``StackSpec.kernel``.  ``python`` is the
reference implementation, kept verbatim as the fallback; ``numpy`` is
this module.  The golden digests are the arbiter that both agree.
"""

from __future__ import annotations

import importlib.util
import os
from typing import TYPE_CHECKING

from math import log10 as _log10

from repro.errors import ConfigurationError
from repro.units import dbm_to_mw

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.phy.radio import RadioParameters
    from repro.phy.reception import ReceptionContext

#: Whether numpy is installed, found without importing it.
_NUMPY_INSTALLED = importlib.util.find_spec("numpy") is not None

#: Environment variable selecting the reception kernel.
KERNEL_ENV = "REPRO_KERNEL"

#: Kernel names accepted by :func:`resolve_kernel` (besides ``auto``).
KERNELS = ("python", "numpy")

#: Timeline length at which the numpy reduction overtakes the scalar
#: loop.  Below this the kernel stays scalar — same arithmetic, no
#: array-construction overhead.
VECTOR_CUTOFF = 12


def numpy_available() -> bool:
    """True when the numpy backend can actually run."""
    return _NUMPY_INSTALLED


def resolve_kernel(preference: str | None = None) -> str:
    """Pick the reception kernel: explicit preference, else environment.

    ``preference`` (e.g. from a scenario spec) wins over the
    ``REPRO_KERNEL`` environment variable; ``auto`` (the default when
    neither is set) selects ``numpy`` when installed (loaded on first
    use), else ``python``.
    An *explicit* request for ``numpy`` without numpy installed is a
    configuration error, not a silent fallback.
    """
    name = preference if preference is not None else os.environ.get(KERNEL_ENV, "auto")
    name = name.strip().lower() or "auto"
    if name == "auto":
        return "numpy" if numpy_available() else "python"
    if name not in KERNELS:
        raise ConfigurationError(
            f"unknown reception kernel {name!r}; expected one of "
            f"{', '.join(KERNELS)} or auto"
        )
    if name == "numpy" and not numpy_available():
        raise ConfigurationError(
            "reception kernel 'numpy' requested but numpy is not installed"
        )
    return name


class SinrKernel:
    """Fast path for :class:`~repro.phy.reception.SinrThresholdReception`.

    Holds per-plan tables — segment offsets joined with the radio's
    per-rate sensitivity and SINR threshold — so the per-frame work is
    pure arithmetic on floats.  Plans are interned per station (see
    :mod:`repro.phy.plans`), so the table dict stays a handful of
    entries.  The tables are keyed against one radio; if the same model
    instance is ever handed a different radio the tables rebuild.
    """

    __slots__ = ()

    @staticmethod
    def _rows(
        plan, radio: "RadioParameters"
    ) -> tuple[tuple[int, int, float, float], ...]:
        # The table rides on the (interned, frozen) plan itself, written
        # through __dict__ like cached_property does — an attribute read
        # per frame instead of hashing the plan's segment tuple.  Tagged
        # with the radio it was built against: a plan is only ever
        # evaluated by its transmitting station's radio, but a different
        # radio (shared plans in tests) rebuilds rather than lies.
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

    def evaluate(self, context: "ReceptionContext", radio: "RadioParameters"):
        """Threshold-model verdict, bit-identical to the reference."""
        from repro.phy.reception import ReceptionOutcome

        rx_dbm = context.rx_power_dbm
        signal_mw = dbm_to_mw(rx_dbm)
        noise_mw = context.noise_mw
        timeline = context.interference_timeline
        n = len(timeline)
        rows = self._rows(context.plan, radio)

        # ``10.0 * log10(x)`` below is units.linear_to_db inlined (SINR
        # is strictly positive here): same expression, no call frame.

        if n == 1:
            # No interference change during the whole reception — the
            # modal case: every segment sees the single timeline level.
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

        if _NUMPY_INSTALLED and n >= VECTOR_CUTOFF:
            import numpy as _np

            offs = _np.empty(n, dtype=_np.int64)
            mws = _np.empty(n, dtype=_np.float64)
            for i, (off, mw) in enumerate(timeline):
                offs[i] = off
                mws[i] = mw
            if bool((offs[1:] >= offs[:-1]).all()):
                # Keep-last dedupe: an entry sharing its offset with its
                # successor spans zero time — the reference's lo < hi
                # check drops exactly those, so dropping them here keeps
                # the per-segment max over the same interval set.
                keep = _np.empty(n, dtype=bool)
                keep[:-1] = offs[1:] > offs[:-1]
                keep[-1] = True
                if not bool(keep.all()):
                    offs = offs[keep]
                    mws = mws[keep]
                for start_ns, end_ns, sensitivity, threshold in rows:
                    if rx_dbm < sensitivity:
                        return ReceptionOutcome.BELOW_SENSITIVITY
                    if end_ns <= start_ns:
                        continue
                    i0 = int(_np.searchsorted(offs, start_ns, side="right")) - 1
                    if i0 < 0:
                        i0 = 0
                    i1 = int(_np.searchsorted(offs, end_ns, side="left"))
                    if i1 <= i0:
                        continue
                    worst_mw = float(mws[i0:i1].max())
                    sinr = signal_mw / (noise_mw + worst_mw)
                    if 10.0 * _log10(sinr) < threshold:
                        return ReceptionOutcome.SINR_FAILURE
                return ReceptionOutcome.OK
            # Unsorted timeline (hand-built context): scalar path below
            # handles it exactly like the reference.

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
