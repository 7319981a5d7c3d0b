"""Unit conversions used throughout the library.

Simulation time is kept as an integer number of **nanoseconds** so that the
event heap never suffers floating-point drift.  All public APIs accept and
report seconds or microseconds as floats; these helpers convert at the
boundary.

Power is handled in dBm externally (link budgets are naturally additive in
dB) and in milliwatts internally (interference powers are additive in mW).
"""

from __future__ import annotations

import math

#: Nanoseconds per microsecond.
NS_PER_US = 1_000
#: Nanoseconds per millisecond.
NS_PER_MS = 1_000_000
#: Nanoseconds per second.
NS_PER_S = 1_000_000_000


def us_to_ns(microseconds: float) -> int:
    """Convert a duration in microseconds to integer nanoseconds."""
    return round(microseconds * NS_PER_US)


def ms_to_ns(milliseconds: float) -> int:
    """Convert a duration in milliseconds to integer nanoseconds."""
    return round(milliseconds * NS_PER_MS)


def s_to_ns(seconds: float) -> int:
    """Convert a duration in seconds to integer nanoseconds."""
    return round(seconds * NS_PER_S)


def ns_to_us(nanoseconds: int) -> float:
    """Convert integer nanoseconds to microseconds."""
    return nanoseconds / NS_PER_US


def ns_to_s(nanoseconds: int) -> float:
    """Convert integer nanoseconds to seconds."""
    return nanoseconds / NS_PER_S


def dbm_to_mw(dbm: float) -> float:
    """Convert a power level from dBm to milliwatts."""
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    """Convert a power level from milliwatts to dBm.

    Raises
    ------
    ValueError
        If ``mw`` is not strictly positive (zero power has no dBm value).
    """
    if mw <= 0.0:
        raise ValueError(f"power must be > 0 mW to convert to dBm, got {mw}")
    return 10.0 * math.log10(mw)


def db_to_linear(db: float) -> float:
    """Convert a ratio expressed in dB to a linear ratio."""
    return 10.0 ** (db / 10.0)


def linear_to_db(ratio: float) -> float:
    """Convert a linear ratio to dB."""
    if ratio <= 0.0:
        raise ValueError(f"ratio must be > 0 to convert to dB, got {ratio}")
    return 10.0 * math.log10(ratio)


def mbps_to_bps(mbps: float) -> float:
    """Convert megabits per second to bits per second."""
    return mbps * 1e6


def bits_duration_us(bits: int, rate_mbps: float) -> float:
    """Time in microseconds to transmit ``bits`` at ``rate_mbps``.

    A rate of R Mbps moves R bits per microsecond, so the duration is simply
    ``bits / rate_mbps``.
    """
    if rate_mbps <= 0.0:
        raise ValueError(f"rate must be > 0 Mbps, got {rate_mbps}")
    return bits / rate_mbps
