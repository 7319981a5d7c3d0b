"""Throughput, loss and delay meters with warm-up trimming.

The simulation clock is integer nanoseconds; the meters historically
took float seconds, which loses integer precision exactly at the warmup
boundary (a packet at ``t == warmup`` must count).  The ``record_ns``
entry points are the native API; :class:`DelayMeter` takes float
seconds.
"""

from __future__ import annotations

from repro.analysis.stats import RunningStats
from repro.errors import ConfigurationError
from repro.units import ns_to_s, s_to_ns


class ThroughputMeter:
    """Counts bytes in a measurement window."""

    def __init__(self, warmup_s: float = 0.0):
        if warmup_s < 0:
            raise ConfigurationError(f"warmup must be >= 0 s, got {warmup_s}")
        # Kept as the float the caller gave us so the window arithmetic
        # in throughput_bps is bit-identical to the historical API.
        self._warmup_s = warmup_s
        self._warmup_ns = s_to_ns(warmup_s)
        self._bytes = 0
        self._last_time_ns = 0

    @property
    def bytes(self) -> int:
        """Bytes counted after the warm-up."""
        return self._bytes

    @property
    def warmup_ns(self) -> int:
        """The warmup boundary on the simulation clock."""
        return self._warmup_ns

    def record_ns(self, nbytes: int, time_ns: int) -> None:
        """Count ``nbytes`` delivered at integer sim time ``time_ns``.

        The boundary is inclusive: a delivery at exactly the warmup
        instant counts (matching every sink's ``now >= warmup`` gate).
        """
        self._last_time_ns = max(self._last_time_ns, time_ns)
        if time_ns >= self._warmup_ns:
            self._bytes += nbytes

    def throughput_bps(self, horizon_s: float | None = None) -> float:
        """Bits per second over [warmup, horizon]."""
        end = horizon_s if horizon_s is not None else ns_to_s(self._last_time_ns)
        window = end - self._warmup_s
        if window <= 0:
            return 0.0
        return self._bytes * 8 / window


class LossMeter:
    """Sent-vs-received packet accounting.

    The optional ns-native entry points additionally pin the window the
    packets fell in, so loss over a measurement window can be checked
    against the ledger's accounting.
    """

    def __init__(self) -> None:
        self.sent = 0
        self.received = 0
        self.first_sent_ns: int | None = None
        self.last_received_ns: int | None = None

    def record_sent(self, count: int = 1) -> None:
        """Count offered packets."""
        self.sent += count

    def record_received(self, count: int = 1) -> None:
        """Count delivered packets."""
        self.received += count

    def record_sent_ns(self, time_ns: int, count: int = 1) -> None:
        """Count offered packets at integer sim time ``time_ns``."""
        if self.first_sent_ns is None or time_ns < self.first_sent_ns:
            self.first_sent_ns = time_ns
        self.sent += count

    def record_received_ns(self, time_ns: int, count: int = 1) -> None:
        """Count delivered packets at integer sim time ``time_ns``."""
        if self.last_received_ns is None or time_ns > self.last_received_ns:
            self.last_received_ns = time_ns
        self.received += count

    @property
    def loss_rate(self) -> float:
        """Fraction of offered packets that never arrived."""
        if self.sent == 0:
            return 0.0
        return max(0.0, 1.0 - self.received / self.sent)


class DelayMeter:
    """One-way delay statistics."""

    def __init__(self, warmup_s: float = 0.0):
        self._warmup_s = warmup_s
        self._stats = RunningStats()
        self._samples: list[float] = []

    def record(self, sent_s: float, received_s: float) -> None:
        """Feed one packet's (send time, receive time)."""
        if received_s < sent_s:
            raise ConfigurationError(
                f"packet received at {received_s} s before sent at {sent_s} s"
            )
        if received_s >= self._warmup_s:
            delay = received_s - sent_s
            self._stats.add(delay)
            self._samples.append(delay)

    @property
    def count(self) -> int:
        """Delay samples recorded."""
        return self._stats.count

    @property
    def mean_s(self) -> float:
        """Mean one-way delay."""
        return self._stats.mean

    @property
    def max_s(self) -> float:
        """Worst delay seen."""
        return self._stats.maximum

    def percentile_s(self, fraction: float) -> float:
        """Delay percentile (e.g. 0.99)."""
        if not 0 <= fraction <= 1:
            raise ConfigurationError(f"fraction must be in [0, 1], got {fraction}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
        return ordered[index]
