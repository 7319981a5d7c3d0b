"""One-way delay statistics with warm-up trimming.

Goodput and loss have no meter of their own: the sinks count delivered
bytes and packets after their warm-up (:meth:`repro.apps.sink.UdpSink.
throughput_bps`, :meth:`repro.apps.bulk.BulkTcpReceiver.throughput_bps`)
and the sources count what they offered, so a metric reads them
directly.  :class:`DelayMeter` is what each :class:`~repro.apps.sink.
UdpSink` keeps for timestamped payloads.
"""

from __future__ import annotations

from repro.analysis.stats import RunningStats
from repro.errors import ConfigurationError


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
