"""Running statistics and confidence intervals.

scipy is imported inside :func:`confidence_interval`, its only user, so
``import repro`` does not pay scipy's import cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ConfigurationError


class RunningStats:
    """Welford's online mean/variance."""

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    @property
    def count(self) -> int:
        """Number of samples seen."""
        return self._n

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance."""
        if self._n < 2:
            return 0.0
        return self._m2 / (self._n - 1)

    @property
    def stdev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest sample (inf when empty)."""
        return self._min

    @property
    def maximum(self) -> float:
        """Largest sample (-inf when empty)."""
        return self._max

    def add(self, value: float) -> None:
        """Feed one sample."""
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def extend(self, values: Iterable[float]) -> None:
        """Feed many samples."""
        for value in values:
            self.add(value)


def confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """(mean, half-width) of a Student-t confidence interval."""
    if not 0 < confidence < 1:
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    if len(values) == 0:
        raise ConfigurationError("cannot build a CI from zero samples")
    stats = RunningStats()
    stats.extend(values)
    if stats.count == 1:
        return stats.mean, 0.0
    from scipy import stats as scipy_stats

    t = scipy_stats.t.ppf((1 + confidence) / 2, df=stats.count - 1)
    half_width = t * stats.stdev / math.sqrt(stats.count)
    return stats.mean, half_width


@dataclass(frozen=True)
class Summary:
    """Replication summary of one metric."""

    mean: float
    half_width: float
    minimum: float
    maximum: float
    count: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.3f} ± {self.half_width:.3f} (n={self.count})"


def summarize(values: Sequence[float], confidence: float = 0.95) -> Summary:
    """Mean, CI half-width and extremes of replication results."""
    mean, half_width = confidence_interval(values, confidence)
    return Summary(
        mean=mean,
        half_width=half_width,
        minimum=min(values),
        maximum=max(values),
        count=len(values),
    )
