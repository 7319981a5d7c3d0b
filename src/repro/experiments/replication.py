"""Replication driver: run an experiment across seeds, report CIs.

Single runs of a stochastic simulation are point samples; publishable
numbers need replications.  :func:`replicate` runs a seed-parametrised
metric function across independent seeds, in-process, and summarises
the results with a Student-t confidence interval.  Seeds are derived
from the base seed alone, never from execution order.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.analysis.stats import Summary, summarize
from repro.errors import ExperimentError

MetricFn = Callable[[int], float]


def replicate(
    metric: MetricFn,
    replications: int = 5,
    base_seed: int = 1,
    confidence: float = 0.95,
) -> Summary:
    """Run ``metric(seed)`` for ``replications`` independent seeds.

    Seeds are ``base_seed * 1000 + i`` so different base seeds give
    disjoint replication sets.
    """
    if replications < 1:
        raise ExperimentError("need at least one replication")
    values = [metric(seed) for seed in seeds_for(replications, base_seed)]
    return summarize(values, confidence=confidence)


def seeds_for(replications: int, base_seed: int = 1) -> Sequence[int]:
    """The seed sequence :func:`replicate` would use (for custom loops)."""
    return [base_seed * 1000 + index for index in range(replications)]
