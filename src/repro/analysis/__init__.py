"""Measurement and statistics utilities.

* :mod:`repro.analysis.stats` — running statistics, Student-t confidence
  intervals, replication summaries.
* :mod:`repro.analysis.meters` — the one-way delay meter the UDP sink
  keeps (goodput and loss are counted by the sinks and sources
  themselves).
* :mod:`repro.analysis.tables` — aligned plain-text tables for CLI and
  bench output.
* :mod:`repro.analysis.ascii_plot` — terminal line plots for the
  loss-vs-distance curves.
* :mod:`repro.analysis.csvio` — CSV export of experiment results.
* :mod:`repro.analysis.analytic` — closed-form DCF saturation model
  (retry-limited Bianchi), the reference side of the conformance
  harness.
"""

from repro.analysis.analytic import (
    DcfPrediction,
    jain_index,
    predict_scenario,
    saturation_throughput,
)
from repro.analysis.stats import RunningStats, confidence_interval, summarize
from repro.analysis.meters import DelayMeter
from repro.analysis.tables import render_table
from repro.analysis.ascii_plot import line_plot
from repro.analysis.csvio import write_csv

__all__ = [
    "DcfPrediction",
    "DelayMeter",
    "RunningStats",
    "confidence_interval",
    "jain_index",
    "line_plot",
    "predict_scenario",
    "render_table",
    "saturation_throughput",
    "summarize",
    "write_csv",
]
