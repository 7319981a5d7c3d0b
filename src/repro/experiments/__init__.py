"""Experiment harness: one runner per table/figure of the paper.

Every experiment returns a structured result object carrying both the
simulated values and the paper's published values (from
:mod:`repro.experiments.paper`), so benches and the CLI can print
paper-vs-measured rows directly.
"""

from repro.scenario import ScenarioNetwork, build_network
from repro.experiments.table2 import Table2Row, run_table2
from repro.experiments.two_nodes import Figure2Result, run_figure2
from repro.experiments.ranges import (
    LossCurve,
    RangeEstimate,
    estimate_tx_range,
    run_figure3,
    run_figure4,
    run_loss_sweep,
    run_table3,
)
from repro.experiments.four_nodes import (
    FourNodeResult,
    run_figure7,
    run_figure9,
    run_figure11,
    run_figure12,
)
from repro.experiments.registry import EXPERIMENTS, get_experiment

__all__ = [
    "EXPERIMENTS",
    "Figure2Result",
    "FourNodeResult",
    "LossCurve",
    "RangeEstimate",
    "ScenarioNetwork",
    "Table2Row",
    "build_network",
    "estimate_tx_range",
    "get_experiment",
    "run_figure2",
    "run_figure3",
    "run_figure4",
    "run_figure7",
    "run_figure9",
    "run_figure11",
    "run_figure12",
    "run_loss_sweep",
    "run_table2",
    "run_table3",
]
