"""Import-graph guard: heavy third-party modules stay off the startup path.

Every CLI call, benchmark child and spawn-started pool worker is a fresh
interpreter, so what ``import repro`` pulls in is paid on each of them.
scipy is needed only for confidence intervals, and :mod:`repro` never
imports numpy itself (scipy brings it along); neither may load just
because a package was imported or a scenario was built and run.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.stats import RunningStats, confidence_interval

_REPO_ROOT = Path(__file__).resolve().parents[1]

_LEAN_SCRIPT = """
import sys

import repro
import repro.cli
import repro.experiments.four_nodes
import repro.experiments.mac_surface
import repro.experiments.multihop
import repro.experiments.ranges
import repro.parallel
from repro.experiments.ranges import loss_spec
from repro.scenario import build

net = build(loss_spec(11.0, 50.0, probes=20, seed=1))
net.run(0.5)
heavy = sorted(
    name for name in sys.modules if name.split(".")[0] in ("numpy", "scipy")
)
print(" ".join(heavy))
"""


def test_import_and_small_run_load_neither_numpy_nor_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", _LEAN_SCRIPT],
        env=env,
        cwd=str(_REPO_ROOT),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


def test_confidence_interval_uses_student_t():
    scipy_stats = pytest.importorskip("scipy.stats")
    values = [1.0, 2.0, 4.0]
    running = RunningStats()
    running.extend(values)
    mean, half_width = confidence_interval(values)
    assert mean == running.mean
    assert half_width == (
        scipy_stats.t.ppf(0.975, 2) * running.stdev / math.sqrt(3)
    )
