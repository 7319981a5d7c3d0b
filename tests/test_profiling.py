"""Tests for the cProfile harness behind ``repro80211 profile``."""

import re
from dataclasses import dataclass

import pytest

from repro import profiling
from repro.errors import ExperimentError
from repro.profiling import profile_experiment


class TestProfileExperiment:
    def test_report_contains_profile_sections(self):
        report = profile_experiment("table2", top=10)
        assert report.startswith("profile: table2")
        assert "=== top 10 by cumulative time ===" in report
        assert "=== top 10 by self time ===" in report
        assert "ncalls" in report  # pstats table actually rendered

    def test_unknown_experiment_propagates(self):
        with pytest.raises(ExperimentError, match="figure99"):
            profile_experiment("figure99")


@dataclass
class _Often:
    value: int


@dataclass
class _Seldom:
    value: int


class _ToyExperiment:
    """Builds one dataclass 1,000 times and another 10 times."""

    def invoke(self, overrides, **harness):
        for value in range(1000):
            _Often(value)
        for value in range(10):
            _Seldom(value)
        return ""


class TestSharedLabels:
    def test_dataclass_methods_sharing_a_label_are_all_counted(self, monkeypatch):
        # cProfile files both generated __init__ methods under one
        # ('<string>', line, '__init__') label; neither may be dropped.
        monkeypatch.setattr(profiling, "get_experiment", lambda name: _ToyExperiment())
        report = profile_experiment("toy", sort="tottime")
        total = int(re.search(r"(\d+) function calls", report).group(1))
        assert total >= 1010
        [row] = [line for line in report.splitlines() if "(__init__)" in line]
        assert row.split()[0] == "1010"
