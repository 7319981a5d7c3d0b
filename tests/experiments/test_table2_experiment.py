"""Tests for the Table-2 experiment runner."""

import pytest

from repro.core.params import Rate
from repro.experiments.table2 import format_table2, run_table2


class TestRunTable2:
    def test_sixteen_cells(self):
        assert len(run_table2()) == 16

    def test_11_mbps_512_bytes_is_3_060(self):
        [row] = [
            row
            for row in run_table2()
            if row.rate is Rate.MBPS_11 and row.payload_bytes == 512 and not row.rts_cts
        ]
        assert row.standard_mbps == pytest.approx(3.060, abs=0.001)

    def test_every_no_rts_cell_matches_paper(self):
        for row in run_table2():
            if not row.rts_cts:
                assert abs(row.standard_mbps - row.paper_mbps) < 0.002

    def test_every_cell_matches_under_some_interpretation_except_known_typo(self):
        mismatches = [row for row in run_table2() if not row.matches_paper]
        # The single known outlier: 1 Mbps / 512 B / RTS-CTS (see DESIGN.md).
        assert len(mismatches) == 1
        outlier = mismatches[0]
        assert outlier.rate is Rate.MBPS_1
        assert outlier.payload_bytes == 512
        assert outlier.rts_cts

    def test_formatting_contains_all_rates(self):
        text = format_table2(run_table2())
        for rate in ("11 Mbps", "5.5 Mbps", "2 Mbps", "1 Mbps"):
            assert rate in text
