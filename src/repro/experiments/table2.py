"""Experiment ``table2``: regenerate Table 2 from Equations (1)/(2)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import render_table
from repro.core.params import ALL_RATES, Rate
from repro.core.throughput_model import RtsCtsOverheadModel, ThroughputModel
from repro.experiments import paper


@dataclass(frozen=True)
class Table2Row:
    """One cell of Table 2 with the paper's value alongside ours."""

    rate: Rate
    payload_bytes: int
    rts_cts: bool
    paper_mbps: float
    standard_mbps: float
    paper_implied_mbps: float

    @property
    def matches_paper(self) -> bool:
        """True when either interpretation lands within 10 kbps."""
        return (
            abs(self.standard_mbps - self.paper_mbps) < 0.01
            or abs(self.paper_implied_mbps - self.paper_mbps) < 0.01
        )


def run_table2(payload_sizes: tuple[int, ...] = (512, 1024)) -> list[Table2Row]:
    """Evaluate every Table-2 cell under both RTS/CTS overhead models.

    Closed-form arithmetic, so the cells are computed inline rather than
    swept: there is nothing to parallelise, retry or cache.
    """
    standard = ThroughputModel(rts_overhead=RtsCtsOverheadModel.STANDARD)
    implied = ThroughputModel(rts_overhead=RtsCtsOverheadModel.PAPER_IMPLIED)
    return [
        Table2Row(
            rate=rate,
            payload_bytes=payload,
            rts_cts=rts_cts,
            paper_mbps=paper.TABLE2_MBPS[(rate, payload, rts_cts)],
            standard_mbps=standard.max_throughput_bps(payload, rate, rts_cts) / 1e6,
            paper_implied_mbps=implied.max_throughput_bps(payload, rate, rts_cts)
            / 1e6,
        )
        for rate in reversed(ALL_RATES)  # the paper lists 11 Mbps first
        for payload in payload_sizes
        for rts_cts in (False, True)
    ]


def format_table2(rows: list[Table2Row]) -> str:
    """Paper-vs-ours rendering of Table 2."""
    return render_table(
        ["rate", "m (B)", "RTS/CTS", "paper", "ours (Eq.1/2)", "ours (paper-implied)"],
        [
            (
                str(row.rate),
                row.payload_bytes,
                "yes" if row.rts_cts else "no",
                row.paper_mbps,
                row.standard_mbps,
                row.paper_implied_mbps,
            )
            for row in rows
        ],
        title="Table 2 - maximum throughput (Mbps)",
    )
