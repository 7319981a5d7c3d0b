"""Event-stream golden: the figure7 JSONL trace is bit-stable.

``goldens.json``'s ``traces`` section pins the SHA-256 of the canonical
JSONL encoding of *every trace record, in emission order* for the
figure7 panels.  That is a much sharper invariant than the counter
digests elsewhere in this directory: two events swapping places changes
this hash but not any counter.  The digest must also be identical
whether the point runs serially, through worker processes, or comes
back from a warm sweep cache.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.parallel import SweepCache
from repro.scenario import run_scenarios

from tests.experiments.make_goldens import (
    AUDITED_COUNTERS_PATH,
    audited_counters,
    counters_digest,
    trace_spec_cases,
)

GOLDENS = json.loads(
    (Path(__file__).with_name("goldens.json")).read_text(encoding="utf-8")
)
AUDITED_COUNTERS = json.loads(AUDITED_COUNTERS_PATH.read_text(encoding="utf-8"))

EXTRACT = "repro.obs.export:trace_digest_row"


def test_every_trace_golden_has_a_spec():
    assert set(trace_spec_cases()) == set(GOLDENS["traces"])


@pytest.mark.parametrize("name", sorted(GOLDENS["traces"]))
def test_trace_stream_matches_golden(name):
    spec = trace_spec_cases()[name]
    [row] = run_scenarios([spec], extract=EXTRACT)
    assert row == GOLDENS["traces"][name]


def test_trace_digest_is_identical_serial_pooled_and_cached(tmp_path):
    spec = trace_spec_cases()["figure7-udp"]
    cache = SweepCache(root=tmp_path / "cache")
    [serial] = run_scenarios([spec], extract=EXTRACT)
    [pooled] = run_scenarios([spec], extract=EXTRACT, jobs=2, cache=cache)
    [warm] = run_scenarios([spec], extract=EXTRACT, cache=cache)
    assert serial == pooled == warm == GOLDENS["traces"]["figure7-udp"]
    assert cache.hits > 0


def test_audited_counters_need_no_reader():
    """An audited run counts every key, whether or not anyone reads it.

    With the trace digest off only the ledger and the auditors subscribe,
    so most keys are counted without a record being built.  The counts
    must equal those of the same run with a catch-all subscriber (the
    trace digest) and the digest recorded in ``audited_counters.json``.
    """
    unread = audited_counters("mac-surface-audit", {"audit": True})
    read = audited_counters("mac-surface-audit", {"audit": True, "trace_digest": True})
    assert unread == read
    golden = AUDITED_COUNTERS["mac-surface-audit"]
    assert (len(unread), sum(unread.values())) == (golden["keys"], golden["events"])
    assert counters_digest(unread) == golden["counters_sha256"]
