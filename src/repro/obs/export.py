"""Exporters: JSONL dumps and streaming digests of the event stream.

All encodings go through
:func:`repro.analysis.tracefile.encode_record`, so a digest streamed
during the run equals a digest of the written file's lines — and two
runs of the same seeded scenario produce bit-identical artefacts
regardless of worker count or cache temperature.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING

from repro.analysis.tracefile import encode_record
from repro.sim.tracing import TraceRecord, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.ledger import PacketLedger


class TraceDigest:
    """SHA-256 over the canonical encoding of the event stream.

    Subscribing does not perturb the tracer's counters, so attaching a
    digest never changes a run's golden counter digest.
    """

    def __init__(self, tracer: Tracer, prefix: str = ""):
        self._sha = hashlib.sha256()
        self.records_hashed = 0
        tracer.subscribe(self._on_record, prefix=prefix)

    def _on_record(self, record: TraceRecord) -> None:
        self._sha.update(encode_record(record).encode())
        self._sha.update(b"\n")
        self.records_hashed += 1

    def hexdigest(self) -> str:
        """Digest of everything hashed so far."""
        return self._sha.hexdigest()


class LedgerWriter:
    """Dumps a finalized ledger to a ``.jsonl`` file, one SDU per line.

    Entries are written in (origin, sdu) order so the file is
    deterministic for a deterministic run.
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)

    def write(self, ledger: "PacketLedger") -> int:
        """Write every entry; returns the number of lines."""
        self._path.parent.mkdir(parents=True, exist_ok=True)
        entries = sorted(ledger.entries.values(), key=lambda e: e.key)
        with self._path.open("w") as handle:
            for entry in entries:
                handle.write(json.dumps(entry.to_dict(), sort_keys=True))
                handle.write("\n")
        return len(entries)


def trace_digest_row(net, **params) -> dict:
    """Scenario extractor: the run's streamed trace digest.

    Requires the scenario's :class:`ObservabilitySpec` to have
    ``trace_digest=True`` so the builder attached a digest subscriber;
    the spec travels with the point, which is what makes this work in
    parallel sweep workers too.
    """
    recorder = getattr(net, "recorder", None)
    if recorder is None or recorder.digest is None:
        raise ValueError(
            "trace_digest_row needs observability.trace_digest=True on "
            "the scenario spec"
        )
    return {
        "trace_sha256": recorder.digest.hexdigest(),
        "records": recorder.digest.records_hashed,
    }
