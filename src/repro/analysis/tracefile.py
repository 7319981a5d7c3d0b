"""Persisting trace records to JSON-lines files.

Attach a :class:`TraceWriter` to any :class:`~repro.sim.tracing.Tracer`
to get a replayable, grep-able record of a run — the simulator's
equivalent of the tcpdump traces the paper's authors worked from.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.sim.tracing import TraceRecord, Tracer


def encode_record(record: TraceRecord) -> str:
    """The canonical one-line JSON encoding of a trace record.

    Shared by :class:`TraceWriter` and the :mod:`repro.obs` exporters so
    a streamed digest of a run's event stream matches a digest computed
    over the written file line by line.
    """
    return json.dumps(
        {
            "t_ns": record.time_ns,
            "category": record.category,
            "event": record.event,
            **record.fields,
        }
    )


class TraceWriter:
    """Streams every matching trace record to a ``.jsonl`` file.

    The file is opened and the writer subscribed on construction, and
    :meth:`close` ends both.  Use it as a context manager so the file is
    flushed and closed::

        with TraceWriter(net.tracer, "run.jsonl", prefix="mac.") as writer:
            net.run(10.0)
        print(writer.records_written)

    or call :meth:`close` yourself, as the flight recorder does at
    finalize.
    """

    def __init__(self, tracer: Tracer, path: str | Path, prefix: str = ""):
        self._tracer = tracer
        #: Where the trace lands.
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w")
        self.records_written = 0
        tracer.subscribe(self._on_record, prefix=prefix)

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _on_record(self, record: TraceRecord) -> None:
        self._handle.write(encode_record(record))
        self._handle.write("\n")
        self.records_written += 1

    def close(self) -> None:
        """Flush, close and unsubscribe.  Idempotent."""
        if self._handle is not None:
            self._tracer.unsubscribe(self._on_record)
            self._handle.close()
            self._handle = None


def read_trace(path: str | Path) -> list[dict]:
    """Load a ``.jsonl`` trace back into dictionaries."""
    records = []
    with Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
