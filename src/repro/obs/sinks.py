"""The JSONL record-file format, plus pluggable trace sinks.

Every JSONL file the repo writes is a *record file*: a header naming
its ``format`` and ``version``, then one JSON object per line.
:class:`JsonlSink` writes them all; :func:`read_jsonl` and
:func:`follow_jsonl` read them all.

Trace sinks receive every completed tracer record (span / instant /
counter / run_meta dicts — see :mod:`repro.obs.tracer`) via
:meth:`Sink.emit` and are :meth:`Sink.close`-d with the run metadata
once the engine finishes:

* :class:`InMemorySink` — zero-dependency default; the tracer itself
  also always keeps an in-memory copy, so this exists mainly as the
  reference implementation and for fan-out tests.
* :class:`JsonlSink` — streams one JSON object per line; the native
  round-trippable on-disk format (``repro report`` reads it back).
* :class:`ChromeTraceSink` — buffers records and writes a Chrome
  ``trace_event`` JSON on close, loadable in ``chrome://tracing`` or
  Perfetto (see :mod:`repro.obs.chrome`).

``export_trace`` writes a finished tracer's records post-hoc in either
format — the path the CLI's ``--trace-out``/``--trace-format`` takes.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import RecordFileError
from repro.obs.chrome import chrome_trace_document

__all__ = [
    "Sink",
    "InMemorySink",
    "JsonlSink",
    "ChromeTraceSink",
    "export_trace",
    "read_jsonl",
    "follow_jsonl",
    "expect_format",
    "encode_record",
    "TRACE_FORMATS",
]

TRACE_FORMATS = ("jsonl", "chrome")

TRACE_FORMAT = "repro-trace"
TELEMETRY_FORMAT = "repro-telemetry"
MUTATIONS_FORMAT = "repro-mutations"

#: the ``repro`` commands that read each record-file format
_READERS = {
    TRACE_FORMAT: "'repro report', 'repro analyze' or 'repro dashboard'",
    TELEMETRY_FORMAT: "'repro report', 'repro top' or 'repro slo'",
    MUTATIONS_FORMAT: "'repro analyze'",
}


def encode_record(record: Dict[str, Any]) -> str:
    """One record as its record-file line (without the newline)."""
    return json.dumps(record, sort_keys=True)


def _decode_line(path: str, lineno: int, line: str) -> Optional[Dict[str, Any]]:
    """Parse one line; ``None`` for a blank or torn final line."""
    if not line.strip():
        return None
    try:
        record = json.loads(line)
    except ValueError:
        if not line.endswith("\n"):
            return None  # writer killed mid-line: drop the torn tail
        raise RecordFileError(f"{path}:{lineno}: malformed JSON record") from None
    if not isinstance(record, dict):
        raise RecordFileError(f"{path}:{lineno}: record is not a JSON object")
    return record


def read_jsonl(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a record file -> ``(header, records)``.

    ``header`` is the first record if it names a ``format``, else ``{}``.
    Blank lines are skipped and an unparsable final line with no newline
    (a writer killed mid-line) is dropped; any other malformed line
    raises :class:`~repro.errors.RecordFileError` (a ``ValueError``)
    naming ``path:line``.
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            record = _decode_line(path, lineno, line)
            if record is not None:
                records.append(record)
    if records and "format" in records[0]:
        return records[0], records[1:]
    return {}, records


def follow_jsonl(
    path: str, poll_s: float = 0.5, stop: Optional[threading.Event] = None
) -> Iterator[Dict[str, Any]]:
    """Yield a growing record file's records (not its header) as lines land.

    Tails the file until ``stop`` is set or the reader is interrupted; a
    partial last line waits for the rest of its line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        buf, lineno = "", 0
        while stop is None or not stop.is_set():
            buf += fh.readline()
            if not buf.endswith("\n"):  # at the end of what is written
                time.sleep(poll_s)
                continue
            lineno += 1
            record, buf = _decode_line(path, lineno, buf), ""
            if record is not None and not (lineno == 1 and "format" in record):
                yield record


def expect_format(
    path: str, header: Dict[str, Any], formats: Sequence[str]
) -> str:
    """The header's format if it is one of ``formats``; else raise.

    The :class:`~repro.errors.RecordFileError` names the path, the
    file's format and the commands that read it.
    """
    fmt = header.get("format")
    if fmt in formats:
        return fmt
    found = f"a {fmt} file" if fmt else "no record-file header"
    hint = f" (read it with {_READERS[fmt]})" if fmt in _READERS else ""
    raise RecordFileError(
        f"{path}: {found}, expected {' or '.join(formats)}{hint}"
    )


class Sink:
    """Interface: receives records as they complete, then a final close."""

    def emit(self, record: Dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self, meta: Dict[str, Any]) -> None:  # noqa: B027 - optional hook
        pass


class InMemorySink(Sink):
    """Keep records in a list (the zero-dependency default)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self.meta: Optional[Dict[str, Any]] = None

    def emit(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def close(self, meta: Dict[str, Any]) -> None:
        self.meta = meta


class JsonlSink(Sink):
    """Create the record file ``path``: ``header``, then one record a line.

    The one writer of every record file. ``header`` defaults to the
    engine-trace header (the tracer's final ``run_meta`` record, carrying
    the RunStats dump, arrives through the normal stream, so the file is
    self-describing). Writes are serialized by a lock and dropped after
    :meth:`close`; ``flush=True`` flushes every line for live readers
    (``repro top --follow``).
    """

    def __init__(
        self,
        path: str,
        header: Optional[Dict[str, Any]] = None,
        flush: bool = False,
    ) -> None:
        self.path = str(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._flush = flush
        self._lock = threading.Lock()
        self.emit(header or {
            "type": "trace_header", "format": TRACE_FORMAT, "version": 1,
        })

    def _write(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            return
        self._fh.write(encode_record(record) + "\n")
        if self._flush:
            self._fh.flush()

    def emit(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._write(record)

    def close(
        self,
        meta: Optional[Dict[str, Any]] = None,
        last: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Close the file; ``last`` is written first, once, if given."""
        with self._lock:
            if last is not None:
                self._write(last)
            if self._fh is not None:
                self._fh.close()
                self._fh = None


class ChromeTraceSink(Sink):
    """Buffer records; write a Chrome ``trace_event`` JSON on close."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._records: List[Dict[str, Any]] = []

    def emit(self, record: Dict[str, Any]) -> None:
        self._records.append(record)

    def close(self, meta: Dict[str, Any]) -> None:
        doc = chrome_trace_document(self._records, meta)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def export_trace(tracer, path: str, format: str = "jsonl") -> str:
    """Write a finished tracer's records to ``path`` in ``format``.

    Returns the path written. The tracer must have been ``finish()``-ed
    (engines do this in ``run()``); records already carry the final
    ``run_meta`` line.
    """
    if format not in TRACE_FORMATS:
        raise ValueError(
            f"unknown trace format {format!r}; known: {', '.join(TRACE_FORMATS)}"
        )
    if format == "chrome":
        sink: Sink = ChromeTraceSink(path)
    else:
        sink = JsonlSink(path)
    for record in tracer.records:
        sink.emit(record)
    sink.close(tracer.meta)
    return str(path)
