"""Structured run telemetry: a ``telemetry.jsonl`` stream per run.

A campaign running with metrics enabled streams one JSON record per
line into ``<cache_dir>/telemetry.jsonl``, next to the trial store:

- ``{"v": 1, "kind": "trial", ...}`` — one per finished trial
  (executed, cached or failed), carrying the spec coordinates, how it
  was satisfied, and — for executed trials — wall-clock seconds plus
  headline outcome numbers;
- ``{"v": 1, "kind": "phase", ...}`` — one per ``run_trials`` batch:
  totals, per-kind counts, wall seconds;
- ``{"v": 1, "kind": "registry", "metrics": <wire>}`` — the session's
  merged :class:`~repro.obs.registry.MetricsRegistry` at campaign
  close, in the metrics wire encoding.

The file is append-only and sessions simply add more records, so a
run directory accumulates its history the same way ``trials.jsonl``
does. Corrupt or truncated lines are skipped (and counted), and so are
records without an integer ``"v"`` tag; unknown kinds or newer
versions are surfaced as records rather than errors — a newer writer
never breaks an older reader.

:class:`JsonlWriter` / :func:`read_jsonl` write and read both
diagnostic logs: this stream and the supervisor's ``quarantine.jsonl``.

Telemetry is observability output, never an input: nothing reads it
back into the execution path, so it cannot perturb outcomes.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = [
    "TELEMETRY_FILENAME",
    "TELEMETRY_VERSION",
    "JsonlWriter",
    "TelemetryRecord",
    "TelemetrySink",
    "read_jsonl",
    "read_telemetry",
    "telemetry_path",
]

TELEMETRY_FILENAME = "telemetry.jsonl"

#: Bump on breaking record-shape changes; readers keep accepting every
#: version they know and pass newer ones through untouched.
TELEMETRY_VERSION = 1


def telemetry_path(run_dir: "str | os.PathLike") -> pathlib.Path:
    """The telemetry stream of a run/cache directory.

    Accepts the directory or the ``telemetry.jsonl`` file itself, so
    ``repro-ugf stats`` works on either.
    """
    path = pathlib.Path(run_dir)
    if path.suffix == ".jsonl":
        return path
    return path / TELEMETRY_FILENAME


@dataclass(frozen=True, slots=True)
class TelemetryRecord:
    """One decoded telemetry line."""

    version: int
    kind: str
    data: dict[str, Any]


class JsonlWriter:
    """Append-only JSONL writer for a diagnostic log.

    The file is opened lazily on the first write (a session that writes
    nothing leaves no artifact) and every line is flushed when written —
    diagnosis trades the store's fsync durability for negligible
    overhead. An ``OSError`` drops the line: observability must never
    fail the run it observes.
    """

    def __init__(self, path: "str | os.PathLike") -> None:
        self.path = pathlib.Path(path)
        self._fh = None
        self.records_written = 0

    def write(self, record: dict[str, Any]) -> None:
        try:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("a", encoding="utf-8")
            self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
            self._fh.flush()
            self.records_written += 1
        except OSError:
            self.close()

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_jsonl(
    path: pathlib.Path, parse: Callable[[dict[str, Any]], Any]
) -> tuple[list[Any], int]:
    """``(records, skipped)`` of a diagnostic log: *parse* of every
    JSON-object line. Other lines (corrupt, crash-truncated, not UTF-8,
    nested too deep to parse) and objects *parse* rejects with
    ``KeyError`` / ``TypeError`` / ``ValueError`` count as skipped; a
    missing file is empty."""
    records: list[Any] = []
    skipped = 0
    if not path.exists():
        return records, skipped
    with path.open("rb") as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
                if not isinstance(raw, dict):
                    raise TypeError("not a JSON object")
                records.append(parse(raw))
            except (KeyError, TypeError, ValueError, RecursionError):
                skipped += 1
    return records, skipped


class TelemetrySink(JsonlWriter):
    """The ``telemetry.jsonl`` writer: versioned, kind-tagged records."""

    def emit(self, kind: str, **fields: Any) -> None:
        """Write one versioned record (dropped on I/O failure)."""
        record = {"v": TELEMETRY_VERSION, "kind": kind}
        record.update(fields)
        self.write(record)


def _telemetry_record(raw: dict[str, Any]) -> TelemetryRecord:
    version = raw.get("v")
    if not isinstance(version, int):
        raise ValueError("telemetry record without an integer version")
    kind = raw.get("kind")
    if not isinstance(kind, str):
        kind = "unknown"
    data = {k: v for k, v in raw.items() if k not in ("v", "kind")}
    return TelemetryRecord(version=version, kind=kind, data=data)


def read_telemetry(
    path: "str | os.PathLike",
) -> tuple[list[TelemetryRecord], int]:
    """Load every readable record of a telemetry stream.

    Returns ``(records, skipped)`` where *skipped* counts lines that
    could not be decoded (corrupt, truncated by a crash, not an object,
    or without an integer ``"v"``). Records missing a ``kind`` load
    with kind ``"unknown"`` rather than being dropped, so
    foreign-but-valid JSON stays inspectable.
    """
    return read_jsonl(telemetry_path(path), _telemetry_record)


def records_of_kind(
    records: Iterable[TelemetryRecord], kind: str
) -> list[TelemetryRecord]:
    """Convenience filter used by the stats aggregator."""
    return [r for r in records if r.kind == kind]
