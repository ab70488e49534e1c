"""``repro-ugf doctor``: diagnose and repair a run directory.

The trial store is append-only and crash-safe *by reader tolerance* —
a torn tail is skipped, not fatal. ``doctor`` makes that tolerance
auditable and reversible. It reads the store through the same line
reader as every loader (:func:`~repro.campaign.store.scan_records`):

- **tails**: a torn fragment (``kill -9`` mid-append) with its byte
  offset, or a complete final record missing its newline;
- **skipped lines**: corrupt or foreign lines (warnings: the data is
  already lost) and pre-wire ``legacy-record`` lines (errors until
  ``--repair`` migrates them);
- **content addresses**: every record's ``key`` is recomputed from its
  stored spec fingerprint; a mismatch means an edit in place;
- **wire payloads**: every outcome wire must decode;
- **layout**: each ``trials-NN.jsonl`` shard of the retired sharded
  layout is a ``legacy-layout`` error — no reader serves it;
- **cross-checks**: the quarantine ledger and telemetry stream beside
  the store are validated, and quarantined trials whose latest record
  is good are flagged as recovered (information, not error).

Findings carry a severity: ``error`` (doctor exits non-zero),
``warn`` (data already lost or ignorable), ``info``. Without
``--repair`` doctor only reads. ``--repair`` heals the tail and
appends the shards' decodable records to ``trials.jsonl`` (removing
the shards and their index), then — if anything else is left —
compacts (dropping duplicates, skipped lines and every key whose
latest record is mis-addressed or undecodable) and appends each legacy
record's wire rewrite. Compaction renames the store file, so repair
needs exclusive ownership of the directory.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass, field
from typing import Any

from repro.campaign.keys import fingerprint_key
from repro.campaign.store import (
    INDEX_FILENAME,
    STORE_FILENAME,
    RecordDefect,
    TrialStore,
    legacy_shards,
    scan_records,
)
from repro.chaos.supervisor import read_quarantine
from repro.obs.telemetry import read_telemetry, telemetry_path
from repro.sim.outcome import WIRE_VERSION, Outcome

__all__ = ["DoctorFinding", "DoctorReport", "diagnose"]

#: Severity of each :class:`~repro.campaign.store.RecordDefect` kind.
_DEFECT_SEVERITY = {
    "corrupt-line": "warn",
    "foreign-record": "warn",
    "legacy-record": "error",
    "torn-tail": "error",
}


@dataclass(frozen=True, slots=True)
class DoctorFinding:
    """One observation about a run directory."""

    severity: str  # "error" | "warn" | "info"
    kind: str
    detail: str
    #: 1-based store line (None for findings outside the store files).
    line: int | None = None
    #: Store file the finding is about (its basename): ``trials.jsonl``
    #: or a legacy shard.
    file: str | None = None

    def __str__(self) -> str:
        where = ""
        if self.file is not None and self.line is not None:
            where = f"{self.file} line {self.line}: "
        elif self.file is not None:
            where = f"{self.file}: "
        elif self.line is not None:
            where = f"line {self.line}: "
        return f"[{self.severity}] {where}{self.kind} — {self.detail}"


@dataclass
class DoctorReport:
    """Everything one ``doctor`` pass learned (and did)."""

    run_dir: str
    store_path: str
    #: Complete, well-formed records (by content address).
    records: int = 0
    findings: list[DoctorFinding] = field(default_factory=list)
    #: Repair actions taken (empty without --repair or nothing to do).
    repairs: list[str] = field(default_factory=list)
    quarantine_records: int = 0
    telemetry_records: int = 0
    #: Executed trials by producing backend, from the telemetry stream.
    #: Legacy records without a backend id count as "unrecorded".
    backend_counts: dict[str, int] = field(default_factory=dict)
    #: Keys whose latest record is well-formed — what a loader serves.
    record_keys: set[str] = field(default_factory=set, init=False)

    @property
    def errors(self) -> list[DoctorFinding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        lines = [
            f"doctor: {self.store_path} — {self.records} record(s), "
            f"{len(self.errors)} error(s), "
            f"{sum(f.severity == 'warn' for f in self.findings)} warning(s)"
        ]
        if self.quarantine_records:
            lines.append(f"quarantine: {self.quarantine_records} record(s)")
        if self.telemetry_records:
            lines.append(f"telemetry: {self.telemetry_records} record(s)")
        if self.backend_counts:
            lines.append(
                "backends: "
                + ", ".join(
                    f"{self.backend_counts[k]} {k}"
                    for k in sorted(self.backend_counts)
                )
            )
        for action in self.repairs:
            lines.append(f"repaired: {action}")
        verdict = "clean" if self.ok else "NEEDS ATTENTION"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


def _record_problem(
    key: str, fingerprint: dict[str, Any], wire: list[Any]
) -> "tuple[str, str] | None":
    """``(kind, detail)`` of what is wrong with a decoded record, if any."""
    expected = fingerprint_key(fingerprint)
    if expected != key:
        return "bad-address", (
            f"stored key {key[:12]}… does not match its spec fingerprint "
            f"({expected[:12]}…): record edited or corrupted in place"
        )
    try:
        Outcome.from_wire(wire)
    except (KeyError, TypeError, ValueError) as exc:
        return "bad-wire", f"outcome payload does not decode ({exc})"
    return None


def _scan(run_dir: pathlib.Path, report: DoctorReport):
    """Scan the store file into *report* and flag legacy shards.

    Returns ``(latest, legacy, tail)``: whether each key's latest
    record is well-formed, each key's latest legacy record, and the
    defective tail as ``(byte offset, torn)`` or None.
    """
    latest: dict[str, bool] = {}
    legacy: dict[str, tuple[str, dict[str, Any], dict[str, Any]]] = {}
    tail: tuple[int, bool] | None = None
    decoded = 0
    path = run_dir / STORE_FILENAME
    data = path.read_bytes() if path.exists() else b""
    line_no = 0
    for line_no, offset, _raw, item in scan_records(data):
        if isinstance(item, RecordDefect):
            detail = str(item)
            if item.kind == "torn-tail":
                detail += "; repair truncates them"
                tail = (offset, True)
            elif item.legacy is not None:
                legacy[item.legacy[0]] = item.legacy
            severity = _DEFECT_SEVERITY[item.kind]
            report.findings.append(
                DoctorFinding(severity, item.kind, detail, line_no, path.name)
            )
            continue
        decoded += 1
        problem = _record_problem(*item)
        latest[item[0]] = problem is None
        if problem is None:
            report.records += 1
        else:
            report.findings.append(
                DoctorFinding("error", *problem, line_no, path.name)
            )
    if data and not data.endswith(b"\n") and tail is None:
        tail = (len(data), False)
        report.findings.append(
            DoctorFinding(
                "error",
                "unterminated-tail",
                "final record is complete but missing its newline; "
                "repair terminates it",
                line_no,
                path.name,
            )
        )
    for shard in legacy_shards(run_dir):
        report.findings.append(
            DoctorFinding(
                "error",
                "legacy-layout",
                "shard file of the retired sharded layout; no reader serves "
                f"it — repair merges its records into {STORE_FILENAME}",
                file=shard.name,
            )
        )
    report.record_keys = {key for key, good in latest.items() if good}
    # Duplicates (last-write-wins rewrites) are normal for an
    # append-only store; surface the compaction opportunity as info.
    dupes = decoded - len(latest)
    if dupes > 0:
        report.findings.append(
            DoctorFinding(
                severity="info",
                kind="duplicate-keys",
                detail=(
                    f"{dupes} record(s) are superseded rewrites "
                    "(harmless; last write wins)"
                ),
            )
        )
    return latest, legacy, tail


def _merge_shards(run_dir: pathlib.Path, shards: list[pathlib.Path]) -> str:
    """Durably append the legacy shards' decodable records to the store
    file, then remove the shards and their index."""
    lines = [
        raw.strip()
        for shard in shards
        for _line_no, _offset, raw, item in scan_records(shard.read_bytes())
        if not isinstance(item, RecordDefect)
    ]
    if lines:
        with open(run_dir / STORE_FILENAME, "ab") as fh:
            fh.write(b"\n".join(lines) + b"\n")
            fh.flush()
            os.fsync(fh.fileno())
    for shard in shards:
        shard.unlink()
    (run_dir / INDEX_FILENAME).unlink(missing_ok=True)
    return (
        f"merged {len(lines)} record(s) of {len(shards)} legacy shard "
        f"file(s) into {STORE_FILENAME}"
    )


#: The pre-wire outcome dict's fields that the wire lays out in the
#: same order, between its version tag and ``crash_steps``.
_LEGACY_LEAD = (
    "n", "f", "seed", "protocol_name", "adversary_name", "completed", "rumor_gathering_ok",
    "t_end", "max_local_step_time", "max_delivery_time", "sent", "received", "bytes_sent",
    "crashed",
)


def _legacy_outcome(data: dict[str, Any]) -> Outcome:
    """The :class:`Outcome` a pre-wire record's ``outcome`` field dict
    describes, rebuilt through :meth:`Outcome.from_wire`. Raises
    ``KeyError`` / ``TypeError`` / ``ValueError`` on a malformed dict."""
    return Outcome.from_wire([
        WIRE_VERSION,
        *(data[name] for name in _LEGACY_LEAD),
        [x for pid, step in data["crash_steps"] for x in (pid, step)],
        data["sleep_counts"],
        data["wake_counts"],
        data.get("steps_simulated", 0),
        data.get("strategy_label"),
        data.get("sanitizer"),
        data.get("topology"),
    ])


def _repair(run_dir: pathlib.Path, report: DoctorReport, scan) -> list[str]:
    """Heal the tail, merge legacy shards, then compact and migrate;
    returns the actions."""
    latest, legacy, tail = scan
    path = run_dir / STORE_FILENAME
    actions: list[str] = []
    if tail is not None:
        offset, torn = tail
        with open(path, "ab") as fh:
            if torn:
                fh.truncate(offset)
                action = f"truncated torn tail at byte offset {offset}"
            else:
                fh.write(b"\n")
                action = "terminated the final record with a newline"
        actions.append(f"{path.name}: {action}")
    if all(f.kind in ("torn-tail", "unterminated-tail") for f in report.findings):
        return actions  # the heal cleared everything
    shards = legacy_shards(run_dir)
    if shards:
        actions.append(_merge_shards(run_dir, shards))
        latest, legacy, _tail = _scan(run_dir, DoctorReport(str(run_dir), str(path)))
    migrated = []
    for key, fingerprint, outcome in legacy.values():
        if latest.get(key) or fingerprint_key(fingerprint) != key:
            continue
        try:
            migrated.append((key, fingerprint, _legacy_outcome(outcome)))
        except (KeyError, TypeError, ValueError):
            continue
    with TrialStore(run_dir) as store:
        dropped = {key for key, good in latest.items() if not good}
        actions.append(store.compact(drop_keys=dropped).summary())
        if migrated:
            store.put_many(migrated)
            actions.append(
                f"migrated {len(migrated)} legacy record(s) to the wire format"
            )
    return actions


def _cross_check(run_dir: pathlib.Path, report: DoctorReport) -> None:
    """Validate the ledgers beside the store against it."""
    quarantined, q_skipped = read_quarantine(run_dir)
    report.quarantine_records = len(quarantined)
    if q_skipped:
        report.findings.append(
            DoctorFinding(
                severity="warn",
                kind="quarantine-corrupt",
                detail=f"{q_skipped} unreadable quarantine line(s)",
            )
        )
    recovered = [q for q in quarantined if q.key in report.record_keys]
    if recovered:
        report.findings.append(
            DoctorFinding(
                severity="info",
                kind="quarantine-recovered",
                detail=(
                    f"{len(recovered)} quarantined trial(s) have good "
                    "store records — a later session recovered them"
                ),
            )
        )
    t_path = telemetry_path(run_dir)
    if t_path.exists():
        records, t_skipped = read_telemetry(t_path)
        report.telemetry_records = len(records)
        for rec in records:
            if rec.kind == "trial" and rec.data.get("status") == "executed":
                backend = str(rec.data.get("backend", "unrecorded"))
                report.backend_counts[backend] = (
                    report.backend_counts.get(backend, 0) + 1
                )
        if t_skipped:
            report.findings.append(
                DoctorFinding(
                    severity="warn",
                    kind="telemetry-corrupt",
                    detail=f"{t_skipped} unreadable telemetry line(s)",
                )
            )


def diagnose(run_dir: "str | os.PathLike", *, repair: bool = False) -> DoctorReport:
    """Scan (and with *repair*, heal) a run directory.

    The store is ``trials.jsonl``, read as every loader reads it; each
    ``trials-NN.jsonl`` shard of the retired sharded layout is a
    ``legacy-layout`` error until ``--repair`` merges it in.

    Without *repair* nothing under *run_dir* is written. After a repair
    the store is rescanned so the returned report — and the CLI's exit
    code — describe the *healed* state.
    """
    run_dir = pathlib.Path(run_dir)
    store_path = str(run_dir / STORE_FILENAME)
    report = DoctorReport(run_dir=str(run_dir), store_path=store_path)
    if not (run_dir / STORE_FILENAME).exists() and not legacy_shards(run_dir):
        report.findings.append(
            DoctorFinding(
                severity="error",
                kind="no-store",
                detail=f"no {STORE_FILENAME} under {run_dir}",
            )
        )
        return report

    scan = _scan(run_dir, report)
    actions = _repair(run_dir, report, scan) if repair else []
    if actions:
        # Rescan: the report (and exit code) must describe the healed
        # store.
        report = DoctorReport(run_dir=str(run_dir), store_path=store_path)
        _scan(run_dir, report)
        report.repairs.extend(actions)
    _cross_check(run_dir, report)
    return report
