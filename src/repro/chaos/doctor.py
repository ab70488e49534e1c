"""``repro-ugf doctor``: diagnose and repair a run directory.

The trial store is append-only and crash-safe *by reader tolerance* —
a torn tail is skipped, not fatal. ``doctor`` makes that tolerance
auditable and reversible. It reads the store through the same line
reader as every loader (:func:`~repro.campaign.store.scan_records`):

- **tails**: a torn fragment (``kill -9`` mid-append) with its byte
  offset, or a complete final record missing its newline;
- **skipped lines**: corrupt or foreign lines — a pre-wire
  ``{"key","spec","outcome"}`` record is one — are warnings: every
  reader skips them, and each trial they held is recomputed on its
  next miss;
- **content addresses**: every record's ``key`` is recomputed from its
  stored spec fingerprint; a mismatch means an edit in place;
- **wire payloads**: every outcome wire must decode;
- **cross-checks**: the quarantine ledger and telemetry stream beside
  the store are validated, and quarantined trials whose latest record
  is good are flagged as recovered (information, not error);
- **shard files**: ``trials-NN.jsonl`` files of the retired sharded
  layout are named in one ``info`` finding — no reader reads them, so
  an old cache reads as empty.

Findings carry a severity: ``error`` (doctor exits non-zero),
``warn`` (data already lost or ignorable), ``info``. Without
``--repair`` doctor only reads. ``--repair`` heals the tail, then — if
anything else is left — compacts, dropping duplicates, skipped lines
and every key whose latest record is mis-addressed or undecodable.
Compaction renames the store file, so repair needs exclusive ownership
of the directory.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass, field
from typing import Any

from repro.campaign.keys import fingerprint_key
from repro.campaign.store import STORE_FILENAME, RecordDefect, TrialStore, scan_records
from repro.chaos.supervisor import read_quarantine
from repro.obs.telemetry import read_telemetry, telemetry_path
from repro.sim.outcome import Outcome

__all__ = ["DoctorFinding", "DoctorReport", "diagnose"]

#: Severity of each :class:`~repro.campaign.store.RecordDefect` kind.
_DEFECT_SEVERITY = {
    "corrupt-line": "warn",
    "foreign-record": "warn",
    "torn-tail": "error",
}


@dataclass(frozen=True, slots=True)
class DoctorFinding:
    """One observation about a run directory."""

    severity: str  # "error" | "warn" | "info"
    kind: str
    detail: str
    #: 1-based line of ``trials.jsonl`` (None for findings outside it).
    line: int | None = None

    def __str__(self) -> str:
        where = "" if self.line is None else f"{STORE_FILENAME} line {self.line}: "
        return f"[{self.severity}] {where}{self.kind} — {self.detail}"


@dataclass
class DoctorReport:
    """Everything one ``doctor`` pass learned (and did)."""

    run_dir: str
    store_path: str
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
    def records(self) -> int:
        """Keys a loader serves (superseded rewrites count once)."""
        return len(self.record_keys)

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
    """Scan the store file into *report*.

    Returns ``(latest, tail)``: whether each key's latest record is
    well-formed, and the defective tail as ``(byte offset, torn)`` or
    None.
    """
    latest: dict[str, bool] = {}
    tail: tuple[int, bool] | None = None
    decoded = 0
    data = (run_dir / STORE_FILENAME).read_bytes()
    line_no = 0
    for line_no, offset, _raw, item in scan_records(data):
        if isinstance(item, RecordDefect):
            detail = str(item)
            if item.kind == "torn-tail":
                detail += "; repair truncates them"
                tail = (offset, True)
            severity = _DEFECT_SEVERITY[item.kind]
            report.findings.append(DoctorFinding(severity, item.kind, detail, line_no))
            continue
        decoded += 1
        problem = _record_problem(*item)
        latest[item[0]] = problem is None
        if problem is not None:
            report.findings.append(DoctorFinding("error", *problem, line_no))
    if data and not data.endswith(b"\n") and tail is None:
        tail = (len(data), False)
        report.findings.append(
            DoctorFinding(
                "error",
                "unterminated-tail",
                "final record is complete but missing its newline; "
                "repair terminates it",
                line_no,
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
    return latest, tail


def _repair(run_dir: pathlib.Path, report: DoctorReport, scan) -> list[str]:
    """Heal the tail, then compact; returns the actions."""
    latest, tail = scan
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
    with TrialStore(run_dir) as store:
        dropped = {key for key, good in latest.items() if not good}
        actions.append(store.compact(drop_keys=dropped).summary())
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

    The store is ``trials.jsonl``, read as every loader reads it. Without
    *repair* nothing under *run_dir* is written. After a repair the store
    is rescanned so the returned report — and the CLI's exit code —
    describe the *healed* state.
    """
    run_dir = pathlib.Path(run_dir)
    store_path = str(run_dir / STORE_FILENAME)
    report = DoctorReport(run_dir=str(run_dir), store_path=store_path)
    if not (run_dir / STORE_FILENAME).exists():
        report.findings.append(
            DoctorFinding(
                severity="error",
                kind="no-store",
                detail=f"no {STORE_FILENAME} under {run_dir}",
            )
        )
    else:
        scan = _scan(run_dir, report)
        actions = _repair(run_dir, report, scan) if repair else []
        if actions:
            # Rescan: the report (and exit code) must describe the healed
            # store.
            report = DoctorReport(run_dir=str(run_dir), store_path=store_path)
            _scan(run_dir, report)
            report.repairs.extend(actions)
        _cross_check(run_dir, report)
    shards = sorted(path.name for path in run_dir.glob("trials-[0-9]*.jsonl"))
    if shards:
        report.findings.append(
            DoctorFinding(
                severity="info",
                kind="shard-files",
                detail=(
                    f"{', '.join(shards)}: the retired sharded layout; no "
                    "reader reads them, so their trials are recomputed"
                ),
            )
        )
    return report
