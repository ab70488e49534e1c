"""Offline replay auditing of a campaign trial cache.

``repro-ugf check <cache-dir>`` makes the PR-1 campaign store auditable
after the fact. For every record of ``trials.jsonl`` — read by the
store's line reader, so exactly the lines the loader serves — the
auditor

1. rebuilds the :class:`TrialSpec` from the stored spec fingerprint
   (the fingerprint was designed to be sufficient for exactly this);
2. verifies the record's content address: ``key == trial_key(spec)``;
3. optionally **replays** the trial through the full online monitor
   set (``warn`` mode, so every violation is collected rather than the
   first one aborting) and compares the replayed outcome field-by-field
   against the cached one — a cached artifact is only trustworthy if
   the simulation both still reproduces it bit-identically and passes
   the execution-model sanitizer while doing so.

Statuses per record: ``ok``, ``violations`` (replay broke a model
invariant), ``mismatch`` (replay no longer reproduces the cached
outcome — simulation semantics drifted without a KEY_VERSION bump),
``bad-key`` (stored hash does not match the stored spec), ``error``
(replay raised), ``unreadable`` (a line every store reader skips, or
a fingerprint or wire that does not decode).

The auditor also feeds every readable cached outcome into the
Theorem 1 cell classifier (:mod:`repro.check.theorem`).
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass, fields, replace
from typing import Any, Callable

import numpy as np

from repro.campaign.keys import spec_from_fingerprint, trial_key
from repro.campaign.store import STORE_FILENAME, RecordDefect, scan_records
from repro.check.theorem import CellVerdict, audit_theorem1
from repro.errors import CampaignError
from repro.experiments.config import TrialSpec
from repro.sim.outcome import Outcome

__all__ = ["RecordAudit", "CacheAudit", "audit_cache"]


@dataclass(frozen=True, slots=True)
class RecordAudit:
    """Verdict for one ``trials.jsonl`` record."""

    line: int
    key: str
    status: str  # ok | violations | mismatch | bad-key | error | unreadable
    spec: "TrialSpec | None" = None
    detail: str = ""
    violations: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True, slots=True)
class CacheAudit:
    """Aggregate result of auditing one cache directory."""

    path: pathlib.Path
    records: tuple[RecordAudit, ...]
    theorem: tuple[CellVerdict, ...]
    replayed: bool

    @property
    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for record in self.records:
            out[record.status] = out.get(record.status, 0) + 1
        return out

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records) and all(
            v.ok for v in self.theorem
        )

    def summary(self) -> str:
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        theorem_bad = sum(not v.ok for v in self.theorem)
        return (
            f"audited {len(self.records)} record(s) in {self.path} "
            f"[{counts or 'empty'}]; theorem cells: {len(self.theorem)} "
            f"({theorem_bad} inconsistent)"
        )


def _disagreeing_fields(fresh: Outcome, cached: Outcome) -> list[str]:
    """The outcome fields *fresh* and *cached* disagree on, the sanitizer
    report aside (instrumentation, not result)."""
    pairs = ((f.name, getattr(fresh, f.name), getattr(cached, f.name)) for f in fields(Outcome))
    return [
        name
        for name, a, b in pairs
        if name != "sanitizer"
        and not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b)
    ]


def _replay(spec: TrialSpec, cached: Outcome) -> RecordAudit | None:
    """Re-execute *spec* under the sanitizer; None means all good."""
    from repro.experiments.runner import run_trial

    outcome = run_trial(replace(spec, sanitize="warn"))
    report = outcome.sanitizer or {}
    total = int(report.get("total_violations", 0))
    if total:
        first = report.get("violations") or [{}]
        return RecordAudit(
            line=0,
            key="",
            status="violations",
            spec=spec,
            detail=str(first[0].get("message", "")),
            violations=total,
        )
    bad = _disagreeing_fields(outcome, cached)
    if bad:
        return RecordAudit(
            line=0,
            key="",
            status="mismatch",
            spec=spec,
            detail=f"replay disagrees on field(s): {', '.join(bad)}",
        )
    return None


def audit_cache(
    cache_dir: "str | os.PathLike",
    *,
    replay: bool = True,
    max_records: "int | None" = None,
    alpha: int = 1,
    progress: "Callable[[RecordAudit], None] | None" = None,
) -> CacheAudit:
    """Audit every record in *cache_dir*'s trial store.

    What is audited is every line of ``trials.jsonl``, read as the
    loader reads it: a line no loader serves (a pre-wire record, say)
    audits as ``unreadable``.

    ``replay=False`` restricts the audit to structural checks (parse +
    content address), which is cheap enough for very large caches;
    ``max_records`` bounds the audit to the first K records.
    """
    cache_dir = pathlib.Path(cache_dir)
    records: list[RecordAudit] = []
    outcomes: list[Outcome] = []
    path = cache_dir / STORE_FILENAME
    data = path.read_bytes() if path.exists() else b""
    for line_no, _offset, _raw, item in scan_records(data):
        if max_records is not None and len(records) >= max_records:
            break
        records.append(_audit_record(line_no, item, replay, outcomes))
        if progress is not None:
            progress(records[-1])
    verdicts = audit_theorem1(outcomes, alpha=alpha) if outcomes else []
    return CacheAudit(
        path=cache_dir,
        records=tuple(records),
        theorem=tuple(verdicts),
        replayed=replay,
    )


def _audit_record(
    lineno: int, item: Any, replay: bool, outcomes: list[Outcome]
) -> RecordAudit:
    if isinstance(item, RecordDefect):
        return RecordAudit(
            line=lineno, key="", status="unreadable", detail=f"{item.kind}: {item}"
        )
    key, fingerprint, wire = item
    try:
        spec = spec_from_fingerprint(fingerprint)
    except CampaignError as exc:
        return RecordAudit(
            line=lineno, key=key, status="unreadable", detail=str(exc)
        )
    try:
        cached = Outcome.from_wire(wire)
        outcomes.append(cached)
    except (KeyError, TypeError, ValueError) as exc:
        return RecordAudit(
            line=lineno,
            key=key,
            status="unreadable",
            spec=spec,
            detail=f"outcome does not deserialise: {exc}",
        )
    if trial_key(spec) != key:
        return RecordAudit(
            line=lineno,
            key=key,
            status="bad-key",
            spec=spec,
            detail="stored key does not hash the stored spec fingerprint",
        )
    if replay:
        try:
            problem = _replay(spec, cached)
        except Exception as exc:  # a replay crash is itself a finding
            return RecordAudit(
                line=lineno,
                key=key,
                status="error",
                spec=spec,
                detail=f"{type(exc).__name__}: {exc}",
            )
        if problem is not None:
            return RecordAudit(
                line=lineno,
                key=key,
                status=problem.status,
                spec=spec,
                detail=problem.detail,
                violations=problem.violations,
            )
    return RecordAudit(line=lineno, key=key, status="ok", spec=spec)
