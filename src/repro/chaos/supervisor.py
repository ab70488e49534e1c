"""Supervised campaign execution: retry, degrade, quarantine — never abort.

The :class:`Supervisor` wraps a :class:`~repro.campaign.campaign.Campaign`
and turns per-trial failures from "reported" into "managed":

1. every failed trial is **classified** by its captured traceback —
   *transient* (timeouts, broken pipes, injected transients, anything
   the :class:`RetryPolicy` lists) or *poison* (deterministic: the same
   spec will fail the same way every time);
2. transient failures are **retried** with exponential backoff and
   deterministic jitter: the first attempt runs as configured
   (chunked-parallel), every retry runs inline in the supervising
   process, where pool infrastructure cannot be the cause;
3. poison failures — and transients that exhaust their retries — land
   in the **quarantine ledger** (``quarantine.jsonl`` beside the trial
   store) with their full tracebacks, and the campaign *completes*
   with a ``degraded`` verdict instead of raising.

The supervised result therefore always covers every requested spec:
an outcome, or a quarantine entry that says exactly why not. All
retry/degrade/quarantine events flow into the campaign's
:class:`~repro.obs.registry.MetricsRegistry` and ``telemetry.jsonl``
(kinds ``retry`` and ``quarantine``), so ``repro-ugf stats`` shows a
run's robustness history next to its performance history.

Determinism note: retried trials produce byte-identical outcomes to
first-try successes (the simulation is a pure function of the spec),
which is why the differential chaos battery can demand byte-identical
stores after recovery. The supervisor itself never consults the
simulation RNG; its only randomness is the backoff jitter, hashed from
the retry coordinates.
"""

from __future__ import annotations

import os
import pathlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.campaign.campaign import Campaign, TrialResult
from repro.campaign.keys import spec_fingerprint, trial_key
from repro.campaign.retry import (
    DEFAULT_TRANSIENT_ERRORS,
    RetryPolicy,
    exception_name,
)
from repro.experiments.config import TrialSpec
from repro.obs.telemetry import JsonlWriter, read_jsonl

__all__ = [
    "DEFAULT_TRANSIENT_ERRORS",
    "QUARANTINE_FILENAME",
    "RetryPolicy",
    "exception_name",
    "QuarantineLedger",
    "QuarantineRecord",
    "SupervisedRun",
    "Supervisor",
    "quarantine_path",
    "read_quarantine",
]

QUARANTINE_FILENAME = "quarantine.jsonl"

#: Bump on breaking changes to the quarantine record shape.
QUARANTINE_VERSION = 1

#: Longest error excerpt carried into telemetry records; the ledger
#: keeps the full traceback.
_TELEMETRY_ERROR_CHARS = 240


def quarantine_path(run_dir: "str | os.PathLike") -> pathlib.Path:
    """The quarantine ledger of a run/cache directory."""
    return pathlib.Path(run_dir) / QUARANTINE_FILENAME


@dataclass(frozen=True, slots=True)
class QuarantineRecord:
    """One decoded ledger line."""

    key: str
    spec: dict[str, Any]
    classification: str
    attempts: int
    error: str
    ladder: tuple[str, ...]
    plan: str | None = None


class QuarantineLedger(JsonlWriter):
    """Append-only JSONL ledger of trials the supervisor gave up on.

    The shared diagnostic-log writer (flush per line, no fsync): the
    ledger is diagnosis, not execution state — the authoritative "this
    trial has no outcome" signal is its absence from the trial store,
    which is what resume keys off.
    """

    def record(self, entry: QuarantineRecord) -> None:
        line = {
            "v": QUARANTINE_VERSION,
            "key": entry.key,
            "spec": entry.spec,
            "classification": entry.classification,
            "attempts": entry.attempts,
            "ladder": list(entry.ladder),
            "error": entry.error,
            "ts": round(time.time(), 3),
        }
        if entry.plan is not None:
            line["plan"] = entry.plan
        self.write(line)


def _quarantine_record(raw: dict[str, Any]) -> QuarantineRecord:
    return QuarantineRecord(
        key=str(raw["key"]),
        spec=dict(raw["spec"]),
        classification=str(raw["classification"]),
        attempts=int(raw["attempts"]),
        error=str(raw.get("error", "")),
        ladder=tuple(raw.get("ladder", ())),
        plan=raw.get("plan"),
    )


def read_quarantine(
    path: "str | os.PathLike",
) -> tuple[list[QuarantineRecord], int]:
    """Load a quarantine ledger; returns ``(records, skipped_lines)``.

    Accepts the run directory or the ledger file itself. Unreadable
    lines are counted, not fatal — the ledger is written next to a
    store that may itself have crashed mid-line.
    """
    target = pathlib.Path(path)
    if target.is_dir():
        target = quarantine_path(target)
    return read_jsonl(target, _quarantine_record)


@dataclass(frozen=True, slots=True)
class SupervisedRun:
    """What supervised execution produced for one batch of specs."""

    results: tuple[TrialResult, ...]
    quarantined: tuple[QuarantineRecord, ...]
    retries: int
    verdict: str  # "clean" | "degraded"

    @property
    def degraded(self) -> bool:
        return self.verdict != "clean"

    def outcomes(self):
        """The successful outcomes, in submission order."""
        return [r.outcome for r in self.results if r.outcome is not None]

    def summary(self) -> str:
        done = sum(r.ok for r in self.results)
        text = (
            f"supervised: {done}/{len(self.results)} trials satisfied, "
            f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}, "
            f"{len(self.quarantined)} quarantined — verdict: {self.verdict}"
        )
        return text


class Supervisor:
    """Drives a campaign to completion under a :class:`RetryPolicy`.

    Parameters
    ----------
    campaign:
        The campaign to supervise. Each retry wave temporarily makes
        the campaign pool inline and restores it afterwards.
    policy:
        Retry/backoff/classification policy (default: 3 retries,
        50 ms base backoff).
    ledger:
        Quarantine ledger; defaults to ``quarantine.jsonl`` beside the
        campaign's trial store. A campaign without a store gets no
        ledger (``self.ledger`` is None): its quarantine records live
        only on the returned :class:`SupervisedRun` — pass one
        explicitly to persist them.
    sleep:
        Injection point for tests; defaults to :func:`time.sleep`.
    """

    def __init__(
        self,
        campaign: Campaign,
        *,
        policy: RetryPolicy | None = None,
        ledger: QuarantineLedger | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.campaign = campaign
        self.policy = policy if policy is not None else RetryPolicy()
        if ledger is None and campaign.store is not None:
            ledger = QuarantineLedger(quarantine_path(campaign.store.cache_dir))
        self.ledger = ledger
        self._sleep = sleep
        self._quarantined: list[QuarantineRecord] = []

    @contextmanager
    def _inline_attempt(self, attempt: int):
        """Run one retry wave inline under *attempt*'s faults, then
        restore the pool: in this process, pool infrastructure is out
        of the fault surface (worker-only faults never fire here)."""
        pool = self.campaign.pool
        workers, plan = pool.workers, pool.fault_plan
        pool.workers = 1
        if plan is not None:
            pool.fault_plan = plan.with_attempt(attempt)
        try:
            yield
        finally:
            pool.workers, pool.fault_plan = workers, plan

    # -- event plumbing ----------------------------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        if self.campaign.metrics is not None:
            self.campaign.metrics.count(name, value)

    def _emit(self, kind: str, **fields: Any) -> None:
        if self.campaign.telemetry is not None:
            self.campaign.telemetry.emit(kind, **fields)

    def _quarantine(
        self, spec: TrialSpec, error: str, classification: str, attempts: int,
        ladder: Sequence[str],
    ) -> None:
        plan = self.campaign.fault_plan
        record = QuarantineRecord(
            key=trial_key(spec),
            spec=spec_fingerprint(spec),
            classification=classification,
            attempts=attempts,
            error=error,
            ladder=tuple(ladder),
            plan=plan.name if plan is not None else None,
        )
        if self.ledger is not None:
            self.ledger.record(record)
        self._quarantined.append(record)
        self._count("supervisor.quarantined")
        self._emit(
            "quarantine",
            key=record.key,
            protocol=spec.protocol,
            adversary=spec.adversary,
            n=spec.n,
            f=spec.f,
            seed=spec.seed,
            classification=classification,
            attempts=attempts,
            error=(error or "")[:_TELEMETRY_ERROR_CHARS],
        )

    # -- execution ---------------------------------------------------------------

    def run_trials(self, specs: Iterable[TrialSpec]) -> SupervisedRun:
        """Satisfy every spec or quarantine it; never raises per-trial."""
        self._quarantined = []
        specs = list(specs)
        results = list(self.campaign.run_trials(specs))
        pending = [i for i, r in enumerate(results) if not r.ok]
        rungs_walked: list[str] = ["chunked-parallel"]

        run_retries = 0
        attempt = 0
        while pending and attempt < self.policy.max_retries:
            attempt += 1
            retriable: list[int] = []
            for i in pending:
                failed = results[i]
                if self.policy.classify(failed.error) == "poison":
                    self._quarantine(
                        failed.spec,
                        failed.error or "",
                        "poison",
                        attempts=attempt,
                        ladder=rungs_walked,
                    )
                else:
                    retriable.append(i)
            if not retriable:
                pending = []
                break

            delay = self.policy.wait(attempt, f"wave{attempt}", sleep=self._sleep)
            rungs_walked.append("inline")
            run_retries += len(retriable)
            self._count("supervisor.retries", len(retriable))
            self._count("supervisor.rung.inline", len(retriable))
            self._emit(
                "retry",
                attempt=attempt,
                rung="inline",
                trials=len(retriable),
                backoff=round(delay, 6),
            )
            with self._inline_attempt(attempt):
                retried = self.campaign.run_trials(
                    [results[i].spec for i in retriable]
                )
            for i, fresh in zip(retriable, retried):
                results[i] = fresh
            pending = [i for i in retriable if not results[i].ok]

        # Anything still failing has exhausted its retries. (With
        # max_retries=0 this is also where poison lands unclassified.)
        for i in pending:
            failed = results[i]
            classification = self.policy.classify(failed.error)
            if classification == "transient":
                classification = "transient-exhausted"
            self._quarantine(
                failed.spec,
                failed.error or "",
                classification,
                attempts=attempt,
                ladder=rungs_walked,
            )

        verdict = "degraded" if self._quarantined else "clean"
        self._count(f"supervisor.verdict.{verdict}")
        self._emit(
            "verdict",
            verdict=verdict,
            trials=len(specs),
            retries=run_retries,
            quarantined=len(self._quarantined),
        )
        return SupervisedRun(
            results=tuple(results),
            quarantined=tuple(self._quarantined),
            retries=run_retries,
            verdict=verdict,
        )

    def close(self) -> None:
        if self.ledger is not None:
            self.ledger.close()

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
