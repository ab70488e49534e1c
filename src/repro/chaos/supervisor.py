"""Supervised campaign execution: retry, degrade, quarantine — never abort.

The :class:`Supervisor` wraps a :class:`~repro.campaign.campaign.Campaign`
and turns per-trial failures from "reported" into "managed":

1. every failed trial is **classified** by its captured traceback —
   *transient* (timeouts, broken pipes, injected transients, anything
   the :class:`RetryPolicy` lists) or *poison* (deterministic: the same
   spec will fail the same way every time);
2. transient failures are **retried** with exponential backoff and
   deterministic jitter, stepping down a **degradation ladder**:
   chunked-parallel (as configured) → smaller chunks → inline in the
   supervising process, where pool infrastructure cannot be the cause;
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

import hashlib
import os
import pathlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.campaign.campaign import Campaign, TrialResult
from repro.campaign.keys import spec_fingerprint, trial_key
from repro.errors import ConfigurationError
from repro.experiments.config import TrialSpec
from repro.obs.telemetry import JsonlWriter, read_jsonl

__all__ = [
    "DEFAULT_TRANSIENT_ERRORS",
    "QUARANTINE_FILENAME",
    "RetryPolicy",
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

#: Exception names (the last frame of the captured traceback) treated
#: as transient by default: infrastructure weather, not trial identity.
DEFAULT_TRANSIENT_ERRORS = (
    "TrialTimeout",
    "TimeoutError",
    "InjectedTransientError",
    "InjectedFsyncError",
    "BrokenProcessPool",
    "BrokenPipeError",
    "ConnectionResetError",
    "ConnectionRefusedError",
    "EOFError",
    "MemoryError",
    # The campaign-service transport: a dead or busy daemon is weather,
    # not trial identity (the client already fell back locally).
    "ServiceError",
    "ServiceTimeout",
    "ServiceBusy",
    "ServiceProtocolError",
)

#: Longest error excerpt carried into telemetry records; the ledger
#: keeps the full traceback.
_TELEMETRY_ERROR_CHARS = 240

#: The ladder's rungs, by retry attempt. Past the end, the last rung
#: repeats until retries are exhausted.
_LADDER = ("smaller-chunks", "inline")


def exception_name(error: str | None) -> str:
    """The bare exception class name at the bottom of a traceback.

    Works on both full tracebacks and bare ``Name: message`` strings;
    dotted names (``repro.chaos.plan.InjectedTransientError``) reduce
    to their final component.
    """
    if not error:
        return ""
    for line in reversed(error.strip().splitlines()):
        line = line.strip()
        if not line:
            continue
        name = line.split(":", 1)[0].strip()
        if " " in name:  # e.g. "During handling of ..." separators
            continue
        return name.rsplit(".", 1)[-1]
    return ""


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``max_retries`` counts *re-executions per trial* after the first
    attempt. Backoff for retry ``k`` (1-based) is
    ``base_backoff * backoff_factor**(k-1)``, capped at ``max_backoff``
    and stretched by up to ``jitter`` (a fraction, hashed from the
    retry coordinates — two supervisors replaying the same campaign
    wait the same amount).
    """

    max_retries: int = 3
    base_backoff: float = 0.05
    backoff_factor: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 0.25
    transient_errors: tuple[str, ...] = DEFAULT_TRANSIENT_ERRORS

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_backoff < 0 or self.max_backoff < 0:
            raise ConfigurationError("backoff bounds must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be a fraction in [0, 1], got {self.jitter}"
            )

    def classify(self, error: str | None) -> str:
        """``"transient"`` (worth retrying) or ``"poison"`` (never)."""
        name = exception_name(error)
        return "transient" if name in self.transient_errors else "poison"

    def backoff_seconds(self, attempt: int, token: str) -> float:
        """Wait before retry *attempt* (1-based) of the wave *token*."""
        if attempt < 1 or self.base_backoff == 0:
            return 0.0
        base = min(
            self.max_backoff,
            self.base_backoff * self.backoff_factor ** (attempt - 1),
        )
        digest = hashlib.sha256(f"{token}:{attempt}".encode("utf-8")).digest()
        fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return base * (1.0 + self.jitter * fraction)


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
        The campaign to supervise. The supervisor temporarily adjusts
        the campaign pool's chunking/parallelism while walking the
        degradation ladder and restores it afterwards.
    policy:
        Retry/backoff/classification policy (default: 3 retries,
        50 ms base backoff).
    ledger:
        Quarantine ledger; defaults to ``quarantine.jsonl`` beside the
        campaign's trial store (in-memory-only campaigns get an
        in-memory ledger path under no directory — pass one explicitly
        to persist).
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
        self.retries = 0

    # -- degradation ladder ------------------------------------------------------

    def _rung(self, attempt: int) -> str:
        return _LADDER[min(attempt - 1, len(_LADDER) - 1)]

    @contextmanager
    def _degraded_pool(self, rung: str):
        """Apply one ladder rung to the campaign pool, then restore it.

        ``smaller-chunks`` quarters the chunk size (stragglers and
        per-chunk casualties shrink); ``inline`` pulls execution into
        this process entirely, taking pool infrastructure out of the
        fault surface.
        """
        pool = self.campaign.pool
        saved = (pool.workers, pool.chunk_size)
        if rung == "smaller-chunks":
            base = pool.chunk_size if pool.chunk_size is not None else 16
            pool.chunk_size = max(1, base // 4)
        elif rung == "inline":
            pool.workers = 1
        try:
            yield
        finally:
            pool.workers, pool.chunk_size = saved

    @contextmanager
    def _attempt_plan(self, attempt: int):
        """Advance the pool's fault plan to *attempt* for one wave."""
        pool = self.campaign.pool
        saved = pool.fault_plan
        if saved is not None:
            pool.fault_plan = saved.with_attempt(attempt)
        try:
            yield
        finally:
            pool.fault_plan = saved

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
            rung = self._rung(attempt)
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

            delay = self.policy.backoff_seconds(attempt, f"wave{attempt}")
            if delay > 0:
                self._sleep(delay)
            rungs_walked.append(rung)
            run_retries += len(retriable)
            self.retries += len(retriable)
            self._count("supervisor.retries", len(retriable))
            self._count(f"supervisor.rung.{rung}", len(retriable))
            self._emit(
                "retry",
                attempt=attempt,
                rung=rung,
                trials=len(retriable),
                backoff=round(delay, 6),
            )
            with self._attempt_plan(attempt), self._degraded_pool(rung):
                retried = self.campaign.run_trials(
                    [results[i].spec for i in retriable]
                )
            for i, fresh in zip(retriable, retried):
                results[i] = fresh
            pending = [i for i in retriable if not results[i].ok]

        # Anything still failing has exhausted the ladder. (With
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
