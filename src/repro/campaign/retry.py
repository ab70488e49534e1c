"""One retry schedule for every attempt loop: the supervisor's waves, the
service client's reconnects and the trial store's ``fsync`` retries each
sleep through :meth:`RetryPolicy.wait`."""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError

__all__ = ["DEFAULT_TRANSIENT_ERRORS", "RetryPolicy", "exception_name"]

#: Exception names (the last frame of the captured traceback) treated
#: as transient: infrastructure weather, not trial identity.
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

    ``max_retries`` counts *re-executions* after the first attempt.
    Backoff for retry ``k`` (1-based) is
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
        return "transient" if name in DEFAULT_TRANSIENT_ERRORS else "poison"

    def backoff_seconds(self, attempt: int, token: str) -> float:
        """Wait before retry *attempt* (1-based) of the loop *token*."""
        if attempt < 1 or self.base_backoff == 0:
            return 0.0
        base = min(
            self.max_backoff,
            self.base_backoff * self.backoff_factor ** (attempt - 1),
        )
        digest = hashlib.sha256(f"{token}:{attempt}".encode("utf-8")).digest()
        fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return base * (1.0 + self.jitter * fraction)

    def wait(
        self,
        attempt: int,
        token: str,
        *,
        floor: float | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> float:
        """Sleep :meth:`backoff_seconds`, raised to *floor* (a daemon's
        ``Retry-After`` hint), before retry *attempt*; return the wait.
        *sleep* defaults to :func:`time.sleep`, looked up per call."""
        seconds = self.backoff_seconds(attempt, token)
        if floor:
            seconds = max(seconds, floor)
        if seconds > 0:
            (sleep or time.sleep)(seconds)
        return seconds
