"""Turning outcomes into the paper's reported quantities."""

from __future__ import annotations

from typing import Iterable

from repro.analysis.aggregate import RunStatistics, aggregate_runs
from repro.sim.outcome import Outcome

__all__ = ["aggregate_outcomes"]


def aggregate_outcomes(
    outcomes: Iterable[Outcome], *, allow_truncated: bool = False
) -> tuple[RunStatistics, RunStatistics]:
    """Median/quartile pair ``(messages, time)`` of M(O) and T(O) across
    outcomes (Defs. II.3–II.4); a truncated run raises
    :class:`~repro.errors.IncompleteRunError` unless *allow_truncated*."""
    outcomes = list(outcomes)
    msgs = aggregate_runs(
        [o.message_complexity(allow_truncated=allow_truncated) for o in outcomes]
    )
    times = aggregate_runs(
        [o.time_complexity(allow_truncated=allow_truncated) for o in outcomes]
    )
    return msgs, times
