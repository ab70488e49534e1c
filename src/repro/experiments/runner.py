"""Trial and sweep execution.

A *trial* is one simulated execution; a *sweep* is a grid of trials
(N values x seeds for one protocol/adversary pair). Specs are plain
picklable dataclasses and the worker rebuilds protocol and adversary
from the registries, so nothing stateful crosses process boundaries.

Execution is delegated to the campaign layer
(:class:`repro.campaign.Campaign`): :func:`run_sweep` without an
explicit campaign spins up an ephemeral one, while callers running
several sweeps (figure panels, full reports) pass a shared campaign
so all sweeps reuse one worker pool and one trial cache — identical
trials are computed exactly once per session, and once ever with a
persistent cache dir.

Trials within one (protocol, adversary, N, F) cell differ only by
seed and are aggregated into the paper's median/quartile series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.aggregate import RunStatistics, aggregate_runs
from repro.errors import CampaignError, ConfigurationError, IncompleteRunError
from repro.experiments.config import SweepSpec, TrialSpec
from repro.sim.outcome import Outcome

__all__ = [
    "run_trial",
    "run_sweep",
    "aggregate_sweep",
    "SweepResult",
    "SeriesPoint",
]


def run_trial(spec: TrialSpec, *, metrics=None, backend: str = "scalar") -> Outcome:
    """Execute one trial described by *spec*.

    *backend* is a routing mode (``scalar``/``batch``/``auto``) that
    :func:`repro.backends.registry.route` resolves against *spec*; the
    default keeps single-trial callers — notably the campaign pool
    workers — on the reference engine, where batching buys nothing and
    the oracle's sanitizer and chaos hooks all live. A forced ``batch``
    on a spec the vectorized engine cannot run is a
    :class:`~repro.errors.ConfigurationError` naming the reason.
    *metrics* is an optional :class:`~repro.obs.registry.MetricsRegistry`
    the engine writes instrumentation into; ``None`` defers to
    ``$REPRO_METRICS``. Outcomes are identical either way — metrics are
    write-only observability, and the engines are wire-equivalent by
    contract.
    """
    # Lazy: the backends need TrialSpec, and this module is pulled in
    # by the experiments package init — a top-level import would close
    # that cycle.
    from repro.backends.registry import get_backend, route

    engine, reason = route(spec, backend, metrics=metrics)
    if engine is None:
        raise ConfigurationError(f"batch backend ineligible — {reason}")
    return get_backend(engine).run_batch([spec], metrics=metrics)[0]


@dataclass(frozen=True, slots=True)
class SeriesPoint:
    """Aggregated complexities at one (N, F) of a sweep."""

    n: int
    f: int
    messages: RunStatistics
    time: RunStatistics
    truncated_runs: int
    gather_failures: int


@dataclass(frozen=True, slots=True)
class SweepResult:
    """All aggregated points of one sweep, in ascending (N, F)."""

    spec: SweepSpec
    points: tuple[SeriesPoint, ...]

    def _stats(self, quantity: str) -> list[RunStatistics]:
        if quantity == "messages":
            return [p.messages for p in self.points]
        if quantity == "time":
            return [p.time for p in self.points]
        raise ValueError(f"quantity must be 'messages' or 'time', got {quantity!r}")

    def series(self, quantity: str) -> tuple[list[int], list[float]]:
        """``(N values, medians)`` for ``quantity`` in {"messages", "time"}."""
        return [p.n for p in self.points], [s.median for s in self._stats(quantity)]

    def quartiles(
        self, quantity: str
    ) -> tuple[list[int], list[float], list[float]]:
        """``(N values, q1s, q3s)`` — the figure's shaded band.

        Companion to :meth:`series` so plots and tables no longer
        reach into :attr:`points` by hand for the quartiles.
        """
        stats = self._stats(quantity)
        ns = [p.n for p in self.points]
        return ns, [s.q1 for s in stats], [s.q3 for s in stats]


def aggregate_sweep(
    spec: SweepSpec,
    outcomes: Sequence[Outcome],
    *,
    allow_truncated: bool = True,
) -> SweepResult:
    """Aggregate trial outcomes into per-(N, F) series points.

    Cells are keyed by ``(n, f)`` — not ``n`` alone, which would
    silently merge distinct F values if a spec ever varied f per n —
    and every outcome must belong to a cell the spec's grid declares.
    """
    expected = {(t.n, t.f) for t in spec.trials()}
    by_cell: dict[tuple[int, int], list[Outcome]] = {}
    for outcome in outcomes:
        cell = (outcome.n, outcome.f)
        if cell not in expected:
            raise CampaignError(
                f"outcome at (N={outcome.n}, F={outcome.f}) does not match "
                f"any cell of the sweep grid {sorted(expected)}"
            )
        if (
            outcome.protocol_name != spec.protocol
            or outcome.adversary_name != spec.adversary
        ):
            raise CampaignError(
                f"outcome ran {outcome.protocol_name} vs "
                f"{outcome.adversary_name}, spec wants {spec.protocol} vs "
                f"{spec.adversary}"
            )
        by_cell.setdefault(cell, []).append(outcome)

    points = []
    for n, f in sorted(by_cell):
        cell = by_cell[(n, f)]
        usable = [o for o in cell if o.completed or allow_truncated]
        if not usable:
            raise IncompleteRunError(
                f"every run at N={n} hit max_steps={spec.max_steps} before "
                "quiescence and allow_truncated is False; raise max_steps or "
                "pass allow_truncated=True"
            )
        msgs = aggregate_runs(
            [o.message_complexity(allow_truncated=True) for o in usable]
        )
        times = aggregate_runs([o.time_complexity(allow_truncated=True) for o in usable])
        points.append(
            SeriesPoint(
                n=n,
                f=f,
                messages=msgs,
                time=times,
                truncated_runs=sum(not o.completed for o in cell),
                gather_failures=sum(
                    o.completed and not o.rumor_gathering_ok for o in cell
                ),
            )
        )
    return SweepResult(spec=spec, points=tuple(points))


def run_sweep(
    spec: SweepSpec,
    *,
    workers: int | None = None,
    allow_truncated: bool = True,
    campaign=None,
) -> SweepResult:
    """Run every trial of *spec* and aggregate per (N, F).

    ``workers=0`` or ``1`` runs inline (useful under pytest and for
    debugging); ``None`` uses CPU count - 1. Truncated runs (hit
    ``max_steps``) are counted per point and — when
    ``allow_truncated`` — included in the aggregates with their
    truncated measurements, which under-reports the attack rather than
    over-reporting it.

    With a *campaign*, execution goes through its shared pool and
    trial cache (``workers`` is then ignored); without one, an
    ephemeral in-memory campaign is used.
    """
    from repro.campaign import Campaign

    if campaign is not None:
        return campaign.run_sweep(spec, allow_truncated=allow_truncated)
    with Campaign(workers=workers) as ephemeral:
        return ephemeral.run_sweep(spec, allow_truncated=allow_truncated)
