"""Trial and sweep execution: the experiments' one measurement path.

A *trial* is one simulated execution; a *sweep* is a grid of trials
(N values x seeds for one protocol/adversary pair). Specs are plain
picklable dataclasses and the worker rebuilds protocol and adversary
from the registries, so nothing stateful crosses process boundaries.

Every experiment builds labelled per-seed cells and hands them to
:func:`measure`, the only code here that submits trials to a
:class:`repro.campaign.Campaign` and the only one that raises on a
failed trial. Omit ``campaign=`` and the cells run in an ephemeral
inline, memo-only session; pass one to get a worker pool, a persistent
store or a daemon, and to share its memo across several grids (figure
panels, full reports) so identical trials are computed once.

Per-label outcomes then aggregate through
:func:`repro.analysis.complexity.aggregate_outcomes` into the paper's
median/quartile series (:func:`aggregate_sweep` per (N, F) cell).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.analysis.aggregate import RunStatistics
from repro.analysis.complexity import aggregate_outcomes
from repro.errors import CampaignError, ConfigurationError, IncompleteRunError
from repro.experiments.config import SweepSpec, TrialSpec
from repro.sim.outcome import Outcome

__all__ = [
    "measure",
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
        msgs, times = aggregate_outcomes(usable, allow_truncated=True)
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


def measure(
    cells: Sequence[tuple[Hashable, TrialSpec]], campaign=None
) -> dict[Hashable, list[Outcome]]:
    """Run every ``(label, spec)`` cell; outcomes grouped by label.

    The whole grid is one :meth:`~repro.campaign.Campaign.run_trials`
    call, so a pool or the batch engine sees every cell at once. Labels
    keep their first-seen order and each label's outcomes their
    submission order. Any failed trial raises :class:`CampaignError`
    naming how many failed and the first of them. Without a *campaign*
    the cells run in an ephemeral inline, memo-only session.
    """
    if campaign is None:
        from repro.campaign import Campaign

        with Campaign(workers=1) as ephemeral:
            return measure(cells, ephemeral)

    results = campaign.run_trials([spec for _, spec in cells])
    failed = [r for r in results if r.outcome is None]
    if failed:
        shown = "; ".join(f"{r.error} (spec: {r.spec})" for r in failed[:3])
        raise CampaignError(f"{len(failed)}/{len(results)} trials failed: {shown}")
    measured: dict[Hashable, list[Outcome]] = {}
    for (label, _), result in zip(cells, results):
        measured.setdefault(label, []).append(result.outcome)
    return measured


def run_sweep(
    spec: SweepSpec,
    *,
    allow_truncated: bool = True,
    campaign=None,
) -> SweepResult:
    """Run every trial of *spec* through :func:`measure` and aggregate
    per (N, F).

    Truncated runs (hit ``max_steps``) are counted per point and — when
    ``allow_truncated`` — included in the aggregates with their
    truncated measurements, which under-reports the attack rather than
    over-reporting it.
    """
    measured = measure([("sweep", trial) for trial in spec.trials()], campaign)
    return aggregate_sweep(
        spec, measured.get("sweep", []), allow_truncated=allow_truncated
    )
