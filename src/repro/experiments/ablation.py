"""Ablations the paper mentions or motivates.

- :func:`run_f_sweep` — §V-A.1: "we also vary F in {0.1N .. 0.5N}. As
  expected, the higher F, the stronger the adversary"; the paper only
  *shows* F = 0.3N, we regenerate the whole sweep.
- :func:`run_q_grid` — §III-B: UGF disrupts for *any* q1, q2; the grid
  measures how the mixture weights trade time damage against message
  damage on one protocol.
- :func:`run_adversary_comparison` — §VI: oblivious adversaries "are
  not sufficiently powerful to harm the dissemination"; measured
  side by side with UGF and the null baseline.

Every grid runs through :func:`repro.experiments.runner.measure`: pass a
shared :class:`~repro.campaign.Campaign` to reuse its worker pool and
trial cache across ablations (the full report does); without one the
cells run in an ephemeral inline, memo-only session.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.aggregate import RunStatistics
from repro.analysis.complexity import aggregate_outcomes
from repro.experiments.config import TrialSpec, f_fraction
from repro.experiments.runner import measure

__all__ = [
    "AblationCell",
    "run_f_sweep",
    "run_q_grid",
    "run_adversary_comparison",
]


@dataclass(frozen=True, slots=True)
class AblationCell:
    """Aggregated (M, T) at one setting of the ablated knob."""

    label: str
    n: int
    f: int
    messages: RunStatistics
    time: RunStatistics


def _measure_cells(
    cells: list[tuple[str, TrialSpec]],
    campaign,
) -> list[AblationCell]:
    """Measure every (label, per-seed spec) pair; (M, T) per label."""
    return [
        AblationCell(
            label, runs[0].n, runs[0].f, *aggregate_outcomes(runs, allow_truncated=True)
        )
        for label, runs in measure(cells, campaign).items()
    ]


def _cell_specs(
    label: str,
    protocol: str,
    adversary: str,
    n: int,
    f: int,
    seeds: tuple[int, ...],
    adversary_kwargs: tuple[tuple[str, object], ...] = (),
    max_steps: int = 5_000_000,
) -> list[tuple[str, TrialSpec]]:
    return [
        (
            label,
            TrialSpec(
                protocol=protocol,
                adversary=adversary,
                n=n,
                f=f,
                seed=seed,
                max_steps=max_steps,
                adversary_kwargs=adversary_kwargs,
            ),
        )
        for seed in seeds
    ]


def run_f_sweep(
    protocol: str,
    *,
    n: int,
    fractions: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5),
    seeds: tuple[int, ...] = tuple(range(10)),
    adversary: str = "ugf",
    campaign=None,
) -> list[AblationCell]:
    """UGF strength as a function of the crash-budget fraction F/N."""
    cells: list[tuple[str, TrialSpec]] = []
    for frac in fractions:
        cells += _cell_specs(
            f"F={frac:.1f}N", protocol, adversary, n, f_fraction(n, frac), seeds
        )
    return _measure_cells(cells, campaign)


def run_q_grid(
    protocol: str,
    *,
    n: int,
    f: int,
    q1_values: tuple[float, ...] = (0.2, 1.0 / 3.0, 0.6),
    q2_values: tuple[float, ...] = (0.3, 0.5, 0.7),
    seeds: tuple[int, ...] = tuple(range(10)),
    campaign=None,
) -> list[AblationCell]:
    """UGF damage across the (q1, q2) mixture grid."""
    cells: list[tuple[str, TrialSpec]] = []
    for q1 in q1_values:
        for q2 in q2_values:
            cells += _cell_specs(
                f"q1={q1:.2f},q2={q2:.2f}",
                protocol,
                "ugf",
                n,
                f,
                seeds,
                adversary_kwargs=(("q1", q1), ("q2", q2)),
            )
    return _measure_cells(cells, campaign)


def run_adversary_comparison(
    protocol: str,
    *,
    n: int,
    f: int,
    seeds: tuple[int, ...] = tuple(range(10)),
    adversaries: tuple[str, ...] = ("none", "oblivious", "ugf"),
    campaign=None,
) -> list[AblationCell]:
    """Null vs oblivious vs UGF on one protocol (the §VI contrast)."""
    cells: list[tuple[str, TrialSpec]] = []
    for adv in adversaries:
        cells += _cell_specs(adv, protocol, adv, n, f, seeds)
    return _measure_cells(cells, campaign)
