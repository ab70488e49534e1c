"""One-command reproduction: every experiment, one markdown report.

Artifact-evaluation mode: :func:`run_full_reproduction` executes the
complete evaluation — all five Figure 3 panels with shape verdicts,
the F-fraction sweep, the adversary comparison (null / oblivious /
greedy oracle / fixed strategies / UGF), the UGF mixture decomposition
and the Theorem 1 trade-off — at a chosen scale, and
:func:`render_markdown` turns the result into a self-contained report
mirroring EXPERIMENTS.md's structure with freshly measured numbers.

CLI: ``repro-ugf report --scale laptop --out report.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigurationError
from repro.experiments.ablation import (
    AblationCell,
    run_adversary_comparison,
    run_f_sweep,
)
from repro.experiments.config import f_fraction
from repro.experiments.decomposition import StrategyGroup, run_decomposition
from repro.experiments.figure3 import PANELS, PanelResult, run_figure3_panel
from repro.experiments.report import _stat_cell, format_table, panel_table
from repro.experiments.tradeoff import TradeoffPoint, run_tradeoff
from repro.experiments.verdicts import PanelVerdict, check_panel

__all__ = [
    "ReproductionScale",
    "SCALES",
    "ReproductionReport",
    "run_full_reproduction",
    "cells_table",
    "decomposition_table",
    "tradeoff_table",
    "render_markdown",
]


@dataclass(frozen=True, slots=True)
class ReproductionScale:
    """Grid sizing for one full-reproduction run."""

    label: str
    n_values: tuple[int, ...]
    seeds: tuple[int, ...]
    ablation_n: int
    ablation_seeds: tuple[int, ...]
    decomposition_seeds: tuple[int, ...]
    tradeoff: dict = field(
        default_factory=lambda: {
            "n": 30,
            "f": 9,
            "tau": 3,
            "k_values": (1, 2, 3),
            "seeds": tuple(range(5)),
        }
    )


SCALES: dict[str, ReproductionScale] = {
    "smoke": ReproductionScale(
        label="smoke",
        n_values=(10, 20, 30),
        seeds=tuple(range(3)),
        ablation_n=20,
        ablation_seeds=tuple(range(3)),
        decomposition_seeds=tuple(range(6)),
    ),
    "laptop": ReproductionScale(
        label="laptop",
        n_values=(10, 20, 30, 50, 70, 100),
        seeds=tuple(range(10)),
        ablation_n=50,
        ablation_seeds=tuple(range(8)),
        decomposition_seeds=tuple(range(24)),
    ),
    "paper": ReproductionScale(
        label="paper",
        n_values=(10, 20, 30, 50, 70, 100, 200, 300, 400, 500),
        seeds=tuple(range(50)),
        ablation_n=100,
        ablation_seeds=tuple(range(15)),
        decomposition_seeds=tuple(range(60)),
    ),
}


@dataclass(frozen=True, slots=True)
class ReproductionReport:
    """Everything one full-reproduction run produced."""

    scale: ReproductionScale
    panels: dict[str, PanelResult]
    verdicts: dict[str, PanelVerdict]
    f_sweep: dict[str, list[AblationCell]]
    adversary_comparison: dict[str, list[AblationCell]]
    decomposition: dict[str, list[StrategyGroup]]
    tradeoff: list[TradeoffPoint]

    @property
    def all_reproduced(self) -> bool:
        return all(v.passed for v in self.verdicts.values())


def run_full_reproduction(
    scale: str | ReproductionScale = "laptop",
    *,
    workers: int | None = None,
    progress: Callable[[str], None] | None = None,
    campaign=None,
) -> ReproductionReport:
    """Execute the complete evaluation at the given scale.

    Every stage runs through one :class:`~repro.campaign.Campaign` —
    the caller's, or an ephemeral one sized by *workers* — so the
    whole report shares a single worker pool and trial cache. With a
    persistent cache dir an interrupted report resumes: completed
    trials replay from the store and only missing ones execute.
    """
    from repro.campaign import Campaign

    if isinstance(scale, str):
        try:
            scale = SCALES[scale]
        except KeyError:
            raise ConfigurationError(
                f"unknown scale {scale!r}; available: {', '.join(SCALES)}"
            ) from None
    say = progress or (lambda _: None)

    if campaign is None:
        with Campaign(workers=workers) as ephemeral:
            return run_full_reproduction(
                scale, workers=workers, progress=progress, campaign=ephemeral
            )

    panels: dict[str, PanelResult] = {}
    verdicts: dict[str, PanelVerdict] = {}
    for panel in sorted(PANELS):
        say(f"regenerating Figure {panel} ...")
        result = run_figure3_panel(
            panel, n_values=scale.n_values, seeds=scale.seeds, campaign=campaign
        )
        panels[panel] = result
        verdicts[panel] = check_panel(result)

    say("F-fraction sweep ...")
    f_sweep = {
        protocol: run_f_sweep(
            protocol,
            n=scale.ablation_n,
            seeds=scale.ablation_seeds,
            adversary=adversary,
            campaign=campaign,
        )
        for protocol, adversary in (("push-pull", "str-1"), ("ears", "str-2.1.0"))
    }

    say("adversary comparison ...")
    comparison_f = f_fraction(scale.ablation_n, 0.3)
    adversary_comparison = {
        protocol: run_adversary_comparison(
            protocol,
            n=scale.ablation_n,
            f=comparison_f,
            seeds=scale.ablation_seeds,
            adversaries=(
                "none",
                "oblivious",
                "greedy-oracle",
                "str-1",
                "str-2.1.0",
                "str-2.1.1",
                "ugf",
            ),
            campaign=campaign,
        )
        for protocol in ("push-pull", "ears")
    }

    say("UGF mixture decomposition ...")
    decomposition = {
        protocol: run_decomposition(
            protocol,
            n=scale.ablation_n,
            f=comparison_f,
            seeds=scale.decomposition_seeds,
            campaign=campaign,
        )
        for protocol in ("push-pull", "ears", "sears")
    }

    say("Theorem 1 trade-off frontier ...")
    tradeoff = run_tradeoff("ears", campaign=campaign, **scale.tradeoff)

    say(campaign.stats.summary())

    return ReproductionReport(
        scale=scale,
        panels=panels,
        verdicts=verdicts,
        f_sweep=f_sweep,
        adversary_comparison=adversary_comparison,
        decomposition=decomposition,
        tradeoff=tradeoff,
    )


# ------------------------------------------------------------------ rendering
# One definition per table: `repro-ugf ablate / decompose / tradeoff` print
# exactly the text the report embeds.


def cells_table(cells: list[AblationCell]) -> str:
    """Ablation or adversary-comparison cells, median [q1..q3] per setting."""
    rows = [
        [c.label, str(c.n), str(c.f), _stat_cell(c.messages), _stat_cell(c.time)]
        for c in cells
    ]
    return format_table(["setting", "N", "F", "M", "T"], rows)


def decomposition_table(groups: list[StrategyGroup]) -> str:
    """UGF runs grouped by the strategy the mixture drew."""
    rows = [
        [g.label, str(g.runs), _stat_cell(g.messages), _stat_cell(g.time)]
        for g in groups
    ]
    return format_table(["strategy", "runs", "M", "T"], rows)


def tradeoff_table(points: list[TradeoffPoint]) -> str:
    """Measured T and M against Theorem 1's bounds, one row per k."""
    rows = [
        [
            str(p.k),
            str(p.alpha),
            _stat_cell(p.time_under_isolation),
            _stat_cell(p.steps_under_isolation),
            f"{p.bounds.time_bound:.3g}",
            _stat_cell(p.messages_under_delay),
            f"{p.bounds.message_bound:.4g}",
        ]
        for p in points
    ]
    headers = ["k", "alpha", "T @ 2.k.0", "T_end steps", "T bound", "M @ 2.k.1", "M bound"]
    return format_table(headers, rows)


def render_markdown(report: ReproductionReport) -> str:
    """Render the full report as markdown."""
    lines = [
        "# Reproduction report — The Universal Gossip Fighter",
        "",
        f"Scale: **{report.scale.label}** "
        f"(N ∈ {list(report.scale.n_values)}, {len(report.scale.seeds)} seeds; "
        f"paper grid is N up to 500 with 50 seeds).",
        "",
        f"Overall: **{'all shape claims reproduced' if report.all_reproduced else 'SHAPE MISMATCHES — see panels'}**.",
        "",
    ]
    sections = {
        "Figure 3": {
            f"Figure {panel}": f"{panel_table(result)}\n\n{report.verdicts[panel].summary()}"
            for panel, result in sorted(report.panels.items())
        },
        "F-fraction sweep (§V-A.1)": {
            protocol: cells_table(cells) for protocol, cells in report.f_sweep.items()
        },
        "Adversary comparison (§VI)": {
            protocol: cells_table(cells)
            for protocol, cells in report.adversary_comparison.items()
        },
        "UGF mixture decomposition": {
            protocol: decomposition_table(groups)
            for protocol, groups in report.decomposition.items()
        },
        "Theorem 1 trade-off": {"ears": tradeoff_table(report.tradeoff)},
    }
    for title, tables in sections.items():
        lines += [f"## {title}", ""]
        for heading, table in tables.items():
            lines += [f"### {heading}", "", "```", table, "```", ""]
    return "\n".join(lines)
