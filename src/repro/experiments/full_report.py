"""One-command reproduction: every claim, one markdown report.

Artifact-evaluation mode: :func:`run_full_reproduction` walks the claims
table (:mod:`repro.experiments.claims` — Figure 3's five panels and every
claim the paper's text states in numbers), measures each claim at a
chosen scale through one campaign and judges it; :func:`render_markdown`
prints each claim's table with its ``[ok]``/``[FAIL]`` lines.
:attr:`ReproductionReport.all_reproduced` — the command's exit status —
spans every check of every claim.

CLI: ``repro-ugf report --scale laptop --out report.md``; ``--scale
paper`` is the paper's full grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.experiments.claims import (
    CLAIMS,
    ClaimVerdict,
    cells_table,
    decomposition_table,
    tradeoff_table,
)

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
        tradeoff={
            "n": 60,
            "f": 18,
            "tau": 3,
            "k_values": (1, 2, 3, 4),
            "seeds": tuple(range(10)),
        },
    ),
}


@dataclass(frozen=True, slots=True)
class ReproductionReport:
    """What one full-reproduction run measured and found, keyed by claim id."""

    scale: ReproductionScale
    evidence: dict[str, Any]
    verdicts: dict[str, ClaimVerdict]

    @property
    def all_reproduced(self) -> bool:
        return all(v.passed for v in self.verdicts.values())

    @property
    def overall(self) -> str:
        """One line: everything reproduced, or which claims did not."""
        if self.all_reproduced:
            return f"all {len(self.verdicts)} claims reproduced"
        short: dict[str, list[str]] = {}
        for verdict in self.verdicts.values():
            if not verdict.passed:
                short.setdefault(verdict.status, []).append(verdict.claim)
        return "; ".join(f"{status}: {', '.join(ids)}" for status, ids in short.items())


def run_full_reproduction(
    scale: str | ReproductionScale = "laptop",
    *,
    progress: Callable[[str], None] | None = None,
    campaign=None,
) -> ReproductionReport:
    """Measure and judge every claim at the given scale.

    Every claim runs through one :class:`~repro.campaign.Campaign` —
    the caller's, or an ephemeral inline, memo-only one — so the whole
    report shares a single trial memo (cells two claims both need are
    simulated once), and with the caller's a worker pool and store too.
    With a persistent cache dir an interrupted report resumes: completed
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
        with Campaign(workers=1) as ephemeral:
            return run_full_reproduction(scale, progress=progress, campaign=ephemeral)

    evidence: dict[str, Any] = {}
    verdicts: dict[str, ClaimVerdict] = {}
    for claim in CLAIMS:
        say(f"{claim.id} ...")
        evidence[claim.id] = claim.run(campaign=campaign, **claim.size(scale))
        judged = claim.judgeable(scale)
        verdicts[claim.id] = ClaimVerdict(
            claim.id, tuple(claim.judge(evidence[claim.id])) if judged else None
        )
    say(campaign.stats.summary())
    return ReproductionReport(scale=scale, evidence=evidence, verdicts=verdicts)


def render_markdown(report: ReproductionReport) -> str:
    """Render the full report as markdown: a section per paper claim."""
    lines = [
        "# Reproduction report — The Universal Gossip Fighter",
        "",
        f"Scale: **{report.scale.label}** "
        f"(N ∈ {list(report.scale.n_values)}, {len(report.scale.seeds)} seeds; "
        f"claims that are not panels at N = {report.scale.ablation_n}, "
        f"{len(report.scale.ablation_seeds)} seeds; "
        f"paper grid is N up to 500 with 50 seeds).",
        "",
        f"Overall: **{report.overall}**.",
        "",
    ]
    for section, claims in groupby(CLAIMS, key=lambda claim: claim.section):
        lines += [f"## {section}", ""]
        for claim in claims:
            lines += [
                f"### {claim.id}",
                "",
                "```",
                claim.table(report.evidence[claim.id]),
                "",
                report.verdicts[claim.id].summary(),
                "```",
                "",
            ]
    return "\n".join(lines)
