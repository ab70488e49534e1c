"""Decomposing UGF's mixture: which drawn strategy did what?

The paper's "max UGF" curves come from asking, per protocol, which of
UGF's strategies causes the most damage. This module answers it
empirically *from UGF runs themselves*: run the mixture across seeds,
group the outcomes by the strategy each run drew (recorded on
:attr:`repro.sim.outcome.Outcome.strategy_label` by the engine), and
aggregate per group.

Because the drawn strategy travels on the outcome, decomposition runs
through :func:`repro.experiments.runner.measure` like every other
experiment — cached, resumable and pool-parallel — instead of holding
live adversary objects to interrogate afterwards.

The output both identifies the per-protocol worst case (compare with
:data:`repro.experiments.figure3.PANELS`) and shows the mixture
dilution — the median UGF curve sits at whichever strategy happens to
be the middle draw, which is why the paper plots max-UGF separately.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.aggregate import RunStatistics
from repro.analysis.complexity import aggregate_outcomes
from repro.errors import CampaignError, ConfigurationError
from repro.experiments.config import TrialSpec
from repro.experiments.runner import measure
from repro.sim.outcome import Outcome

__all__ = ["StrategyGroup", "run_decomposition", "dominant_strategy"]


@dataclass(frozen=True, slots=True)
class StrategyGroup:
    """Aggregated outcomes of the UGF runs that drew one strategy."""

    label: str  # e.g. "str-1", "str-2.1.0", "str-2.1.1"
    runs: int
    messages: RunStatistics
    time: RunStatistics


def run_decomposition(
    protocol: str,
    *,
    n: int,
    f: int,
    seeds: tuple[int, ...] = tuple(range(30)),
    max_steps: int = 5_000_000,
    campaign=None,
    **ugf_kwargs,
) -> list[StrategyGroup]:
    """Run UGF across *seeds* and group outcomes by drawn strategy.

    Returns groups sorted by label. With the default equiprobable
    mixture and 30 seeds, each family collects ~10 runs.
    """
    if not seeds:
        raise ConfigurationError("need at least one seed")
    cells = [
        (
            "ugf",
            TrialSpec(
                protocol=protocol,
                adversary="ugf",
                n=n,
                f=f,
                seed=seed,
                max_steps=max_steps,
                adversary_kwargs=tuple(sorted(ugf_kwargs.items())),
            ),
        )
        for seed in seeds
    ]
    buckets: dict[str, list[Outcome]] = {}
    for outcome in measure(cells, campaign)["ugf"]:
        if outcome.strategy_label is None:
            raise CampaignError(
                "UGF outcome carries no strategy label; the cache entry "
                "predates strategy recording — rerun with --fresh"
            )
        buckets.setdefault(outcome.strategy_label, []).append(outcome)
    return [
        StrategyGroup(label, len(runs), *aggregate_outcomes(runs, allow_truncated=True))
        for label, runs in sorted(buckets.items())
    ]


def dominant_strategy(groups: list[StrategyGroup], quantity: str) -> StrategyGroup:
    """The group with the largest median of *quantity* ("messages"/"time")."""
    if not groups:
        raise ConfigurationError("no strategy groups to compare")
    if quantity == "messages":
        return max(groups, key=lambda g: g.messages.median)
    if quantity == "time":
        return max(groups, key=lambda g: g.time.median)
    raise ConfigurationError(
        f"quantity must be 'messages' or 'time', got {quantity!r}"
    )
