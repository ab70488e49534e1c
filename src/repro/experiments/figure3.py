"""Figure 3 panel specifications and execution.

The paper's Figure 3 compares, per protocol, the complexity (1) with
no adversary, (2) under UGF, and (3) under the single strategy with
the most impact for that protocol ("max UGF"):

=====  =========  =========  =====================
panel  protocol   quantity   max-UGF strategy
=====  =========  =========  =====================
3a     push-pull  time       Strategy 1
3b     ears       time       Strategy 2.1.0
3c     push-pull  messages   Strategy 2.1.1
3d     ears       messages   Strategy 2.1.1
3e     sears      messages   Strategy 2.1.1
=====  =========  =========  =====================

Parameters follow §V-A: N in {10, 20, 30, 50, 70, 100, 200, 300, 400,
500}, F = 0.3 N, medians over 50 runs, q1 = 1/3, q2 = 1/2, tau = F and
k = l = 1.

The *full* grid is expensive (SEARS at N = 500 moves ~70k messages per
step); by default a laptop-scale grid is used and ``full=True`` (the
CLI's ``figure --full``) selects the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.experiments.config import SweepSpec
from repro.experiments.runner import SweepResult, aggregate_sweep, measure

__all__ = [
    "PANELS",
    "PanelSpec",
    "PanelResult",
    "figure3_sweeps",
    "run_figure3_panel",
    "PAPER_N_GRID",
    "DEFAULT_N_GRID",
    "PAPER_SEEDS",
    "DEFAULT_SEEDS",
]

#: The paper's N grid (§V-A.1).
PAPER_N_GRID: tuple[int, ...] = (10, 20, 30, 50, 70, 100, 200, 300, 400, 500)
#: Laptop-scale default grid.
DEFAULT_N_GRID: tuple[int, ...] = (10, 20, 30, 50, 70, 100)
#: The paper's 50 seeds vs the laptop default.
PAPER_SEEDS: tuple[int, ...] = tuple(range(50))
DEFAULT_SEEDS: tuple[int, ...] = tuple(range(10))

#: The paper's F = 0.3 N headline fraction.
F_FRACTION = 0.3


@dataclass(frozen=True, slots=True)
class PanelSpec:
    """One Figure 3 panel."""

    panel: str
    protocol: str
    quantity: str  # "time" or "messages"
    max_strategy: str  # the per-protocol most-damaging strategy
    expected_baseline_shape: str
    expected_attacked_shape: str


PANELS: dict[str, PanelSpec] = {
    "3a": PanelSpec("3a", "push-pull", "time", "str-1", "log", "linear"),
    "3b": PanelSpec("3b", "ears", "time", "str-2.1.0", "log", "linear"),
    "3c": PanelSpec("3c", "push-pull", "messages", "str-2.1.1", "nlogn", "quadratic"),
    "3d": PanelSpec("3d", "ears", "messages", "str-2.1.1", "nlogn", "quadratic"),
    "3e": PanelSpec("3e", "sears", "messages", "str-2.1.1", "quadratic", "quadratic"),
}

#: Curve labels, in the paper's legend order.
CURVES = ("no-adversary", "ugf", "max-ugf")


def figure3_sweeps(
    panel: str,
    *,
    full: bool | None = None,
    n_values: tuple[int, ...] | None = None,
    seeds: tuple[int, ...] | None = None,
    f_of_n: float = F_FRACTION,
    topology: str | None = None,
) -> dict[str, SweepSpec]:
    """Sweep specs for the three curves of one panel.

    A non-None *topology* runs the panel off the clique — useful for
    what-if comparisons, but the shape verdict is then OUT-OF-MODEL
    (Figure 3's claims are about the all-to-all model).
    """
    try:
        spec = PANELS[panel]
    except KeyError:
        raise ConfigurationError(
            f"unknown panel {panel!r}; available: {', '.join(PANELS)}"
        ) from None
    if n_values is None:
        n_values = PAPER_N_GRID if full else DEFAULT_N_GRID
    if seeds is None:
        seeds = PAPER_SEEDS if full else DEFAULT_SEEDS

    def sweep(adversary: str) -> SweepSpec:
        return SweepSpec(
            protocol=spec.protocol,
            adversary=adversary,
            n_values=tuple(n_values),
            f_of_n=f_of_n,
            seeds=tuple(seeds),
            topology=topology,
        )

    return {
        "no-adversary": sweep("none"),
        "ugf": sweep("ugf"),
        "max-ugf": sweep(spec.max_strategy),
    }


@dataclass(frozen=True, slots=True)
class PanelResult:
    """The three curves of one executed panel."""

    spec: PanelSpec
    curves: dict[str, SweepResult]

    def series(self, curve: str) -> tuple[list[int], list[float]]:
        """(N values, medians) of the panel's quantity for one curve."""
        return self.curves[curve].series(self.spec.quantity)


def run_figure3_panel(
    panel: str,
    *,
    full: bool | None = None,
    n_values: tuple[int, ...] | None = None,
    seeds: tuple[int, ...] | None = None,
    f_of_n: float = F_FRACTION,
    campaign=None,
    topology: str | None = None,
) -> PanelResult:
    """Regenerate one Figure 3 panel (three curves).

    The three curves are one :func:`~repro.experiments.runner.measure`
    call. Pass a shared *campaign* and every other panel of the run
    shares its worker pool and trial cache too, so e.g. the push-pull
    baseline sweep 3a and 3c both need is simulated once; without one
    the panel runs in an ephemeral inline, memo-only session.
    """
    sweeps = figure3_sweeps(
        panel, full=full, n_values=n_values, seeds=seeds, f_of_n=f_of_n,
        topology=topology,
    )
    cells = [(name, trial) for name, s in sweeps.items() for trial in s.trials()]
    measured = measure(cells, campaign)
    curves = {name: aggregate_sweep(s, measured[name]) for name, s in sweeps.items()}
    return PanelResult(spec=PANELS[panel], curves=curves)
