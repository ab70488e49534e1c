"""Experiment harness: every evaluated artefact of the paper.

See DESIGN.md §3 for the experiment index. Every entry point builds
labelled per-seed cells, runs them through :func:`measure` and
aggregates per label with
:func:`repro.analysis.complexity.aggregate_outcomes`. The entry points
are:

- :func:`run_figure3_panel` — regenerate one panel of Figure 3;
- :func:`run_tradeoff` — the Theorem 1 trade-off frontier;
- :mod:`repro.experiments.ablation` — F-fraction sweep, q-grid and the
  oblivious-adversary contrast;
- :mod:`repro.experiments.report` — tables / CSV rendering.
"""

from repro.experiments.ablation import (
    AblationCell,
    run_adversary_comparison,
    run_f_sweep,
    run_q_grid,
)
from repro.experiments.config import SweepSpec, TrialSpec, f_fraction
from repro.experiments.figure3 import (
    DEFAULT_N_GRID,
    DEFAULT_SEEDS,
    PANELS,
    PAPER_N_GRID,
    PAPER_SEEDS,
    PanelResult,
    PanelSpec,
    figure3_sweeps,
    run_figure3_panel,
)
from repro.experiments.report import (
    format_table,
    panel_csv,
    panel_table,
    shape_summary,
    sweep_csv,
)
from repro.experiments.runner import (
    SeriesPoint,
    SweepResult,
    aggregate_sweep,
    measure,
    run_sweep,
    run_trial,
)
from repro.experiments.decomposition import (
    StrategyGroup,
    dominant_strategy,
    run_decomposition,
)
from repro.experiments.serialization import dumps, loads
from repro.experiments.verdicts import PanelVerdict, check_panel
from repro.experiments.tradeoff import TradeoffPoint, run_tradeoff

__all__ = [
    "AblationCell",
    "run_adversary_comparison",
    "run_f_sweep",
    "run_q_grid",
    "SweepSpec",
    "TrialSpec",
    "f_fraction",
    "DEFAULT_N_GRID",
    "DEFAULT_SEEDS",
    "PANELS",
    "PAPER_N_GRID",
    "PAPER_SEEDS",
    "PanelResult",
    "PanelSpec",
    "figure3_sweeps",
    "run_figure3_panel",
    "format_table",
    "panel_csv",
    "panel_table",
    "shape_summary",
    "sweep_csv",
    "SeriesPoint",
    "SweepResult",
    "aggregate_sweep",
    "measure",
    "run_sweep",
    "run_trial",
    "TradeoffPoint",
    "run_tradeoff",
    "dumps",
    "loads",
    "StrategyGroup",
    "dominant_strategy",
    "run_decomposition",
    "PanelVerdict",
    "check_panel",
]
