"""Theory and statistics: the paper's bounds plus curve-shape tools.

- :mod:`repro.analysis.bounds` — closed forms of Lemmas 4/5 and the
  Theorem 1 lower bounds, with their explicit constants;
- :mod:`repro.analysis.fitting` — least-squares growth-model selection
  used to assert the *shape* claims (log vs linear time, quadratic
  messages);
- :mod:`repro.analysis.aggregate` — median/quartile aggregation across
  seeds (the paper reports medians of 50 runs with quartile bands);
- :mod:`repro.analysis.complexity` — turning outcomes into the paper's
  reported quantities.
"""

from repro.analysis.aggregate import RunStatistics, aggregate_runs
from repro.analysis.bounds import (
    lemma4_probability,
    lemma5_probability,
    strategy_probabilities,
    theorem1_lower_bounds,
    Theorem1Bounds,
)
from repro.analysis.complexity import aggregate_outcomes
from repro.analysis.paired import DamageSummary, paired_damage
from repro.analysis.spread import ExposureProfile, exposure_times
from repro.analysis.timeline import StepActivity, Timeline, build_timeline
from repro.analysis.fitting import (
    GROWTH_MODELS,
    AffineFitResult,
    FitResult,
    best_growth_model,
    fit_affine,
    fit_growth,
)

__all__ = [
    "RunStatistics",
    "aggregate_runs",
    "lemma4_probability",
    "lemma5_probability",
    "strategy_probabilities",
    "theorem1_lower_bounds",
    "Theorem1Bounds",
    "aggregate_outcomes",
    "DamageSummary",
    "paired_damage",
    "ExposureProfile",
    "exposure_times",
    "StepActivity",
    "Timeline",
    "build_timeline",
    "GROWTH_MODELS",
    "AffineFitResult",
    "FitResult",
    "best_growth_model",
    "fit_affine",
    "fit_growth",
]
