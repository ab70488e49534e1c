"""Theorem 1's time/message trade-off, rendered empirically.

Theorem 1 says UGF forces, for any integer alpha > 1, either
``E[T] = Omega(alpha F)`` or ``E[M] = Omega(N + F^2/log_tau^2(alpha F))``
— i.e. buying message complexity alpha times below quadratic costs
time exponential in alpha. The knob that realises the trade-off inside
UGF is the strategy exponent: Strategy 2.k.0 with a larger k stretches
the isolated survivor's wall to ``~F/2 * tau^k`` global steps, while
Strategy 2.k.l with larger k+l delays group C by ``tau^(k+l)``.

The paper proves the trade-off but does not plot it; this module is
the paper-extension experiment that measures it. For each exponent k
it runs, at fixed (N, F, tau):

- Strategy 2.k.0 and records the *time* complexity (the wall), and
- Strategy 2.k.1 and records the *message* complexity (the delay tax),

next to the Theorem 1 lower-bound pair from
:mod:`repro.analysis.bounds` for the matching alpha (``alpha F = tau^k``
is the time scale the strategy installs, so ``alpha = tau^k / F``
rounded up to >= 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.aggregate import RunStatistics, aggregate_runs
from repro.analysis.bounds import Theorem1Bounds, theorem1_lower_bounds
from repro.analysis.complexity import aggregate_outcomes
from repro.errors import ConfigurationError
from repro.experiments.config import TrialSpec
from repro.experiments.runner import measure

__all__ = ["TradeoffPoint", "run_tradeoff"]


@dataclass(frozen=True, slots=True)
class TradeoffPoint:
    """Measurements and bounds at one exponent k.

    ``time_under_isolation`` is the *normalised* T (Definition II.4);
    note the adversary pays its own delay into the normaliser
    (delta = tau^k), so T stays roughly flat in k while
    ``steps_under_isolation`` — the raw T_end in global steps, i.e.
    wall-clock — grows geometrically with k. The exponential flavour
    of the theorem's trade-off is a wall-clock statement.
    """

    k: int
    alpha: int
    time_under_isolation: RunStatistics  # T under strategy 2.k.0
    steps_under_isolation: RunStatistics  # raw T_end under strategy 2.k.0
    messages_under_delay: RunStatistics  # M under strategy 2.k.1
    bounds: Theorem1Bounds


def run_tradeoff(
    protocol: str,
    *,
    n: int,
    f: int,
    tau: int,
    k_values: tuple[int, ...] = (1, 2, 3),
    seeds: tuple[int, ...] = tuple(range(10)),
    max_steps: int = 20_000_000,
    campaign=None,
) -> list[TradeoffPoint]:
    """Measure the trade-off frontier for one protocol.

    Use a small ``tau`` (e.g. 3 or 4): the wall scales as
    ``F/2 * tau^k`` global steps, so large tau with k >= 2 makes runs
    astronomically long — which is the theorem's point, but not a
    useful way to spend a benchmark budget.

    The whole (k, seed, strategy) grid is one :func:`measure` call, so
    a parallel campaign overlaps the slow high-k isolation runs with
    everything else.
    """
    if tau <= 1:
        raise ConfigurationError(f"tau must be > 1, got {tau}")

    def spec(k: int, variant: int, seed: int) -> TrialSpec:
        return TrialSpec(
            protocol=protocol,
            adversary=f"str-2.{k}.{variant}",
            n=n,
            f=f,
            seed=seed,
            max_steps=max_steps,
            adversary_kwargs=(("tau", tau),),
        )

    cells = [
        ((k, variant), spec(k, variant, seed))
        for k in k_values
        for seed in seeds
        for variant in (0, 1)
    ]
    measured = measure(cells, campaign)

    points = []
    for k in k_values:
        iso = measured[(k, 0)]
        dly = measured[(k, 1)]
        alpha = max(1, -(-(tau**k) // max(1, f)))  # ceil(tau^k / F)
        points.append(
            TradeoffPoint(
                k=k,
                alpha=alpha,
                time_under_isolation=aggregate_outcomes(iso, allow_truncated=True)[1],
                steps_under_isolation=aggregate_runs([float(o.t_end) for o in iso]),
                messages_under_delay=aggregate_outcomes(dly, allow_truncated=True)[0],
                bounds=theorem1_lower_bounds(n, f, alpha=alpha, tau=tau),
            )
        )
    return points
