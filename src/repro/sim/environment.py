"""System environments: baseline timing heterogeneity.

The paper's model is partially synchronous: local-step durations and
delivery times are per-process, unknown, finite (§II-A), and only the
adversary's *changes* to them are part of the attack. The default
environment is the homogeneous one used in the paper's experiments
(everything 1), but the model explicitly allows heterogeneity, so the
kernel accepts an environment that sets per-process baseline timings
before the adversary's setup.

This enables the robustness experiment the paper's model invites but
its evaluation omits: does UGF still disrupt when the substrate itself
is already heterogeneous? (The ``heterogeneity`` claim of ``repro-ugf
report``.)

Note on Algorithm 1's ``d_rho <- 1; delta_rho <- 1`` line: in the
paper that line *initialises* the homogeneous experimental setting; it
is not an attack step (an adversary that begins by speeding the whole
system up would be helping it). We therefore keep environment-set
baselines in place and let UGF's strategies slow its chosen group
relative to them.
"""

from __future__ import annotations

from typing import Callable, Protocol

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.timing import TimingTable

__all__ = ["Environment", "homogeneous", "UniformTimingJitter", "make_environment"]


class Environment(Protocol):
    """Configures baseline timings; called once before adversary setup."""

    def apply(self, timing: TimingTable, rng: np.random.Generator) -> None: ...


class _Homogeneous:
    """The paper's experimental setting: all timings equal 1."""

    def apply(self, timing: TimingTable, rng: np.random.Generator) -> None:
        return  # the table is initialised to 1s already


def homogeneous() -> _Homogeneous:
    """The default environment (delta_rho = d_rho = 1 for all rho)."""
    return _Homogeneous()


class UniformTimingJitter:
    """Independent uniform baseline timings.

    Each process draws ``delta_rho ~ U{1..max_delta}`` and
    ``d_rho ~ U{1..max_d}`` from the environment RNG stream. The
    complexity normaliser ``delta + d`` (Definition II.4) picks the
    realised maxima up automatically through the timing table.
    """

    def __init__(self, max_delta: int = 3, max_d: int = 3) -> None:
        if max_delta < 1 or max_d < 1:
            raise ConfigurationError(
                f"jitter bounds must be >= 1, got max_delta={max_delta}, max_d={max_d}"
            )
        self.max_delta = max_delta
        self.max_d = max_d

    def apply(self, timing: TimingTable, rng: np.random.Generator) -> None:
        deltas = rng.integers(1, self.max_delta + 1, size=timing.n)
        ds = rng.integers(1, self.max_d + 1, size=timing.n)
        for rho in range(timing.n):
            timing.set_local_step_time(rho, int(deltas[rho]))
            timing.set_delivery_time(rho, int(ds[rho]))


def make_environment(spec: str | Environment | None) -> Environment:
    """Resolve an environment from a spec.

    Accepts an :class:`Environment` instance, ``None``/"homogeneous"
    for the default, or ``"jitter"``/``"jitter:<max_delta>,<max_d>"``.
    """
    if spec is None or spec == "homogeneous":
        return homogeneous()
    if isinstance(spec, str):
        if spec == "jitter":
            return UniformTimingJitter()
        if spec.startswith("jitter:"):
            try:
                a, b = spec.split(":", 1)[1].split(",")
                return UniformTimingJitter(int(a), int(b))
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad jitter spec {spec!r}; expected 'jitter:<max_delta>,<max_d>'"
                ) from exc
        raise ConfigurationError(f"unknown environment spec {spec!r}")
    return spec
