"""Future-work extension (§VII): does information help the adversary?

The paper asks "whether some realistic additional information about
the gossip could improve the performance of our algorithm". This
module implements the cheapest realistic informant: a short traffic
probe. The adversary watches the first few global steps of the
dissemination — observing only *how many* messages fly, the same
observable a network tap would give — and then commits to the strategy
family the paper's evaluation found most damaging for that traffic
profile:

- **chatty** protocols (many sends per awake process per step — the
  SEARS profile) are hit with the message attack, Strategy 2.k.l;
- **terse** protocols (about one send per process per step — the EARS
  profile) are hit with the isolation time attack, Strategy 2.k.0,
  whose wall is exactly as long as the survivor's send rate is low;
- **bursty-interactive** profiles in between (the Push-Pull shape,
  whose sleep rule forces contact with every process) are hit with
  Strategy 1.

Unlike UGF this adversary is *not* covered by the universality
theorem — a protocol aware of the heuristic could shape its first
steps to mislead it; the probe also burns steps in which nothing is
attacked. The ``informed`` claim of ``experiments/claims.py``
measures whether the information pays for the lost universality, which
is precisely the paper's open question made concrete.
"""

from __future__ import annotations

import numpy as np

from repro.core.adversary import Adversary, AdversaryControls, DeclaredControls
from repro.core.strategies import (
    CrashGroupStrategy,
    DelayGroupStrategy,
    IsolateSurvivorStrategy,
    sample_group,
)
from repro.errors import ConfigurationError
from repro.sim.observer import SystemView

__all__ = ["InformedGossipFighter"]


class InformedGossipFighter(Adversary):
    """Probe the traffic profile, then commit to one strategy."""

    name = "informed"

    def __init__(
        self,
        *,
        probe_steps: int = 3,
        chatty_threshold: float = 3.0,
        terse_threshold: float = 1.2,
        tau: int | None = None,
    ) -> None:
        if probe_steps < 1:
            raise ConfigurationError(f"probe_steps must be >= 1, got {probe_steps}")
        if not 0 < terse_threshold <= chatty_threshold:
            raise ConfigurationError(
                "need 0 < terse_threshold <= chatty_threshold, got "
                f"{terse_threshold} and {chatty_threshold}"
            )
        self.probe_steps = probe_steps
        self.chatty_threshold = chatty_threshold
        self.terse_threshold = terse_threshold
        self.tau = tau
        self.rng: np.random.Generator | None = None
        self._group: np.ndarray | None = None
        self._observed_steps = 0
        self._observed_sends = 0
        self._inner: Adversary | None = None
        #: Diagnostics: the measured rate and the committed strategy name.
        self.measured_rate: float | None = None

    def seed_with(self, rng: np.random.Generator) -> None:
        self.rng = rng

    @property
    def committed(self) -> str | None:
        return self._inner.name if self._inner is not None else None

    def setup(self, view: SystemView, controls: AdversaryControls) -> None:
        if self.rng is None:
            raise ConfigurationError(
                "InformedGossipFighter needs an RNG; the engine calls seed_with"
            )
        # Pick C up front like UGF; the probe only decides what to do
        # *to* it.
        self._group = sample_group(self.rng, view.n, view.f)

    def after_step(self, view: SystemView, controls: AdversaryControls) -> None:
        if self._inner is not None:
            self._inner.after_step(view, controls)
            return
        self._observed_steps += 1
        self._observed_sends += len(view.sends_this_step)
        if self._observed_steps < self.probe_steps:
            return
        # Commit. Rate = sends per correct process per observed step.
        alive = max(1, int(view.correct_mask.sum()))
        rate = self._observed_sends / (self._observed_steps * alive)
        self.measured_rate = rate
        if rate >= self.chatty_threshold:
            inner: Adversary = DelayGroupStrategy(
                1, 1, tau=self.tau, group=self._group
            )
        elif rate <= self.terse_threshold:
            inner = IsolateSurvivorStrategy(1, tau=self.tau, group=self._group)
        else:
            inner = CrashGroupStrategy(tau=self.tau, group=self._group)
        inner.seed_with(self.rng)  # type: ignore[attr-defined]
        self._inner = inner
        inner.setup(view, controls)

    def declared_controls(self) -> "DeclaredControls | None":
        # Nothing is promised until the probe commits; the sanitizer
        # re-queries at each retiming, so the post-commit declaration
        # is in force exactly when the attack starts.
        if self._inner is None:
            return None
        return self._inner.declared_controls()
