"""Non-adaptive and scripted adversaries.

The paper's related-work discussion (§VI, after [14]) contrasts the
adaptive adversary with the *oblivious* one, which fixes its entire
attack before the execution starts and is "not sufficiently powerful
to harm the dissemination". :class:`ObliviousAdversary` implements it
so the contrast can be measured (the ``oblivious/*`` claims of
``experiments/claims.py``).

:class:`ScheduledAdversary` executes an explicit user-written script of
crashes and retimings — the workhorse of the kernel's own test suite.

:class:`OmissionAdversary` sketches the paper's future-work question
("adversaries that can omit messages instead of simply delaying them"):
within a finite run, delaying a sender beyond any reachable step is
operationally an omission, so it is implemented as a delay-to-horizon
variant of Strategy 2.k.l.
"""

from __future__ import annotations

import numpy as np

from repro._typing import GlobalStep, ProcessId
from repro.core.adversary import Adversary, AdversaryControls
from repro.core.strategies import GroupStrategy
from repro.errors import ConfigurationError
from repro.sim.observer import SystemView

__all__ = ["ObliviousAdversary", "ScheduledAdversary", "OmissionAdversary"]


class ObliviousAdversary(Adversary):
    """Crashes F random processes at random pre-chosen steps.

    The schedule is drawn at setup from the adversary stream but uses
    *no* information about the execution — by construction it cannot
    adapt, which is exactly what makes it weak.
    """

    name = "oblivious"

    def __init__(self, horizon: int = 64) -> None:
        if horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
        self.horizon = horizon
        self.rng: np.random.Generator | None = None
        self._schedule: dict[GlobalStep, list[ProcessId]] = {}

    def seed_with(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def setup(self, view: SystemView, controls: AdversaryControls) -> None:
        if self.rng is None:
            raise ConfigurationError("ObliviousAdversary needs an RNG")
        victims = self.rng.choice(view.n, size=view.f, replace=False)
        steps = self.rng.integers(0, self.horizon, size=view.f)
        self._schedule = {}
        for rho, step in zip(victims, steps):
            self._schedule.setdefault(int(step), []).append(int(rho))
        # Crashes scheduled for step 0 happen during setup itself.
        for rho in self._schedule.pop(0, []):
            controls.crash(rho)

    def next_wakeup(self, after: GlobalStep) -> GlobalStep | None:
        future = [s for s in self._schedule if s > after]
        return min(future) if future else None

    def before_step(self, view: SystemView, controls: AdversaryControls) -> None:
        for rho in self._schedule.pop(view.now, []):
            if view.is_correct(rho):
                controls.crash(rho)


class ScheduledAdversary(Adversary):
    """Executes an explicit script: ``{step: [actions]}``.

    Each action is a tuple ``("crash", rho)``, ``("delta", rho, value)``
    or ``("d", rho, value)``. Step-0 actions run during setup.
    """

    name = "scheduled"

    def __init__(self, script: dict[int, list[tuple]]) -> None:
        self._script = {int(k): list(v) for k, v in script.items()}

    def _apply(self, actions: list[tuple], controls: AdversaryControls) -> None:
        for action in actions:
            op = action[0]
            if op == "crash":
                controls.crash(action[1])
            elif op == "delta":
                controls.set_local_step_time(action[1], action[2])
            elif op == "d":
                controls.set_delivery_time(action[1], action[2])
            else:
                raise ConfigurationError(f"unknown scripted action {op!r}")

    def setup(self, view: SystemView, controls: AdversaryControls) -> None:
        self._apply(self._script.pop(0, []), controls)

    def next_wakeup(self, after: GlobalStep) -> GlobalStep | None:
        future = [s for s in self._script if s > after]
        return min(future) if future else None

    def before_step(self, view: SystemView, controls: AdversaryControls) -> None:
        self._apply(self._script.pop(view.now, []), controls)


class OmissionAdversary(GroupStrategy):
    """§VII future work: silence the controlled group's messages.

    Uses the kernel's omission capability
    (:meth:`~repro.core.adversary.AdversaryControls.set_omission`) to
    suppress every message sent by C — the messages still count toward
    ``M_rho`` (they are paid for) but never travel.

    This power is **beyond Definition II.5** (a delaying adversary
    keeps ``d_rho`` finite), which is exactly the paper's open
    question: is omission strictly stronger than delay? The answer,
    measured by the ``omission`` claim of ``experiments/claims.py``: yes, and
    qualitatively so — delay attacks tax *efficiency* (quadratic
    messages, linear time) while omission defeats *correctness* (rumor
    gathering fails: the silenced processes are correct, yet their
    gossips can never arrive). Quiescence still holds for the
    crash-tolerant protocols (their coverage/patience rules give up on
    the silent group), so runs terminate and the damage is measurable.
    """

    name = "omission"

    def __init__(self, *, group=None) -> None:
        super().__init__(tau=None, group=group)

    def setup(self, view: SystemView, controls: AdversaryControls) -> None:
        self._prepare(view)
        for rho in self.group:
            controls.set_omission(int(rho), True)
