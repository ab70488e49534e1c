"""Adversary replay plans: setup replay + scripted or state-driven mid-run hooks.

A plan is one cell's adversary compiled for the vectorized engine. It
has two halves.

**Setup replay.** Every batchable adversary draws from
``stream("adversary")`` at setup; the plan replays those draws per
trial — in the exact scalar draw order — into grids the engine reads:

- ``delta``/``d``: per-(trial, process) local-step and delivery times
  (``tau^k`` / ``tau^(k+l)`` on the controlled group, 1 elsewhere),
  with per-trial running maxima for the outcome's timing fields;
- ``setup_crashes``/``omitted``: step-0 crash sets and omission masks;
- ``schedules``/``sched_next``: the oblivious adversary's future crash
  script plus its next-wakeup step (it must force visited steps even
  when nothing else is pending);
- ``survivor``/``budget_used``: Strategy 2.k.0's isolated survivor and
  the crash budget already spent;
- ``labels``: UGF's sampled strategy per trial (``Outcome.
  strategy_label``); None for everything else, like the scalar
  engine's ``adversary.chosen`` probe.

**Mid-run hooks.** ``before_step`` / ``after_step`` are the scalar
hooks of the same names, called once per visited step for the whole
cell. They are either *scripted* (oblivious crash schedules) or a
deterministic function of what the engine hands them — this step's
frozen wave, the status grid, each trial's ``now`` and liveness, the
packed knowledge grid ``K``:

- Strategy 2.k.0 crashes the receivers of its survivor's sends while
  budget lasts (:meth:`AdversaryPlan.after_step`);
- ``greedy-oracle`` (:class:`_GreedyPlan`) crashes, from step 1 on, the
  best-informed correct awake process of every trial with budget left
  — one masked argmax over the knowledge popcounts, ties to the lowest
  pid as the scalar ``np.argmax`` over ascending candidates;
- ``informed`` (:class:`_InformedPlan`) samples its group at setup,
  counts sends over the first ``probe_steps`` visited steps, and then
  runs one of the setup replays above *at the commit step*, on the
  same generator: retimes reach only decisions taken after it (this
  step's ``next_action`` and arrival steps are already computed, as in
  the scalar engine), crashes are stamped with the commit step, and
  the 2.k.0 scan starts on the next one.

UGF replay follows Algorithm 1 exactly: group sample, the ``q1``
branch draw, the fixed ``k = l = 1`` exponents (default ``kl_mode``),
the ``q2`` branch draw, and — only for a non-empty group under
2.k.0 — the survivor pick. Empty groups (F < 2) make every strategy
degenerate exactly as the scalar classes do: no retimes, no survivor,
no draws beyond the branch coins.
"""

from __future__ import annotations

import re
from typing import Callable, Sequence

import numpy as np

from repro.backends.batch.rng import adversary_stream
from repro.backends.batch.waves import _AWAKE, _CRASHED, _NEVER, BROADCAST, Wave
from repro.core.fixed import ObliviousAdversary
from repro.core.informed import InformedGossipFighter
from repro.core.strategies import sample_group
from repro.core.ugf import UniversalGossipFighter
from repro.errors import SimulationError

__all__ = ["AdversaryPlan", "BATCH_ADVERSARIES", "build_plan", "can_replay"]

_STR2 = re.compile(r"^str-2\.(\d+)\.(\d+)$")


class AdversaryPlan:
    """One cell's fully replayed adversary (see module docstring)."""

    __slots__ = (
        "name",
        "f",
        "delta",
        "d",
        "max_delta",
        "max_d",
        "setup_crashes",
        "omitted",
        "schedules",
        "sched_ptr",
        "sched_next",
        "survivor",
        "budget_used",
        "labels",
        "_has_survivor",
    )

    def __init__(self, name: str, T: int, n: int, f: int):
        self.name = name
        self.f = f
        self.delta = np.ones((T, n), dtype=np.int64)
        self.d = np.ones((T, n), dtype=np.int64)
        self.max_delta = np.ones(T, dtype=np.int64)
        self.max_d = np.ones(T, dtype=np.int64)
        self.setup_crashes: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * T
        self.omitted = np.zeros((T, n), dtype=bool)
        self.schedules: list[list[tuple[int, list[int]]]] = [[] for _ in range(T)]
        self.sched_ptr = np.zeros(T, dtype=np.int64)
        self.sched_next = np.full(T, _NEVER, dtype=np.int64)
        self.survivor = np.full(T, -1, dtype=np.int64)
        self.budget_used = np.zeros(T, dtype=np.int64)
        self.labels: list[str | None] = [None] * T
        self._has_survivor = False

    def seal(self) -> None:
        """Finish construction: derive schedule heads and survivor flag."""
        for i, entries in enumerate(self.schedules):
            if entries:
                self.sched_next[i] = entries[0][0]
        self._has_survivor = bool((self.survivor >= 0).any())

    # ------------------------------------------------------- mid-run hooks

    def before_step(
        self,
        now: np.ndarray,
        live: np.ndarray,
        status: np.ndarray,
        crash: Callable[[int, int], None],
    ) -> None:
        """Oblivious crashes scheduled for this step (no-op otherwise)."""
        due = live & (self.sched_next == now)
        if not due.any():
            return
        for i in np.flatnonzero(due):
            _step, victims = self.schedules[i][self.sched_ptr[i]]
            for rho in victims:
                if status[i, rho] != _CRASHED:
                    crash(int(i), int(rho))
            self.sched_ptr[i] += 1
            self.sched_next[i] = (
                self.schedules[i][self.sched_ptr[i]][0]
                if self.sched_ptr[i] < len(self.schedules[i])
                else _NEVER
            )

    def after_step(
        self,
        wave: Wave | None,
        status: np.ndarray,
        crash: Callable[[int, int], None],
        now: np.ndarray,
        live: np.ndarray,
        K: np.ndarray,
    ) -> None:
        """Strategy 2.k.0's adaptive reaction, replayed on the wave COO.

        The scalar loop walks this step's sends in order, breaks when
        the budget is exhausted, and crashes each still-correct
        receiver of a survivor send. Wave entry order is the scalar
        send order (a broadcast entry standing for its sender's
        ascending-pid all-send), and a spent budget can never re-arm,
        so skipping exhausted trials below is exactly equivalent.
        """
        if wave is None or not self._has_survivor:
            return
        hits = self.survivor[wave.ti] == wave.si
        if not hits.any():
            return
        f = self.f
        used = self.budget_used
        everyone = range(status.shape[1])
        for j in np.flatnonzero(hits):
            t, s, to = int(wave.ti[j]), int(wave.si[j]), int(wave.ri[j])
            for r in everyone if to == BROADCAST else (to,):
                if used[t] >= f:
                    break
                if r != s and status[t, r] != _CRASHED:
                    crash(t, r)
                    used[t] += 1


def _apply_group_timing(
    plan: AdversaryPlan, i: int, group: np.ndarray, tau: int, k: int, l: int | None
) -> None:
    """Slow the group (``delta = tau^k``; plus ``d = tau^(k+l)`` when l)."""
    if group.size == 0:
        return
    delta = tau**k
    plan.delta[i, group] = delta
    plan.max_delta[i] = max(1, delta)
    if l is not None:
        d = tau ** (k + l)
        plan.d[i, group] = d
        plan.max_d[i] = max(1, d)


def _crash_at_setup(plan: AdversaryPlan, i: int, victims) -> None:
    plan.setup_crashes[i] = np.asarray(victims, dtype=np.int64)
    plan.budget_used[i] = len(victims)


def _isolate_survivor(plan: AdversaryPlan, i: int, rng, group, tau: int, k: int) -> None:
    """Strategy 2.k.0 (IsolateSurvivorStrategy): an empty group returns
    before retiming and before the survivor pick (no draw)."""
    if group.size == 0:
        return
    _apply_group_timing(plan, i, group, tau, k, None)
    pick = int(rng.integers(group.size))
    plan.survivor[i] = group[pick]
    _crash_at_setup(plan, i, group[group != group[pick]])


# Per-trial setup replays, ``setup(plan, i, rng, n, f)`` with *rng* the
# trial's ``stream("adversary")``. ``tau = max(2, f)`` is the paper's
# tau = F with the analysis floor of 2; other parameters are the scalar
# classes' defaults (eligibility routes pinned kwargs to the oracle).


def _setup_str1(plan, i, rng, n, f):
    _crash_at_setup(plan, i, sample_group(rng, n, f))


def _setup_omission(plan, i, rng, n, f):
    plan.omitted[i, sample_group(rng, n, f)] = True


def _setup_oblivious(plan, i, rng, n, f):
    victims = rng.choice(n, size=f, replace=False)
    steps = rng.integers(0, ObliviousAdversary().horizon, size=f)
    schedule: dict[int, list[int]] = {}
    for rho, step in zip(victims, steps):
        schedule.setdefault(int(step), []).append(int(rho))
    _crash_at_setup(plan, i, schedule.pop(0, []))
    plan.schedules[i] = sorted(schedule.items())


def _setup_ugf(plan, i, rng, n, f):
    defaults = UniversalGossipFighter()  # q1 = 1/3, q2 = 1/2, k = l = 1
    group = sample_group(rng, n, f)
    if rng.random() < defaults.q1:
        plan.labels[i] = "str-1"
        _crash_at_setup(plan, i, group)
    elif rng.random() < defaults.q2:
        plan.labels[i] = "str-2.1.0"
        _isolate_survivor(plan, i, rng, group, max(2, f), 1)
    else:
        plan.labels[i] = "str-2.1.1"
        _apply_group_timing(plan, i, group, max(2, f), 1, 1)


def _setup_str2(k: int, l: int):
    def setup(plan, i, rng, n, f):
        group = sample_group(rng, n, f)
        if l == 0:
            _isolate_survivor(plan, i, rng, group, max(2, f), k)
        else:
            _apply_group_timing(plan, i, group, max(2, f), k, l)

    return setup


def _setup_informed(plan, i, rng, n, f):
    plan.groups[i] = sample_group(rng, n, f)
    plan.rngs[i] = rng  # the commit's survivor pick continues this stream


class _GreedyPlan(AdversaryPlan):
    """``greedy-oracle``: no setup, one crash per visited step from step 1."""

    __slots__ = ()

    def after_step(self, wave, status, crash, now, live, K):
        ti = np.flatnonzero(live & (now >= 1) & (self.budget_used < self.f))
        if ti.size == 0:
            return
        state = status[ti]
        awake = state == _AWAKE  # correct and not asleep
        correct = state != _CRASHED  # never empty: F < N
        cand = np.where(awake.any(axis=1)[:, None], awake, correct)
        known = np.unpackbits(K[ti], axis=2, count=status.shape[1]).sum(
            axis=2, dtype=np.int64
        )
        crash(ti, np.where(cand, known, -1).argmax(axis=1))  # first max: lowest pid
        self.budget_used[ti] += 1


class _InformedPlan(AdversaryPlan):
    """``informed``: probe the send rate, then commit one strategy on
    the group sampled at setup. Every live trial visits a step per
    engine iteration, so the whole cell commits in the same call."""

    __slots__ = ("groups", "rngs", "_probe", "_seen", "_sends")

    def __init__(self, name: str, T: int, n: int, f: int):
        super().__init__(name, T, n, f)
        self.groups: list[np.ndarray | None] = [None] * T
        self.rngs: list[np.random.Generator | None] = [None] * T
        self._probe = InformedGossipFighter()  # probe_steps 3, thresholds 3.0 / 1.2
        self._seen = 0
        self._sends = np.zeros(T, dtype=np.int64)

    def after_step(self, wave, status, crash, now, live, K):
        probe = self._probe
        if self._seen >= probe.probe_steps:
            return super().after_step(wave, status, crash, now, live, K)
        self._seen += 1
        if wave is not None:  # only live trials send; an all-send is N - 1
            weight = np.where(wave.ri == BROADCAST, status.shape[1] - 1, 1)
            np.add.at(self._sends, wave.ti, weight)
        if self._seen < probe.probe_steps:
            return
        tau = max(2, self.f)
        for i in np.flatnonzero(live).tolist():
            alive = max(1, int((status[i] != _CRASHED).sum()))
            rate = int(self._sends[i]) / (self._seen * alive)
            if rate >= probe.chatty_threshold:
                _apply_group_timing(self, i, self.groups[i], tau, 1, 1)
            elif rate <= probe.terse_threshold:
                _isolate_survivor(self, i, self.rngs[i], self.groups[i], tau, 1)
            else:
                _crash_at_setup(self, i, self.groups[i])
            crash(i, self.setup_crashes[i])  # stamped with the commit step
        self.seal()  # the survivor scan starts on the next step


#: Named adversaries with a setup replay (None: nothing to replay); the
#: ``str-2.<k>.<l>`` family is matched by :data:`_STR2` on top.
_SETUPS = {
    "none": None,
    "str-1": _setup_str1,
    "oblivious": _setup_oblivious,
    "omission": _setup_omission,
    "ugf": _setup_ugf,
    "informed": _setup_informed,
    "greedy-oracle": None,
}
BATCH_ADVERSARIES = tuple(_SETUPS)
#: The plans whose mid-run hooks read live state (observers).
_PLANS = {"informed": _InformedPlan, "greedy-oracle": _GreedyPlan}


def can_replay(adversary: str) -> bool:
    """Whether :func:`build_plan` can compile *adversary*."""
    return adversary in _SETUPS or _STR2.match(adversary) is not None


def build_plan(
    adversary: str, seeds: Sequence[int], n: int, f: int
) -> AdversaryPlan:
    """Replay each trial's setup draws; compile the cell's plan."""
    if adversary in _SETUPS:
        setup = _SETUPS[adversary]
    else:
        m = _STR2.match(adversary)
        if m is None:
            raise SimulationError(
                f"batch backend cannot set up adversary {adversary!r}"
            )
        setup = _setup_str2(int(m.group(1)), int(m.group(2)))
    plan = _PLANS.get(adversary, AdversaryPlan)(adversary, len(seeds), n, f)
    if setup is not None:
        for i, seed in enumerate(seeds):
            setup(plan, i, adversary_stream(seed), n, f)
    plan.seal()
    return plan
