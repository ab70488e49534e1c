"""Declarative, seeded fault plans.

A :class:`FaultPlan` describes *which* faults the chaos harness should
inject and *where*, without any reference to runtime state: every
injection decision is a pure function of ``(plan seed, site, trial
identity, attempt)``, computed by hashing — no RNG object travels with
the plan, so a plan pickles across the worker-pool boundary and two
processes asking the same question get the same answer. That
determinism is what the differential chaos battery rests on: replaying
a faulted campaign replays exactly the same faults.

Sites (the strings :class:`FaultRule` accepts) name the hook points
the injector (:mod:`repro.chaos.inject`) arms:

- ``trial.exception`` — raise a *transient* exception inside trial
  execution (clears on retry once ``attempt`` passes the rule's
  ``attempts`` window);
- ``trial.poison`` — raise a *deterministic* exception on every
  attempt (the quarantine path's test subject);
- ``worker.kill`` — ``SIGKILL`` the executing worker process
  mid-chunk (never fires in the campaign's own process, so inline
  recovery always makes progress);
- ``worker.starve`` — stall the executing worker before a trial,
  simulating a starved pool (same own-process guard);
- ``store.fsync`` — fail ``fsync`` of a trial-store append with an
  injected ``OSError`` (the store's bounded retry absorbs it);
- ``store.tear`` — truncate the store mid-record after an append, the
  on-disk state a ``kill -9`` during a write leaves behind.

The service sites — ``service.conn_refuse``, ``service.conn_drop``,
``service.frame_tear``, ``service.slow_peer`` and
``service.daemon_kill`` — point the same contract at the campaign
daemon's network boundary (docs/SERVICE.md "Failure model"): each acts
on the bytes one connection carries, at either end, through a
:class:`~repro.chaos.inject.FaultedLink`.

Retries are modelled through the plan, not around it: the supervisor
re-dispatches failed trials under ``plan.with_attempt(n)``, so a rule
with ``attempts=1`` fires on the first attempt and stays quiet on the
retry — a transient fault by construction — while ``attempts=None``
fires forever — a deterministic fault that must end in quarantine.
Service sites have no retry dimension: both ends substitute a
monotone per-site event index, so ``attempts=N`` service rules fire on
the first N chances and then recover deterministically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any

from repro.errors import ConfigurationError

__all__ = [
    "FAULT_SITES",
    "SERVICE_FAULT_SITES",
    "FaultRule",
    "FaultPlan",
    "ChaosFault",
    "InjectedTransientError",
    "InjectedPoisonError",
    "InjectedFsyncError",
    "shipped_plans",
    "shipped_service_plans",
]

#: Fault sites at the campaign-service network boundary (docs/SERVICE.md).
SERVICE_FAULT_SITES = frozenset(
    {
        "service.conn_refuse",
        "service.conn_drop",
        "service.frame_tear",
        "service.slow_peer",
        "service.daemon_kill",
    }
)

#: Every hook point a rule may arm; anything else is a typo we refuse.
FAULT_SITES = (
    frozenset(
        {
            "trial.exception",
            "trial.poison",
            "worker.kill",
            "worker.starve",
            "store.fsync",
            "store.tear",
        }
    )
    | SERVICE_FAULT_SITES
)

#: Sites that must never fire in the process that owns the campaign
#: (killing or stalling it would turn recovery tests into hangs).
_WORKER_ONLY_SITES = frozenset({"worker.kill", "worker.starve"})


class ChaosFault(Exception):
    """Base class for every injected failure (never raised by real code)."""


class InjectedTransientError(ChaosFault):
    """An injected failure that clears on retry."""


class InjectedPoisonError(ChaosFault):
    """An injected failure that repeats on every attempt."""


class InjectedFsyncError(ChaosFault, OSError):
    """An injected ``fsync`` failure (an ``OSError``, like the real thing)."""


def _draw(seed: int, site: str, token: str, attempt: int) -> float:
    """Deterministic uniform draw in [0, 1) for one injection question.

    SHA-256 over the question's coordinates, reduced to 8 bytes: stable
    across processes, platforms and Python hash randomisation.
    """
    payload = f"{seed}:{site}:{token}:{attempt}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True, slots=True)
class FaultRule:
    """One armed fault site.

    Parameters
    ----------
    site:
        Hook point (one of :data:`FAULT_SITES`).
    rate:
        Probability that an eligible event fires, drawn
        deterministically per (seed, site, token, attempt).
    attempts:
        Fire only while ``attempt < attempts``; ``None`` fires on every
        attempt (a deterministic fault). The default of 1 makes rules
        transient: they hit first execution, clear on the first retry.
    seeds:
        Restrict trial-targeted sites to specs with these seeds
        (``None`` = all trials). Ignored by store sites, whose events
        carry an append index instead of a spec.
    delay:
        ``worker.starve`` / ``service.slow_peer``: how long (seconds)
        the stall lasts. ``service.*`` busy rejections reuse it as the
        retry hint.
    """

    site: str
    rate: float = 1.0
    attempts: int | None = 1
    seeds: tuple[int, ...] | None = None
    delay: float = 0.25

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r} (known: {sorted(FAULT_SITES)})"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(
                f"fault rate must be in [0, 1], got {self.rate}"
            )
        if self.attempts is not None and self.attempts < 1:
            raise ConfigurationError(
                f"attempts must be >= 1 or None, got {self.attempts}"
            )
        if self.delay < 0:
            raise ConfigurationError(f"delay must be >= 0, got {self.delay}")

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {"site": self.site, "rate": self.rate}
        if self.attempts != 1:
            record["attempts"] = self.attempts
        if self.seeds is not None:
            record["seeds"] = list(self.seeds)
        if self.delay != 0.25:
            record["delay"] = self.delay
        return record

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "FaultRule":
        known = {"site", "rate", "attempts", "seeds", "delay"}
        unknown = set(record) - known
        if unknown:
            raise ConfigurationError(
                f"unknown fault-rule fields {sorted(unknown)} (known: {sorted(known)})"
            )
        kwargs = dict(record)
        if "seeds" in kwargs and kwargs["seeds"] is not None:
            kwargs["seeds"] = tuple(int(s) for s in kwargs["seeds"])
        return cls(**kwargs)


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A seeded set of fault rules, plus the retry attempt it is for.

    Plans are immutable and picklable; the supervisor derives per-retry
    plans with :meth:`with_attempt` and the pool passes the plan to
    workers, which rebuild their own injector from it.

    ``origin_pid`` is stamped by the campaign when it arms the plan:
    worker-only sites (kill, starve) compare it against ``os.getpid()``
    and stay quiet in the owning process, so inline degradation always
    terminates.
    """

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()
    attempt: int = 0
    origin_pid: int | None = None
    name: str = "unnamed"

    def with_attempt(self, attempt: int) -> "FaultPlan":
        return replace(self, attempt=attempt)

    def with_origin(self, pid: int) -> "FaultPlan":
        return replace(self, origin_pid=pid)

    def rules_for(self, site: str) -> tuple[FaultRule, ...]:
        return tuple(r for r in self.rules if r.site == site)

    def fires(
        self,
        rule: FaultRule,
        token: str,
        *,
        pid: int | None = None,
        attempt: int | None = None,
    ) -> bool:
        """Does *rule* fire for the event identified by *token*?

        Pure: same plan (seed + attempt), same token → same answer in
        every process. ``pid`` is the asking process, used only by the
        worker-only guard; *attempt* overrides the plan's attempt for
        sites with their own retry dimension (the store's fsync loop).
        """
        if attempt is None:
            attempt = self.attempt
        if rule.attempts is not None and attempt >= rule.attempts:
            return False
        if (
            rule.site in _WORKER_ONLY_SITES
            and self.origin_pid is not None
            and pid == self.origin_pid
        ):
            return False
        return _draw(self.seed, rule.site, token, attempt) < rule.rate

    # -- serialisation (the CLI's --fault-plan file) -----------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "v": 1,
            "name": self.name,
            "seed": self.seed,
            "rules": [r.to_dict() for r in self.rules],
        }

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "FaultPlan":
        if not isinstance(record, dict) or "rules" not in record:
            raise ConfigurationError(
                "a fault plan is an object with a 'rules' array "
                "(see docs/ROBUSTNESS.md)"
            )
        version = record.get("v", 1)
        if version != 1:
            raise ConfigurationError(f"unsupported fault-plan version {version!r}")
        return cls(
            seed=int(record.get("seed", 0)),
            rules=tuple(FaultRule.from_dict(r) for r in record["rules"]),
            name=str(record.get("name", "unnamed")),
        )

    @classmethod
    def load(cls, path) -> "FaultPlan":
        """Read a plan from a JSON file (the CLI's ``--fault-plan``)."""
        import pathlib

        try:
            text = pathlib.Path(path).read_text(encoding="utf-8")
            record = json.loads(text)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read fault plan {path}: {exc}") from exc
        return cls.from_dict(record)


def shipped_plans() -> dict[str, FaultPlan]:
    """The named plans the differential chaos battery runs.

    Each exercises one recovery path; every one of them must converge
    to a store byte-identical (at the outcome-wire level) with a
    fault-free run. ``poison`` is the exception that proves the other
    rule: it must end in quarantine — completed and degraded, never
    aborted.
    """
    return {
        "worker-kill": FaultPlan(
            seed=11,
            name="worker-kill",
            rules=(FaultRule(site="worker.kill", rate=1.0, seeds=(1,)),),
        ),
        "transient-exception": FaultPlan(
            seed=13,
            name="transient-exception",
            rules=(FaultRule(site="trial.exception", rate=0.5),),
        ),
        "fsync-failure": FaultPlan(
            seed=17,
            name="fsync-failure",
            rules=(FaultRule(site="store.fsync", rate=1.0, attempts=2),),
        ),
        "torn-tail": FaultPlan(
            seed=19,
            name="torn-tail",
            rules=(FaultRule(site="store.tear", rate=1.0),),
        ),
        "pool-starvation": FaultPlan(
            seed=23,
            name="pool-starvation",
            rules=(FaultRule(site="worker.starve", rate=1.0, attempts=None, delay=30.0),),
        ),
        "poison": FaultPlan(
            seed=29,
            name="poison",
            rules=(FaultRule(site="trial.poison", rate=1.0, attempts=None, seeds=(0,)),),
        ),
    }


def shipped_service_plans() -> dict[str, FaultPlan]:
    """The named plans the service chaos battery runs.

    One plan per service fault site, each transient by construction
    (``attempts=1``: the fault hits the first chance it gets, then
    clears) except ``daemon-kill``, which is unrecoverable on the
    remote path and must end in a clean local fallback. Under every one
    of these, a ``--cache-url`` sweep must complete with outcome wires
    byte-identical to a fault-free local run
    (``tests/service/test_chaos_battery.py``).
    """
    return {
        "conn-refuse": FaultPlan(
            seed=31,
            name="conn-refuse",
            rules=(FaultRule(site="service.conn_refuse", rate=1.0, attempts=1),),
        ),
        "conn-drop": FaultPlan(
            seed=37,
            name="conn-drop",
            rules=(FaultRule(site="service.conn_drop", rate=1.0, attempts=1),),
        ),
        "frame-tear": FaultPlan(
            seed=41,
            name="frame-tear",
            rules=(FaultRule(site="service.frame_tear", rate=1.0, attempts=1),),
        ),
        "slow-peer": FaultPlan(
            seed=43,
            name="slow-peer",
            rules=(FaultRule(site="service.slow_peer", rate=1.0, attempts=1, delay=2.0),),
        ),
        "daemon-kill": FaultPlan(
            seed=47,
            name="daemon-kill",
            rules=(FaultRule(site="service.daemon_kill", rate=1.0, attempts=1),),
        ),
    }
