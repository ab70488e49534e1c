"""Chaos harness: fault injection, supervised execution, store surgery.

The paper studies an adversary that degrades a distributed system;
this package points the same adversarial mindset at our *own*
execution infrastructure (docs/ROBUSTNESS.md):

- :mod:`repro.chaos.plan` — declarative, seeded :class:`FaultPlan`:
  every injection decision is a pure function of (plan seed, site,
  trial identity, attempt), so faulted campaigns replay exactly;
- :mod:`repro.chaos.inject` — the :class:`FaultInjector` hook plane
  the campaign layer arms (worker kills, transient exceptions, fsync
  failures, torn store tails, starved pools);
- :mod:`repro.chaos.supervisor` — :class:`Supervisor` +
  :class:`RetryPolicy`: bounded retries with exponential backoff and
  deterministic jitter, each retry run inline in the supervising
  process, and a quarantine ledger so deterministic failures end a
  campaign *degraded*, never aborted;
- :mod:`repro.chaos.doctor` — ``repro-ugf doctor``: scan a run
  directory for torn tails, bad content addresses and undecodable
  payloads (read-only); ``--repair`` heals and compacts.

The headline contract, pinned by ``tests/chaos``: under every shipped
fault plan (:func:`shipped_plans`) a supervised campaign converges to
a trial store byte-identical at the outcome-wire level to a fault-free
run.
"""

from repro.chaos.doctor import DoctorFinding, DoctorReport, diagnose
from repro.chaos.inject import FaultInjector, tear_tail
from repro.chaos.plan import (
    FAULT_SITES,
    SERVICE_FAULT_SITES,
    ChaosFault,
    FaultPlan,
    FaultRule,
    InjectedFsyncError,
    InjectedPoisonError,
    InjectedTransientError,
    shipped_plans,
    shipped_service_plans,
)
from repro.chaos.supervisor import (
    DEFAULT_TRANSIENT_ERRORS,
    QUARANTINE_FILENAME,
    QuarantineLedger,
    QuarantineRecord,
    RetryPolicy,
    SupervisedRun,
    Supervisor,
    quarantine_path,
    read_quarantine,
)

__all__ = [
    "FAULT_SITES",
    "SERVICE_FAULT_SITES",
    "ChaosFault",
    "FaultPlan",
    "FaultRule",
    "FaultInjector",
    "InjectedFsyncError",
    "InjectedPoisonError",
    "InjectedTransientError",
    "shipped_plans",
    "shipped_service_plans",
    "tear_tail",
    "DEFAULT_TRANSIENT_ERRORS",
    "QUARANTINE_FILENAME",
    "QuarantineLedger",
    "QuarantineRecord",
    "RetryPolicy",
    "SupervisedRun",
    "Supervisor",
    "quarantine_path",
    "read_quarantine",
    "DoctorFinding",
    "DoctorReport",
    "diagnose",
]
