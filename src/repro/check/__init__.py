"""``repro.check`` — execution-model sanitizer and theorem auditor.

The paper's guarantees (Theorem 1, Lemmas 1-3) hold only if the
simulator faithfully implements the §II execution model. This package
makes that a *checked* property rather than a believed one, at three
layers:

- **online monitors** (:mod:`repro.check.monitors`,
  :mod:`repro.check.sanitizer`): pluggable invariant checkers attached
  to the engine through a kernel hook point, validating per step that
  deliveries respect ``d_rho``, local steps respect ``delta_rho``,
  crashes respect ``F``, adversary retimings respect their declared
  bounds, knowledge grows monotonically and outcome counters agree
  with the event stream — with ``off``/``warn``/``strict`` modes;
- **offline replay auditing** (:mod:`repro.check.audit`): replay the
  campaign trial cache through the monitors and re-verify each cached
  outcome bit-for-bit;
- **theorem auditing** (:mod:`repro.check.theorem`): classify each
  aggregated sweep cell against Theorem 1's ``Omega(alpha F)`` time /
  ``Omega(N + F^2/log_tau^2(alpha F))`` message lower bounds.

See ``docs/SANITIZER.md`` for the invariant-by-invariant reference.
"""

from repro.campaign.keys import spec_from_fingerprint
from repro.check.audit import CacheAudit, RecordAudit, audit_cache
from repro.check.config import (
    ENV_SANITIZE,
    MODES,
    MONITOR_PRESETS,
    SanitizerConfig,
    resolve_config,
)
from repro.check.monitors import (
    MONITORS,
    BudgetMonitor,
    CadenceMonitor,
    CountersMonitor,
    DeliveryMonitor,
    KnowledgeMonitor,
    LegalityMonitor,
    Monitor,
    preset_monitors,
)
from repro.check.sanitizer import Sanitizer, build_sanitizer
from repro.check.theorem import CellVerdict, audit_theorem1, theorem_table
from repro.check.violations import SanitizerReport, Violation

__all__ = [
    "ENV_SANITIZE",
    "MODES",
    "MONITOR_PRESETS",
    "MONITORS",
    "SanitizerConfig",
    "resolve_config",
    "Monitor",
    "DeliveryMonitor",
    "CadenceMonitor",
    "BudgetMonitor",
    "LegalityMonitor",
    "KnowledgeMonitor",
    "CountersMonitor",
    "preset_monitors",
    "Sanitizer",
    "build_sanitizer",
    "SanitizerReport",
    "Violation",
    "CacheAudit",
    "RecordAudit",
    "audit_cache",
    "spec_from_fingerprint",
    "CellVerdict",
    "audit_theorem1",
    "theorem_table",
]
