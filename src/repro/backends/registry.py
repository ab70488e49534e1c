"""The routing rule: which engine runs a trial, stated once.

:func:`route` maps a (spec, mode) pair to an engine name for the
campaign router, ``experiments.runner.run_trial`` and ``repro-ugf
backends`` alike. Modes:

- ``"scalar"`` — the reference engine, for everything.
- ``"batch"`` — the vectorized engine; an ineligible spec routes
  nowhere (its caller fails the trial with the reason).
- ``"auto"`` — batch where eligible, scalar otherwise (the default
  for campaigns; single-trial ``run_trial`` defaults to scalar).
"""

from __future__ import annotations

from repro.backends.batch import BatchBackend, why_ineligible
from repro.backends.scalar import ScalarBackend
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.config import TrialSpec

__all__ = ["BACKEND_MODES", "get_backend", "route"]

#: Valid values for every ``--backend`` flag / ``Campaign(backend=...)``.
BACKEND_MODES = ("auto", "scalar", "batch")

_ENGINES = {"batch": BatchBackend(), "scalar": ScalarBackend()}


def get_backend(name: str) -> "BatchBackend | ScalarBackend":
    """The engine *name* (``"batch"`` or ``"scalar"``)."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise SimulationError(
            f"unknown backend {name!r} (known: batch, scalar)"
        ) from None


def route(
    spec: TrialSpec, mode: str, *, metrics=None
) -> tuple[str | None, str | None]:
    """``(engine, reason)``: the engine *mode* sends *spec* to, and why
    the batch engine declined it when it did.

    The engine is None only for a forced ``batch`` on an ineligible
    spec. Runs for every cache miss: the verdict is memoized per cell
    (*metrics* counts the hits as ``backends.eligibility_memo_hits``).
    """
    if mode not in BACKEND_MODES:
        raise ConfigurationError(
            f"unknown backend mode {mode!r} (expected one of {BACKEND_MODES})"
        )
    if mode == "scalar":
        return "scalar", None
    reason = why_ineligible(spec, metrics=metrics)
    if reason is None:
        return "batch", None
    return ("scalar" if mode == "auto" else None), reason
