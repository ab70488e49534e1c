"""The two trial-execution engines and the one rule that routes between them.

:func:`~repro.backends.registry.route` picks the engine for a spec;
see docs/BACKENDS.md for the contract both engines honour and the
eligibility rules of the vectorized batch engine.
"""

from repro.backends.batch import BatchBackend, why_ineligible
from repro.backends.registry import BACKEND_MODES, get_backend, route
from repro.backends.scalar import ScalarBackend

__all__ = [
    "ScalarBackend",
    "BatchBackend",
    "BACKEND_MODES",
    "get_backend",
    "route",
    "why_ineligible",
]
