"""The scalar oracle backend: one reference Simulator per trial.

This is the engine that runs every spec, and the one the batch engine
is measured against — the single place a :class:`~repro.experiments.config.
TrialSpec` is turned into a live protocol/adversary pair and a
:class:`~repro.sim.engine.Simulator`. ``experiments.runner.run_trial``
and the campaign pool both delegate here, so there is exactly one
spec→Outcome construction path in the codebase.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.config import TrialSpec
from repro.sim.outcome import Outcome

__all__ = ["ScalarBackend"]


class ScalarBackend:
    """Wraps the reference engine; accepts every spec."""

    def run_one(self, spec: TrialSpec, *, metrics=None) -> Outcome:
        """Build and run one Simulator from *spec* (the oracle path)."""
        from repro.core.registry import make_adversary
        from repro.protocols.registry import make_protocol
        from repro.sim.engine import Simulator

        protocol = make_protocol(spec.protocol, **dict(spec.protocol_kwargs))
        adversary = make_adversary(spec.adversary, **dict(spec.adversary_kwargs))
        sim = Simulator(
            protocol,
            adversary,
            n=spec.n,
            f=spec.f,
            seed=spec.seed,
            max_steps=spec.max_steps,
            environment=spec.environment,
            sanitize=spec.sanitize,
            metrics=metrics,
            topology=spec.topology,
        )
        return sim.run()

    def run_batch(
        self, specs: Sequence[TrialSpec], *, metrics=None
    ) -> list[Outcome]:
        return [self.run_one(spec, metrics=metrics) for spec in specs]
