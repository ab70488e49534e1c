"""Vectorized numpy batch backend (a package of cooperating kernels).

Advances hundreds of trials at once for the protocol×adversary cells
whose dynamics one vectorized engine can replay *exactly*:
:func:`~repro.backends.batch.engine.run_cell` runs every batch cell —
the deterministic reference protocols (``flood``, ``round-robin``) and
the randomized ones (``push``, ``pull``, ``push-pull``,
``hedged-push-pull``, ``ears``, ``sears``) alike, under every
registered adversary (``ugf`` and the ``str-2.<k>.<l>`` family replayed
at setup, the observers ``informed`` and ``greedy-oracle`` as mid-run
hooks over the live grids), on the clique and — for the kernels that
draw through a candidate mask — on the static contact graphs, whose
per-trial adjacency is one more factor of that mask (the *reach
mask*). Protocols are kernels
(:mod:`~repro.backends.batch.kernels`); per-step protocol draws go
through the RNG replay plane (:mod:`~repro.backends.batch.rng`) in
scalar draw order — ``integers`` as ``bounded``, hedged-push-pull's
``choice`` without replacement as ``sample``, both rebuilt from raw
PCG64 words — seeded only when a kernel first draws; adversary
setup draws, retimes and mid-run hooks are compiled into plans
(:mod:`~repro.backends.batch.adversaries`); in-flight messages live in
one COO pool (:mod:`~repro.backends.batch.waves`) where an all-send is
a single broadcast entry. Zero-draw kernels sustain the ≥10× floor
(typically 15–300×); kernels that draw hold ≥5× over the oracle. A
cell too large for the byte budget runs as sub-batches, and a
sub-batch that still runs out of memory is halved and retried here
rather than handed to the scalar engine.

The eligibility rule (and the narrowest-reason rejection discipline)
lives in :mod:`~repro.backends.batch.eligibility`, which reads the
kernel and plan tables; verdicts are memoized per cell for
:func:`~repro.backends.registry.route`.

**Equivalence.** Outcomes are byte-identical at the wire level to the
scalar oracle for every eligible cell — the differential battery in
``tests/backends/`` pins the full grid, and the seeded draw-order
property test pins the replay plane draw-for-draw.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.backends.batch.eligibility import (
    BATCH_ADVERSARIES,
    BATCH_PROTOCOLS,
    clear_eligibility_memo,
    eligibility_grid,
    format_grid,
    topology_grid,
    why_ineligible,
)
from repro.backends.batch.engine import run_cell
from repro.backends.batch.kernels import trial_bytes
from repro.errors import SimulationError
from repro.experiments.config import TrialSpec
from repro.sim.outcome import Outcome

__all__ = [
    "BatchBackend",
    "BATCH_PROTOCOLS",
    "BATCH_ADVERSARIES",
    "why_ineligible",
    "clear_eligibility_memo",
    "eligibility_grid",
    "format_grid",
    "topology_grid",
]


#: What one ``run_cell`` call may hold (see ``kernels.trial_bytes``): a
#: cell with more seeds than fit runs as consecutive sub-batches.
_RUN_BYTES = 1 << 30


def _run_halving(spec0: TrialSpec, seeds: list[int]) -> list[Outcome]:
    """``run_cell``, and on ``MemoryError`` its two halves, down to one
    trial: trials are independent, so the wires are those of the one
    call, and the scalar engine on a cell too big for the budget's
    estimate is no fallback (EARS at N=500 is hours)."""
    try:
        return run_cell(spec0, seeds)
    except MemoryError:
        if len(seeds) == 1:
            raise
    half = len(seeds) // 2
    return _run_halving(spec0, seeds[:half]) + _run_halving(spec0, seeds[half:])


class BatchBackend:
    """The vectorized engine behind ``--backend batch`` / auto routing."""

    def run_batch(
        self, specs: Sequence[TrialSpec], *, metrics=None
    ) -> list[Outcome]:
        specs = list(specs)
        for spec in specs:
            reason = why_ineligible(spec)
            if reason is not None:
                raise SimulationError(
                    f"spec is not batch-eligible: {reason} ({spec})"
                )
        t0 = time.perf_counter() if metrics is not None else 0.0
        # Group by cell: trials of a cell differ only by seed and share
        # every state array; distinct cells vectorize independently, and
        # so do the trials of one — which is what lets a cell too large
        # for the byte budget run as sub-batches, wires unchanged.
        groups: dict[tuple, list[tuple[int, TrialSpec]]] = {}
        for idx, spec in enumerate(specs):
            key = (
                spec.protocol, spec.adversary, spec.n, spec.f, spec.max_steps,
                spec.topology,
            )
            groups.setdefault(key, []).append((idx, spec))
        results: list[Outcome | None] = [None] * len(specs)
        for members in groups.values():
            spec0 = members[0][1]
            step = max(1, _RUN_BYTES // trial_bytes(spec0.protocol, spec0.n))
            for lo in range(0, len(members), step):
                part = members[lo : lo + step]
                seeds = [spec.seed for _, spec in part]
                for (idx, _), outcome in zip(part, _run_halving(spec0, seeds)):
                    results[idx] = outcome
        if metrics is not None:
            metrics.observe_span("backend.batch.run", time.perf_counter() - t0)
            metrics.count("backend.batch.trials", len(specs))
            metrics.count("backend.batch.cells", len(groups))
        assert all(o is not None for o in results)
        return results  # type: ignore[return-value]
