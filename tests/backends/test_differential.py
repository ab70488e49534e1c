"""The batch↔scalar differential battery (docs/BACKENDS.md).

The equivalence law is byte-level: on every eligible cell of the full
protocol×adversary grid, ``json.dumps(outcome.to_wire())`` from the
batch backend must equal the scalar oracle's, for several N and seeds.
Anything weaker ("same medians", "same gather verdict") would let the
vectorized engine drift on tie-breaking, counter accounting, or
truncation edges — exactly the bugs a rewrite introduces.
"""

import json

import pytest

from repro.backends import BatchBackend, ScalarBackend
from repro.core.registry import available_adversaries
from repro.experiments.config import TrialSpec
from repro.protocols.registry import available_protocols

SCALAR = ScalarBackend()
BATCH = BatchBackend()

# The full evaluation grid: every registered protocol against every
# concrete adversary (the str-2.<k>.<l> family contributes the two
# paper variants), 90 pairs total.
ADVERSARIES = [a for a in available_adversaries() if "<" not in a] + [
    "str-2.1.0",
    "str-2.1.1",
]
GRID = [(p, a) for p in available_protocols() for a in ADVERSARIES]

SIZES = [(2, 1), (5, 2), (9, 4), (16, 7)]
SEEDS = list(range(4))


def wire(outcome) -> str:
    return json.dumps(outcome.to_wire())


def assert_wire_identical(specs):
    """One ``run_batch`` over *specs* (one cell), byte-equal to the
    scalar oracle spec by spec; skips when the cell is not eligible."""
    verdict = BATCH.eligible(specs[0])
    if not verdict:
        pytest.skip(f"cell not batch-eligible: {verdict.reason}")
    for spec, batch_outcome in zip(specs, BATCH.run_batch(specs)):
        assert wire(batch_outcome) == wire(SCALAR.run_one(spec)), spec


def test_grid_is_the_paper_grid():
    assert len(GRID) == 90


@pytest.mark.parametrize("protocol,adversary", GRID)
def test_eligible_cells_are_wire_identical(protocol, adversary):
    """Every eligible (protocol, adversary) cell, several N, byte-equal."""
    assert_wire_identical(
        [
            TrialSpec(protocol=protocol, adversary=adversary, n=n, f=f, seed=seed)
            for n, f in SIZES
            for seed in SEEDS
        ]
    )


# Deep in-flight state: the grid above stops at N=16, where one or two
# decision steps are in flight at a time. UGF's delay strategies at the
# benchmark's sizes keep tens of waves alive at once — pull-only waves
# appended while snapshots are pending, the snapshot table reclaimed
# mid-run, repeated destinations in one delivery — none of which the
# small grid reaches. Cells are `cold_batch_rand`-shaped (f = 0.3 N),
# all seeds of a cell in one run_batch.
DEEP_CELLS = [
    (p, a) for p in ("push", "pull", "push-pull", "ears") for a in ("ugf", "str-1")
]


def deep_specs(protocol, adversary, n, seeds):
    return [
        TrialSpec(
            protocol=protocol, adversary=adversary, n=n, f=round(0.3 * n), seed=seed
        )
        for seed in seeds
    ]


@pytest.mark.parametrize("n", [40, 64])
@pytest.mark.parametrize("protocol,adversary", DEEP_CELLS)
def test_deep_inflight_cells_are_wire_identical(protocol, adversary, n):
    assert_wire_identical(deep_specs(protocol, adversary, n, range(100 + n, 105 + n)))


@pytest.mark.deep
@pytest.mark.parametrize("protocol,adversary", [("ears", "ugf"), ("pull", "ugf")])
def test_benchmark_scale_cells_are_wire_identical(protocol, adversary):
    """N=100, the benchmark's largest cell; too slow on the scalar
    oracle for tier-1 — the CI backend-differential legs run it
    (``-m deep``)."""
    assert_wire_identical(deep_specs(protocol, adversary, 100, range(7, 12)))


def test_some_cells_are_eligible():
    """The battery must not silently become vacuous: unless the
    environment pins a sanitizer (the CI sanitize job), the grid has
    batchable cells."""
    import os

    if os.environ.get("REPRO_SANITIZE"):
        pytest.skip("sanitizer pinned by environment: all cells scalar")
    eligible = [
        (p, a)
        for p, a in GRID
        if BATCH.eligible(TrialSpec(protocol=p, adversary=a, n=5, f=2, seed=0))
    ]
    # 7 vectorized protocols x (8 concrete adversaries + 2 str-2 probes
    # - 3 non-replayable) — the replay-plane engine took the grid from
    # 8 cells to the 49 of PR 8.
    assert len(eligible) >= 40


@pytest.mark.parametrize("max_steps", [1, 2, 3, 5, 64, 70])
def test_truncation_boundaries_are_wire_identical(max_steps):
    """max_steps truncation is the subtlest path: t_end freezes at the
    last *visited* step and completed stays False."""
    for protocol in ("flood", "round-robin", "push", "push-pull", "sears"):
        for adversary in ("none", "oblivious", "ugf"):
            spec = TrialSpec(
                protocol=protocol,
                adversary=adversary,
                n=9,
                f=4,
                seed=1,
                max_steps=max_steps,
            )
            if not BATCH.eligible(spec):
                pytest.skip("cell not batch-eligible here")
            assert wire(BATCH.run_batch([spec])[0]) == wire(SCALAR.run_one(spec))


# The broadcast pool entry (waves.py: an all-send is one row standing
# for "every pid but me"). Each cell names the edge it is there for and
# a predicate on the scalar outcome showing that some seed reaches it.
BROADCAST_EDGES = {
    # name: (adversary, n, f, max_steps, seeds, reached)
    # Strategy 2.k.0's survivor floods at step 0 with budget left for
    # fewer receivers than it has: the crash scan breaks mid-broadcast.
    "budget-break-2.1.0": ("str-2.1.0", 12, 5, None, 12, lambda o: len(o.crashed) == 5),
    "budget-break-2.2.0": ("str-2.2.0", 12, 5, None, 12, lambda o: len(o.crashed) == 5),
    # As few travelling senders as a spec allows (|C| = F // 2 of 3):
    # every traveller's due set is its own broadcast plus one other.
    "omission-two-travel": ("omission", 3, 2, None, 12, lambda o: o.completed),
    # A crash scheduled after the step-0 send and before the step-2
    # arrival: the receiver drops what was addressed to it alive.
    "crash-in-flight": (
        "oblivious", 9, 4, None, 12, lambda o: {1, 2} & set(o.crash_steps.values()),
    ),
    "n2": ("none", 2, 1, None, 12, lambda o: o.completed),
    # The peer crashes at step 0 in ~1 seed of 64: the lone broadcast
    # has no correct receiver, so the run is quiescent, not truncated.
    "n2-crashed-peer": ("oblivious", 2, 1, 1, 64, lambda o: o.completed and o.crashed),
    # The survivor crashes both peers at step 0, so its own broadcast
    # (arriving at 3) only has crashed receivers: pending at the
    # truncation (max_steps 1) and at quiescence (max_steps 2).
    "crashed-only-truncated": ("str-2.1.0", 3, 2, 1, 12, lambda o: not o.completed),
    "crashed-only-quiescent": ("str-2.1.0", 3, 2, 2, 12, lambda o: o.completed),
}


@pytest.mark.parametrize("edge", BROADCAST_EDGES)
def test_flood_broadcast_edges_are_wire_identical(edge):
    adversary, n, f, max_steps, seeds, reached = BROADCAST_EDGES[edge]
    limits = {} if max_steps is None else {"max_steps": max_steps}
    specs = [
        TrialSpec(protocol="flood", adversary=adversary, n=n, f=f, seed=seed, **limits)
        for seed in range(seeds)
    ]
    assert_wire_identical(specs)
    assert any(reached(SCALAR.run_one(spec)) for spec in specs)


def test_batch_is_pure_slicing():
    """A batch of one equals the corresponding slice of a mixed batch —
    no cross-trial state."""
    specs = [
        TrialSpec(protocol=p, adversary=a, n=n, f=f, seed=seed)
        for p in ("flood", "round-robin")
        for a in ("none", "str-1")
        for n, f in ((5, 2), (11, 5))
        for seed in (0, 3)
    ]
    if not all(BATCH.eligible(s) for s in specs):
        pytest.skip("cells not batch-eligible here")
    mixed = BATCH.run_batch(specs)
    for spec, from_mixed in zip(specs, mixed):
        assert wire(BATCH.run_batch([spec])[0]) == wire(from_mixed)


def test_word_boundary_n():
    """N crossing a packed-word boundary (64→65) keeps bit layouts right."""
    for adversary in ("none", "str-1"):
        spec = TrialSpec(
            protocol="round-robin", adversary=adversary, n=65, f=30, seed=2
        )
        if not BATCH.eligible(spec):
            pytest.skip("cell not batch-eligible here")
        assert wire(BATCH.run_batch([spec])[0]) == wire(SCALAR.run_one(spec))


def test_batch_validates_like_the_engine():
    """Parameter validation mirrors Simulator.__init__: same error
    type, same wording, for zero-draw and drawing kernels alike."""
    from repro.errors import ConfigurationError

    for protocol, adversary in (("flood", "none"), ("push", "ugf")):
        for bad in (
            {"n": 1, "f": 0},
            {"n": 4, "f": 4},
            {"n": 4, "f": 1, "max_steps": 0},
        ):
            spec = TrialSpec(protocol=protocol, adversary=adversary, seed=0, **bad)
            if not BATCH.eligible(spec):
                pytest.skip("cells not batch-eligible here")
            with pytest.raises(ConfigurationError) as batch_error:
                BATCH.run_batch([spec])
            with pytest.raises(ConfigurationError) as scalar_error:
                SCALAR.run_one(spec)
            assert str(batch_error.value) == str(scalar_error.value)


def test_run_batch_rejects_ineligible_specs():
    from repro.errors import SimulationError

    spec = TrialSpec(protocol="hedged-push-pull", adversary="ugf", n=5, f=1, seed=0)
    with pytest.raises(SimulationError, match="not batch-eligible"):
        BATCH.run_batch([spec])
