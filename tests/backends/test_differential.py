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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import BatchBackend, ScalarBackend
from repro.backends.batch import BATCH_PROTOCOLS
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
    # 7 vectorized protocols x all 9 columns (7 concrete adversaries +
    # 2 str-2 probes): 8 cells, then the 49 of PR 8, then the observer
    # columns (informed, greedy-oracle) of ISSUE 21.
    assert len(eligible) >= 63


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


def test_byte_budget_splits_a_cell_without_changing_wires(monkeypatch):
    """A cell whose seeds do not fit the byte budget runs as consecutive
    ``run_cell`` sub-batches (N=500 EARS asked for 2.93 GiB at once) —
    same outcomes, same order, as the one call it would otherwise be."""
    from repro.backends import batch
    from repro.backends.batch.kernels import trial_bytes

    specs = [
        TrialSpec(protocol="ears", adversary="informed", n=12, f=5, seed=seed)
        for seed in range(5)
    ] + [TrialSpec(protocol="push", adversary="ugf", n=12, f=5, seed=9)]
    if not all(BATCH.eligible(s) for s in specs):
        pytest.skip("cells not batch-eligible here")
    assert 50 * trial_bytes("ears", 500) > batch._RUN_BYTES  # that cell does split
    whole = [wire(o) for o in BATCH.run_batch(specs)]
    calls = []
    real_run_cell = batch.run_cell

    def counted_run_cell(spec0, seeds):
        calls.append(seeds)
        return real_run_cell(spec0, seeds)

    monkeypatch.setattr(batch, "run_cell", counted_run_cell)
    monkeypatch.setattr(batch, "_RUN_BYTES", 2 * trial_bytes("ears", 12))
    assert [wire(o) for o in BATCH.run_batch(specs)] == whole
    assert calls == [[0, 1], [2, 3], [4], [9]]


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


# Observer adversaries (ISSUE 21): `informed` replays its group at
# setup and one of three strategies at the commit step, `greedy-oracle`
# reads the live knowledge grid every visited step. The grid above
# already holds their 14 cells; these are the edges a rewrite of either
# hook gets wrong, each with a predicate over an *instrumented* scalar
# run (the adversary object is kept, greedy's choice is spied on)
# proving that some seed reaches it.


def scalar_observer_run(spec):
    """The scalar oracle on *spec* with its adversary kept: returns
    ``(outcome, adversary, picks)`` — *picks* one dict per
    greedy-oracle choice (the branch taken, whether the maximum was
    tied, whether a sleeping process out-knew the victim)."""
    import numpy as np

    from repro.core.greedy import GreedyOracleAdversary
    from repro.core.registry import make_adversary
    from repro.protocols.registry import make_protocol
    from repro.sim.engine import Simulator

    picks = []

    class Spy(GreedyOracleAdversary):
        def _best_informed(self, view):
            victim = super()._best_informed(view)
            correct = np.flatnonzero(view.correct_mask)
            known = {int(p): int(view.knowledge_of(int(p)).sum()) for p in correct}
            awake = [p for p in known if not view.asleep_mask[p]]
            top = max(known[p] for p in (awake or known))
            picks.append(
                {
                    "now": view.now,
                    "all_asleep": not awake,
                    "tied": sum(known[p] == top for p in (awake or known)) > 1,
                    "sleeper_knows_more": bool(awake) and max(known.values()) > top,
                }
            )
            return victim

    adversary = Spy() if spec.adversary == "greedy-oracle" else make_adversary(spec.adversary)
    sim = Simulator(
        make_protocol(spec.protocol),
        adversary,
        n=spec.n,
        f=spec.f,
        seed=spec.seed,
        max_steps=spec.max_steps,
    )
    return sim.run(), adversary, picks


def _committed(name):
    return lambda o, adv, picks: adv.committed == name


OBSERVER_EDGES = {
    # name: (protocol, adversary, n, f, max_steps, seeds, reached)
    # The three commit branches, by measured sends per process per step.
    "informed-chatty": ("sears", "informed", 9, 4, None, 4, _committed("str-2.1.1")),
    # SEARS at N=5 sends to everyone: one broadcast entry per sender in
    # the wave, N - 1 sends each in the probe's count.
    "informed-chatty-broadcast": (
        "sears", "informed", 5, 2, None, 4,
        lambda o, adv, picks: adv.committed == "str-2.1.1" and adv.measured_rate == 4.0,
    ),
    "informed-terse-ears": ("ears", "informed", 16, 7, None, 4, _committed("str-2.1.0")),
    "informed-terse-push": ("push", "informed", 9, 4, None, 4, _committed("str-2.1.0")),
    "informed-between": ("push-pull", "informed", 9, 4, None, 4, _committed("str-1")),
    # 2.1.0 committed mid-run spends the whole budget on the survivor's
    # receivers and the run goes on.
    "informed-budget-spent": (
        "ears", "informed", 16, 7, None, 4,
        lambda o, adv, picks: len(o.crashed) == o.f
        and o.t_end > max(o.crash_steps.values()),
    ),
    # F < 2: the group is empty, every branch degenerates, and 2.1.0
    # makes no survivor draw (the draw-order battery pins the stream).
    "informed-empty-group": (
        "push", "informed", 12, 1, None, 4,
        lambda o, adv, picks: adv.committed == "str-2.1.0" and not o.crashed,
    ),
    "informed-n2": ("ears", "informed", 2, 1, None, 4, _committed("str-2.1.0")),
    # Steps 0, 1, 2 are the probe; the commit runs after step 2's local
    # steps. max_steps 1 truncates inside the probe, 2 right after the
    # commit — its crashes are stamped, its retimes never used.
    "informed-truncated-in-probe": (
        "push", "informed", 9, 4, 1, 4,
        lambda o, adv, picks: not o.completed and adv.committed is None,
    ),
    "informed-truncated-at-commit": (
        "push", "informed", 9, 4, 2, 4,
        lambda o, adv, picks: not o.completed
        and adv.committed == "str-2.1.0"
        and set(o.crash_steps.values()) == {2},
    ),
    # Flood visits steps 0 and 2 and is done: the probe never closes.
    "informed-quiesces-in-probe": (
        "flood", "informed", 9, 4, None, 4,
        lambda o, adv, picks: o.completed and adv.committed is None,
    ),
    # Flood again: everyone acted and went back to sleep at step 2, all
    # knowing everything — the all-asleep branch, tied, lowest pid.
    "greedy-all-asleep-tied": (
        "flood", "greedy-oracle", 9, 4, None, 4,
        lambda o, adv, picks: picks[0]["all_asleep"]
        and picks[0]["tied"]
        and o.crash_steps == {0: 2},
    ),
    "greedy-tied-awake": (
        "push", "greedy-oracle", 9, 4, None, 4,
        lambda o, adv, picks: any(p["tied"] and not p["all_asleep"] for p in picks),
    ),
    # A sleeper knows more than every awake process: the argmax is
    # over the awake ones while there are any.
    "greedy-skips-sleepers": (
        "push-pull", "greedy-oracle", 16, 7, None, 4,
        lambda o, adv, picks: any(p["sleeper_knows_more"] for p in picks),
    ),
    "greedy-budget-spent": (
        "push", "greedy-oracle", 16, 7, None, 4,
        lambda o, adv, picks: len(o.crashed) == o.f
        and o.t_end > max(o.crash_steps.values()),
    ),
    # Nothing happens at step 0 (start_step 1); with max_steps 1 the
    # one crash is at step 1 and the run is cut there.
    "greedy-starts-at-step-1": (
        "push", "greedy-oracle", 9, 4, 1, 4,
        lambda o, adv, picks: o.crash_steps == {0: 1} and not o.completed,
    ),
    "greedy-n2": ("push", "greedy-oracle", 2, 1, None, 4, lambda o, adv, picks: o.crashed),
    "greedy-no-budget": (
        "push", "greedy-oracle", 9, 0, None, 2,
        lambda o, adv, picks: not picks and not o.crashed,
    ),
}


@pytest.mark.parametrize("edge", OBSERVER_EDGES)
def test_observer_edges_are_wire_identical(edge):
    protocol, adversary, n, f, max_steps, seeds, reached = OBSERVER_EDGES[edge]
    limits = {} if max_steps is None else {"max_steps": max_steps}
    specs = [
        TrialSpec(protocol=protocol, adversary=adversary, n=n, f=f, seed=seed, **limits)
        for seed in range(seeds)
    ]
    assert_wire_identical(specs)
    assert any(reached(*scalar_observer_run(spec)) for spec in specs)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    protocol=st.sampled_from(BATCH_PROTOCOLS),
    adversary=st.sampled_from(["informed", "greedy-oracle"]),
    n=st.integers(2, 40),
    f_frac=st.floats(0.0, 1.0, exclude_max=True),
    seeds=st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=3, unique=True),
    max_steps=st.one_of(st.none(), st.integers(1, 40)),
)
def test_observer_cells_are_wire_identical_on_random_specs(
    protocol, adversary, n, f_frac, seeds, max_steps
):
    """Generated, not hand-picked (ROADMAP item 3d, started where the
    new code is): any kernel protocol x observer adversary, any legal
    (N, F), any seed, any step limit — several seeds of one cell in one
    ``run_batch``, so trials leave the grid at different times."""
    limits = {} if max_steps is None else {"max_steps": max_steps}
    assert_wire_identical(
        [
            TrialSpec(
                protocol=protocol, adversary=adversary, n=n, f=int(f_frac * n), seed=seed,
                **limits,
            )
            for seed in seeds
        ]
    )
