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
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.backends import BatchBackend, ScalarBackend, why_ineligible
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
    reason = why_ineligible(specs[0])
    if reason is not None:
        pytest.skip(f"cell not batch-eligible: {reason}")
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
        if why_ineligible(TrialSpec(protocol=p, adversary=a, n=5, f=2, seed=0)) is None
    ]
    # 8 vectorized protocols x all 9 columns (7 concrete adversaries +
    # 2 str-2 probes): 8 cells, then the 49 of PR 8, the observer
    # columns (informed, greedy-oracle) of ISSUE 21, the
    # hedged-push-pull row of ISSUE 22.
    assert len(eligible) >= 72


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
            if why_ineligible(spec) is not None:
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
    if not all(why_ineligible(s) is None for s in specs):
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
    if not all(why_ineligible(s) is None for s in specs):
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
        if why_ineligible(spec) is not None:
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
            if why_ineligible(spec) is not None:
                pytest.skip("cells not batch-eligible here")
            with pytest.raises(ConfigurationError) as batch_error:
                BATCH.run_batch([spec])
            with pytest.raises(ConfigurationError) as scalar_error:
                SCALAR.run_one(spec)
            assert str(batch_error.value) == str(scalar_error.value)


def test_run_batch_rejects_ineligible_specs():
    from repro.errors import SimulationError

    spec = TrialSpec(protocol="coordinator", adversary="ugf", n=5, f=1, seed=0)
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


# The candidate mask (ISSUE 22): `hedged-push-pull` samples a pull
# *width* of candidates in one ``choice`` that the plane replays on raw
# words, and a static topology ANDs each trial's adjacency into every
# candidate set. Each edge is wire-identical over its seeds and carries
# a predicate over a scalar run instrumented at the protocol's local
# step — its draws, the width it asked for, what it still could not
# reach — proving that some seed gets there.


def scalar_pick_run(spec):
    """The scalar oracle on *spec* with every local step recorded:
    returns ``(outcome, steps, sim)`` — *steps* one dict per local step
    (who and when, the ``integers`` bounds drawn, the ``choice`` as
    ``(c, w, Floyd collided)``, the uncapped ``width``, pull requests
    found in the inbox, sends, whether it slept, unknown gossips out of
    reach), *sim* the simulator, for its adversary and bound topology."""
    import copy

    from repro.core.registry import make_adversary
    from repro.protocols.push_pull import PullRequest
    from repro.protocols.registry import make_protocol
    from repro.sim.engine import Simulator

    protocol = make_protocol(spec.protocol)
    sim = Simulator(
        protocol,
        make_adversary(spec.adversary),
        n=spec.n,
        f=spec.f,
        seed=spec.seed,
        max_steps=spec.max_steps,
        topology=spec.topology,
    )
    steps, current = [], {}

    class Spy:
        def __init__(self, gen):
            self._gen = gen

        def integers(self, high):
            current["integers"].append(int(high))
            return self._gen.integers(high)

        def choice(self, high, size=None, replace=True):
            # Floyd's pass on a twin: a draw already taken is a collision.
            twin, seen, collided = copy.deepcopy(self._gen), [], False
            for j in range(high - size, high):
                v = int(twin.integers(j + 1))
                collided |= v in seen
                seen.append(j if v in seen else v)
            current["choice"] = (int(high), int(size), collided)
            return self._gen.choice(high, size=size, replace=replace)

    protocol.rngs = [Spy(gen) for gen in protocol.rngs]
    if hasattr(protocol, "_pull_width"):
        real_width = protocol._pull_width

        def width(rho, unknown):
            current["width"] = real_width(rho, unknown)
            return current["width"]

        protocol._pull_width = width
    real_step = protocol.on_local_step

    def step(ctx):
        current.clear()
        current.update(
            rho=ctx.rho, now=ctx.now, integers=[], choice=None, width=None,
            asked=sum(isinstance(m.payload, PullRequest) for m in ctx.inbox),
        )
        slept = real_step(ctx)
        unknown = ~protocol.knowledge_of(ctx.rho)
        reach = protocol.neighbor_mask(ctx.rho, ctx.now)
        steps.append(
            dict(
                current, slept=slept, sends=ctx.sends,
                out_of_reach=int((unknown & ~reach).sum()),
            )
        )
        return slept

    protocol.on_local_step = step
    return sim.run(), steps, sim


def _widths(steps):
    return [s["choice"][1] for s in steps if s["choice"]]


def _widens(o, steps, sim):
    return max(_widths(steps)) >= 2


def _degrees(sim):
    return {sim.topology.degree(rho) for rho in range(sim.n)}


HEDGED = "hedged-push-pull"
PICK_EDGES = {
    # name: (protocol, adversary, topology, n, f, seeds, reached)
    # Nobody is silent: answers come back inside the allowance and the
    # protocol is push-pull, one-pick choices and all.
    "hedged-benign-width-1": (
        HEDGED, "none", None, 16, 7, 4, lambda o, steps, sim: set(_widths(steps)) == {1},
    ),
    "hedged-escalates": (HEDGED, "str-1", None, 16, 7, 4, _widens),
    "hedged-max-width": (
        HEDGED, "str-1", None, 40, 30, 2, lambda o, steps, sim: max(_widths(steps)) == 8,
    ),
    # Fewer candidates left than the width asks for: all of them go, and
    # the process sleeps on the re-check.
    "hedged-capped-by-candidates": (
        HEDGED, "str-1", None, 16, 12, 4,
        lambda o, steps, sim: any(
            s["choice"] and s["width"] > s["choice"][0] and s["slept"] for s in steps
        ),
    ),
    # w == c: Floyd starts at j = 0, a draw below 1 that takes no word.
    "hedged-takes-every-candidate": (
        HEDGED, "str-1", None, 16, 12, 4,
        lambda o, steps, sim: any(
            s["choice"] and s["choice"][0] == s["choice"][1] >= 2 for s in steps
        ),
    ),
    "hedged-floyd-collision": (
        HEDGED, "str-1", None, 16, 12, 4,
        lambda o, steps, sim: any(s["choice"] and s["choice"][2] for s in steps),
    ),
    # Covered, asleep, woken by a pull request: it answers, draws
    # nothing, and goes back to sleep.
    "hedged-woken-only-answers": (
        HEDGED, "none", None, 16, 7, 4,
        lambda o, steps, sim: o.wake_counts.any()
        and any(
            s["asked"] and s["slept"] and s["sends"] == s["asked"]
            and not s["choice"] and not s["integers"]
            for s in steps
        ),
    ),
    "hedged-ugf": (HEDGED, "ugf", None, 24, 16, 4, _widens),
    "hedged-str-2.1.0": (HEDGED, "str-2.1.0", None, 24, 16, 4, _widens),
    # The survivor answers several requests in the step its budget runs
    # out: who is crashed depends on the order they were delivered in,
    # i.e. on the pull block leaving sender-major in pick order.
    "hedged-survivor-answers-in-delivery-order": (
        HEDGED, "str-2.1.0", None, 20, 15, 4,
        lambda o, steps, sim: len(o.crashed) == o.f
        and any(
            s["rho"] == sim.adversary.survivor and s["asked"] >= 2
            and s["now"] == max(o.crash_steps.values())
            for s in steps
        )
        and max(_widths(steps)) >= 2,
    ),
    "hedged-informed": (HEDGED, "informed", None, 24, 16, 4, _widens),
    "hedged-greedy-oracle": (HEDGED, "greedy-oracle", None, 40, 30, 2, _widens),
    # Omitted pulls are paid for and never travel: the silence that
    # widens the next one.
    "hedged-omission": (HEDGED, "omission", None, 24, 16, 4, _widens),
    # Both neighbours asked, most gossips unknown and nobody left to
    # ask: ~reach closes the sleep rule.
    "topology-ring-sleeps-with-unreachable-unknowns": (
        "pull", "str-1", "ring:1", 9, 4, 3,
        lambda o, steps, sim: any(s["slept"] and s["out_of_reach"] for s in steps),
    ),
    "topology-ring-push-draws-below-degree": (
        "push", "none", "ring:1", 9, 4, 3,
        lambda o, steps, sim: {h for s in steps for h in s["integers"]} == {2},
    ),
    # One graph per trial, from each seed's own "topology" stream.
    "topology-random-regular-one-graph-per-seed": (
        "push-pull", "ugf", "random-regular:4", 10, 4, 2,
        lambda o, steps, sim: sim.topology.edges() != scalar_pick_run(
            TrialSpec(
                protocol="push", adversary="none", n=10, f=4, seed=o.seed + 1,
                topology="random-regular:4",
            )
        )[2].topology.edges(),
    ),
    # 11 is no power of two: the chords 1, 2, 4 wrap unevenly.
    "topology-expander-odd-n": (
        "push-pull", "ugf", "expander", 11, 4, 3,
        lambda o, steps, sim: _degrees(sim) == {6},
    ),
    "topology-ears-on-expander": (
        "ears", "str-2.1.0", "expander", 12, 5, 3,
        lambda o, steps, sim: {h for s in steps for h in s["integers"]} == {6},
    ),
    # A ring wide enough to be the clique's edge set is still a
    # topology cell: own spec string, draws through the adjacency row.
    "topology-ring-wide-as-the-clique": (
        "push-pull", "ugf", "ring:40", 9, 4, 3,
        lambda o, steps, sim: o.topology == "ring:40" and _degrees(sim) == {8},
    ),
    # Both features at once: the backlog can only grow to the degree.
    "topology-hedged-on-ring": (HEDGED, "str-1", "ring:5", 24, 16, 4, _widens),
}


@pytest.mark.parametrize("edge", PICK_EDGES)
def test_pick_edges_are_wire_identical(edge):
    protocol, adversary, topology, n, f, seeds, reached = PICK_EDGES[edge]
    # The longest of these runs ends at step 640: the limit only turns a
    # rule that never lets anybody sleep into a truncated outcome.
    specs = [
        TrialSpec(
            protocol=protocol, adversary=adversary, n=n, f=f, seed=seed,
            topology=topology, max_steps=4000,
        )
        for seed in range(seeds)
    ]
    assert_wire_identical(specs)
    assert any(reached(*scalar_pick_run(spec)) for spec in specs)


@pytest.mark.parametrize(
    "n,topology", [(9, "random-regular:3"), (6, "random-regular:6"), (4, "ring:0")]
)
def test_batch_binds_a_topology_like_the_engine(n, topology):
    """N*d odd, d >= N, a spec that does not parse: the graph is bound
    by the scalar engine's own classes, so the error is its error."""
    from repro.errors import ConfigurationError

    spec = TrialSpec(
        protocol="push-pull", adversary="ugf", n=n, f=1, seed=0, topology=topology
    )
    if why_ineligible(spec) is not None:
        pytest.skip("cells not batch-eligible here")
    with pytest.raises(ConfigurationError) as batch_error:
        BATCH.run_batch([spec])
    with pytest.raises(ConfigurationError) as scalar_error:
        SCALAR.run_one(spec)
    assert str(batch_error.value) == str(scalar_error.value)


def test_topology_is_part_of_the_cell():
    """A ring cell and a clique cell of one (protocol, adversary, N, F)
    in one ``run_batch`` are two cells."""
    specs = [
        TrialSpec(
            protocol="push-pull", adversary="ugf", n=12, f=4, seed=seed,
            topology=topology,
        )
        for seed in range(2)
        for topology in (None, "ring:2", "expander", "complete")
    ]
    if not all(why_ineligible(s) is None for s in specs):
        pytest.skip("cells not batch-eligible here")
    for spec, outcome in zip(specs, BATCH.run_batch(specs)):
        assert wire(outcome) == wire(SCALAR.run_one(spec)), spec


def test_memory_error_halves_the_sub_batch_inside_the_backend(monkeypatch):
    """``run_cell`` running out of memory is retried on each half of its
    seeds, down to one trial — never handed to the scalar engine, where
    the cells that can do this (EARS at N=500) take hours."""
    from repro.backends import batch

    specs = [
        TrialSpec(protocol="ears", adversary="ugf", n=12, f=5, seed=seed)
        for seed in range(5)
    ]
    if not all(why_ineligible(s) is None for s in specs):
        pytest.skip("cells not batch-eligible here")
    whole = [wire(o) for o in BATCH.run_batch(specs)]
    calls = []
    real_run_cell = batch.run_cell

    def small_run_cell(spec0, seeds):
        calls.append(list(seeds))
        if len(seeds) > 1:
            raise MemoryError("Unable to allocate 2.93 GiB")
        return real_run_cell(spec0, seeds)

    monkeypatch.setattr(batch, "run_cell", small_run_cell)
    assert [wire(o) for o in BATCH.run_batch(specs)] == whole
    assert calls == [[0, 1, 2, 3, 4], [0, 1], [0], [1], [2, 3, 4], [2], [3, 4], [3], [4]]

    def no_room(spec0, seeds):
        raise MemoryError("not even one")

    monkeypatch.setattr(batch, "run_cell", no_room)
    with pytest.raises(MemoryError, match="not even one"):
        BATCH.run_batch(specs)


def test_trial_bytes_counts_the_pull_tables_and_the_adjacency():
    from repro.backends.batch.kernels import trial_bytes

    rows = 8 * 500 * 63  # what the snapshot rows come to at N = 500
    assert trial_bytes("flood", 500) == rows
    assert trial_bytes("push", 500) == rows + 250_000  # an adjacency
    assert trial_bytes("pull", 500) == rows + 2 * 250_000  # ... and pulled
    assert trial_bytes("push-pull", 500) == rows + 3 * 250_000  # ... and pushed
    assert trial_bytes("hedged-push-pull", 500) == trial_bytes("push-pull", 500)


topologies = st.one_of(
    st.none(),
    st.just("expander"),
    st.integers(1, 6).map("ring:{}".format),
    st.integers(1, 4).map("random-regular:{}".format),
)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    protocol=st.sampled_from(BATCH_PROTOCOLS),
    adversary=st.sampled_from(ADVERSARIES + ["str-2.2.0", "str-2.1.2"]),
    topology=topologies,
    n=st.integers(2, 40),
    f_frac=st.floats(0.0, 1.0, exclude_max=True),
    seeds=st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=3, unique=True),
    max_steps=st.one_of(st.none(), st.integers(1, 40)),
)
def test_eligible_cells_are_wire_identical_on_random_specs(
    protocol, adversary, topology, n, f_frac, seeds, max_steps
):
    """Generated, not hand-picked (ROADMAP item 3d): any kernel protocol
    x replayable adversary x static topology the routing table accepts,
    any legal (N, F), any seed, any step limit — several seeds of one
    cell in one ``run_batch``, so trials leave the grid at different
    times and ``random-regular`` trials each hold their own graph."""
    import os

    if os.environ.get("REPRO_SANITIZE"):
        pytest.skip("sanitizer pinned by environment: all cells scalar")
    if topology is not None and topology.startswith("random-regular"):
        d = int(topology.split(":")[1])
        assume(d < n and n * d % 2 == 0)  # what the family can be bound on
    limits = {} if max_steps is None else {"max_steps": max_steps}
    specs = [
        TrialSpec(
            protocol=protocol, adversary=adversary, n=n, f=int(f_frac * n), seed=seed,
            topology=topology, **limits,
        )
        for seed in seeds
    ]
    assume(why_ineligible(specs[0]) is None)
    assert_wire_identical(specs)
