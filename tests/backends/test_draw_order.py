"""Seeded draw-order property test: the replay plane is draw-exact.

Byte-identical outcomes could in principle be reached with *different*
draw sequences that happen to produce the same aggregate counters; the
wire-level battery would not notice. This test removes that loophole:
for 50 random (spec, seed) pairs per vectorized randomized protocol,
every (trial, process) generator in the batch engine's replay plane
must issue exactly the method calls — same kind, same bound, same
values, same per-process order — that the scalar engine's protocol
generators issue, recorded by proxying ``sim.protocol.rngs``.

``hedged-push-pull`` draws its pull width with one ``choice`` the
plane rebuilds from word draws (logged as the one entry it is), and
off the clique every bound is a degree or a reachable-candidate count.

The ``informed`` plan adds a second stream with a mid-run draw: the
group comes out of ``stream("adversary")`` at setup and — under the
terse commit only, and only for a non-empty group — the survivor pick
comes out of the *same* generator at the commit step. Its log is
compared the same way, through the same proxy.
"""

import random

import pytest

from repro.backends.batch.engine import run_cell
from repro.backends.batch.kernels import TOPOLOGY_PROTOCOLS
from repro.backends.batch.rng import RecordingGenerator, ReplayPlane
from repro.experiments.config import TrialSpec

PROTOCOLS = ("push", "pull", "push-pull", "hedged-push-pull", "ears", "sears")
ADVERSARIES = (
    "none",
    "str-1",
    "oblivious",
    "omission",
    "ugf",
    "str-2.1.0",
    "str-2.1.1",
    "informed",
    "greedy-oracle",
)

PAIRS_PER_PROTOCOL = 50


def scalar_draw_log(spec: TrialSpec, adversary_log=None) -> list[list[tuple]]:
    """Run the reference engine with recording proxies on the protocol's
    per-process generators; return the per-process draw logs. With
    *adversary_log* (a list) the adversary's stream is proxied into it."""
    from repro.core.registry import make_adversary
    from repro.protocols.registry import make_protocol
    from repro.sim.engine import Simulator

    protocol = make_protocol(spec.protocol)
    adversary = make_adversary(spec.adversary)
    sim = Simulator(
        protocol,
        adversary,
        n=spec.n,
        f=spec.f,
        seed=spec.seed,
        max_steps=spec.max_steps,
        topology=spec.topology,
    )
    if adversary_log is not None:
        adversary.rng = RecordingGenerator(adversary.rng, adversary_log)
    logs: list[list[tuple]] = [[] for _ in range(spec.n)]
    protocol.rngs = [
        RecordingGenerator(gen, log) for gen, log in zip(protocol.rngs, logs)
    ]
    sim.run()
    return logs


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_replay_plane_matches_scalar_draw_order(protocol):
    picker = random.Random(f"draw-order:{protocol}")
    for _ in range(PAIRS_PER_PROTOCOL):
        n = picker.randint(2, 12)
        spec = TrialSpec(
            protocol=protocol,
            adversary=picker.choice(ADVERSARIES),
            n=n,
            f=picker.randint(0, n - 1),
            seed=picker.randrange(2**31),
        )
        expected = scalar_draw_log(spec)
        _, plane = run_cell(spec, [spec.seed], record_draws=True)
        assert plane.log[0] == expected, spec


@pytest.mark.parametrize("protocol", TOPOLOGY_PROTOCOLS)
def test_replay_plane_matches_scalar_draw_order_off_the_clique(protocol):
    """The same law with a reach mask in every candidate set: bounds
    are degrees and reachable-candidate counts, and a ``random-regular``
    trial's graph comes out of its own ``"topology"`` stream — a stream
    the protocol plane never touches, so a wrong graph shows up here as
    a wrong bound."""
    picker = random.Random(f"draw-order:topology:{protocol}")
    for _ in range(PAIRS_PER_PROTOCOL):
        n = picker.randint(2, 14)
        even = [d for d in (1, 2, 3, 4) if d < n and n * d % 2 == 0]
        spec = TrialSpec(
            protocol=protocol,
            adversary=picker.choice(ADVERSARIES),
            n=n,
            f=picker.randint(0, n - 1),
            seed=picker.randrange(2**31),
            topology=picker.choice(
                ["ring:1", "ring:2", "ring:7", "expander"]
                + [f"random-regular:{d}" for d in even]
            ),
        )
        expected = scalar_draw_log(spec)
        _, plane = run_cell(spec, [spec.seed], record_draws=True)
        assert plane.log[0] == expected, spec


def test_hedged_pull_logs_one_choice_then_the_push_draw():
    """A widened pull is one ``("choice", c, w, picks)`` entry — not the
    ``2w - 1`` word draws the plane makes it from — and the push draw
    that follows it on the same generator is an ``integers`` entry."""
    spec = TrialSpec(protocol="hedged-push-pull", adversary="str-1", n=16, f=12, seed=0)
    _, plane = run_cell(spec, [0, 1], record_draws=True)
    assert plane.log[0] == scalar_draw_log(spec)
    kinds = {entry[0] for log in plane.log[0] for entry in log}
    assert kinds == {"choice", "integers"}
    wide = [entry for log in plane.log[0] for entry in log if entry[0] == "choice"]
    assert max(size for _, _, size, _ in wide) >= 2
    assert all(len(picks) == size == len(set(picks)) for _, _, size, picks in wide)


@pytest.mark.parametrize("protocol", ["push", "ears", "pull", "push-pull"])
def test_vectorised_prefetch_is_draw_exact_across_refills(protocol, monkeypatch):
    """Every ``integers`` draw of a pass comes out of the plane's
    (T, n, 2*BLOCK) buffer of prefetched raw words. Under UGF's delays
    processes draw well past one refill, at different times per trial
    and process, so the refill happens mid-pass for some generators and
    not others — the logs must still equal the scalar engine's draw for
    draw. The pull family adds per-row bounds, among them the
    ``high == 1`` draws (one candidate left) that consume no word; its
    processes draw only some 15 words each at this N, so its cases
    shrink the block to meet the boundary."""
    block = 4 if "pull" in protocol else ReplayPlane.BLOCK
    monkeypatch.setattr(ReplayPlane, "BLOCK", block)
    seeds = [1, 2, 3]
    spec = TrialSpec(protocol=protocol, adversary="ugf", n=20, f=6, seed=seeds[0])
    _, plane = run_cell(spec, seeds, record_draws=True)
    crossed = free = 0
    for t, seed in enumerate(seeds):
        expected = scalar_draw_log(
            TrialSpec(protocol=protocol, adversary="ugf", n=20, f=6, seed=seed)
        )
        assert plane.log[t] == expected, seed
        words = [sum(high > 1 for _, high, _ in log) for log in expected]
        crossed += sum(w > 2 * block for w in words)
        free += sum(len(log) - w for log, w in zip(expected, words))
    assert crossed >= 10  # the boundary was really exercised
    assert free >= 10 or "pull" not in protocol  # and so was high == 1


#: (protocol, n, f) -> the adversary-stream draws of one ``informed``
#: trial: the group always (none when F < 2), the survivor pick only
#: after a terse commit on a non-empty group.
INFORMED_STREAMS = {
    ("sears", 9, 4): ["choice"],  # chatty: 2.1.1 draws nothing
    ("push-pull", 9, 4): ["choice"],  # in between: str-1 draws nothing
    ("ears", 9, 4): ["choice", "integers"],  # terse: the survivor pick
    ("push", 16, 7): ["choice", "integers"],
    ("push", 12, 1): [],  # terse, empty group: no draw at all
    ("flood", 9, 4): ["choice"],  # quiesces inside the probe
}


@pytest.mark.parametrize("protocol,n,f", INFORMED_STREAMS)
def test_informed_adversary_stream_is_draw_exact(protocol, n, f, monkeypatch):
    from repro.backends.batch import adversaries

    seeds = [3, 4, 5]
    batch_logs: dict[int, list[tuple]] = {seed: [] for seed in seeds}
    real_stream = adversaries.adversary_stream
    monkeypatch.setattr(
        adversaries,
        "adversary_stream",
        lambda seed: RecordingGenerator(real_stream(seed), batch_logs[seed]),
    )
    spec = TrialSpec(protocol=protocol, adversary="informed", n=n, f=f, seed=seeds[0])
    run_cell(spec, seeds)
    for seed in seeds:
        expected: list[tuple] = []
        scalar_draw_log(
            TrialSpec(protocol=protocol, adversary="informed", n=n, f=f, seed=seed),
            expected,
        )
        assert batch_logs[seed] == expected, seed
        assert [entry[0] for entry in expected] == INFORMED_STREAMS[protocol, n, f]
