"""Seeded draw-order property test: the replay plane is draw-exact.

Byte-identical outcomes could in principle be reached with *different*
draw sequences that happen to produce the same aggregate counters; the
wire-level battery would not notice. This test removes that loophole:
for 50 random (spec, seed) pairs per vectorized randomized protocol,
every (trial, process) generator in the batch engine's replay plane
must issue exactly the method calls — same kind, same bound, same
values, same per-process order — that the scalar engine's protocol
generators issue, recorded by proxying ``sim.protocol.rngs``.
"""

import random

import pytest

from repro.backends.batch.engine import run_cell
from repro.backends.batch.rng import RecordingGenerator, ReplayPlane
from repro.experiments.config import TrialSpec

PROTOCOLS = ("push", "pull", "push-pull", "ears", "sears")
ADVERSARIES = (
    "none",
    "str-1",
    "oblivious",
    "omission",
    "ugf",
    "str-2.1.0",
    "str-2.1.1",
)

PAIRS_PER_PROTOCOL = 50


def scalar_draw_log(spec: TrialSpec) -> list[list[tuple]]:
    """Run the reference engine with recording proxies on the protocol's
    per-process generators; return the per-process draw logs."""
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
    )
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
