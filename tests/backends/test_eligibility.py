"""Batch eligibility is cheap, deterministic, and carries its reasons."""

import pytest

from repro.backends import why_ineligible
from repro.experiments.config import TrialSpec

ELIGIBLE = TrialSpec(protocol="flood", adversary="str-1", n=10, f=3, seed=0)


@pytest.mark.parametrize(
    "spec,needle",
    [
        (
            TrialSpec(
                protocol="recursive-doubling", adversary="none", n=8, f=2, seed=0
            ),
            "protocol 'recursive-doubling'",
        ),
        (
            TrialSpec(protocol="coordinator", adversary="ugf", n=8, f=2, seed=0),
            "protocol 'coordinator'",
        ),
        (
            # The plan replays the default probe (3 steps, 3.0 / 1.2).
            TrialSpec(
                protocol="flood", adversary="informed", n=8, f=2, seed=0,
                adversary_kwargs=(("probe_steps", 5),),
            ),
            "kwargs (probe_steps)",
        ),
        (
            TrialSpec(protocol="flood", adversary="str-3.1", n=8, f=2, seed=0),
            "adversary 'str-3.1'",
        ),
        (
            TrialSpec(
                protocol="flood", adversary="none", n=8, f=2, seed=0,
                environment="jitter",
            ),
            "environment 'jitter'",
        ),
        (
            TrialSpec(
                protocol="flood", adversary="none", n=8, f=2, seed=0,
                sanitize="strict",
            ),
            "sanitizer 'strict'",
        ),
        (
            TrialSpec(
                protocol="round-robin", adversary="none", n=8, f=2, seed=0,
                protocol_kwargs=(("x", 1),),
            ),
            "protocol kwargs",
        ),
        (
            TrialSpec(
                protocol="flood", adversary="oblivious", n=8, f=2, seed=0,
                adversary_kwargs=(("horizon", 9),),
            ),
            "adversary kwargs",
        ),
        (
            # The hedged kernel replays the default widths (8, 4, 1).
            TrialSpec(
                protocol="hedged-push-pull", adversary="none", n=8, f=2, seed=0,
                protocol_kwargs=(("max_width", 3),),
            ),
            "kwargs (max_width)",
        ),
    ],
)
def test_rejections_carry_their_reason(spec, needle):
    reason = why_ineligible(spec)
    assert reason is not None
    assert needle in reason


# Off the clique the reason is the narrowest that applies: a protocol
# without a kernel is still that; a kernel protocol on a graph the reach
# mask cannot hold names the graph; a kernel that never draws through
# the mask names itself on an otherwise batchable graph.
TOPOLOGY_REJECTIONS = [
    ("flood", "ring:1", "the 'flood' kernel assumes the all-to-all clique"),
    ("round-robin", "random-regular:3", "the 'round-robin' kernel assumes"),
    ("sears", "expander", "the 'sears' kernel assumes the all-to-all clique"),
    ("push", "dynamic:ring:1:0.1", "changes the contact graph mid-run"),
    ("push", "dynamic:expander:0", "changes the contact graph mid-run"),
    ("flood", "dynamic:ring:2:0.5", "changes the contact graph mid-run"),
    ("coordinator", "ring:1", "protocol 'coordinator' has no vectorized kernel"),
]


@pytest.mark.parametrize("protocol,topology,needle", TOPOLOGY_REJECTIONS)
def test_topology_rejections_name_the_narrowest_reason(
    protocol, topology, needle, monkeypatch
):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    spec = TrialSpec(
        protocol=protocol, adversary="ugf", n=8, f=2, seed=0, topology=topology
    )
    reason = why_ineligible(spec)
    assert reason is not None and needle in reason
    if "vectorized kernel" not in reason:
        assert repr(topology) in reason


@pytest.mark.parametrize(
    "protocol", ["push", "pull", "push-pull", "hedged-push-pull", "ears"]
)
@pytest.mark.parametrize(
    "topology", ["ring", "ring:3", "random-regular:4", "expander", "complete"]
)
def test_static_topologies_route_batch_for_kernels_that_pick(
    protocol, topology, monkeypatch
):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    spec = TrialSpec(
        protocol=protocol, adversary="ugf", n=8, f=2, seed=0, topology=topology
    )
    assert why_ineligible(spec) is None


def test_eligible_cells_have_no_reason(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    for protocol in ("flood", "round-robin"):
        for adversary in (
            "none", "str-1", "oblivious", "omission", "informed", "greedy-oracle",
        ):
            spec = TrialSpec(protocol=protocol, adversary=adversary, n=8, f=2, seed=0)
            assert why_ineligible(spec) is None
    homogeneous = TrialSpec(
        protocol="flood", adversary="none", n=8, f=2, seed=0,
        environment="homogeneous",
    )
    assert why_ineligible(homogeneous) is None


def test_sanitizer_environment_pins_scalar(monkeypatch):
    """$REPRO_SANITIZE reaches trials whose spec leaves sanitize=None,
    so a sanitizing environment must make every cell fall back — the
    monitors only exist in the scalar engine."""
    monkeypatch.setenv("REPRO_SANITIZE", "strict")
    reason = why_ineligible(ELIGIBLE)
    assert reason is not None and "sanitizer" in reason
    monkeypatch.setenv("REPRO_SANITIZE", "off")
    assert why_ineligible(ELIGIBLE) is None


def test_eligibility_is_deterministic(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    specs = [
        TrialSpec(protocol=p, adversary=a, n=6, f=2, seed=s)
        for p in ("flood", "push")
        for a in ("none", "ugf")
        for s in range(3)
    ]
    first = [why_ineligible(s) is None for s in specs]
    for _ in range(3):
        assert [why_ineligible(s) is None for s in specs] == first
