"""Property battery for the topology abstraction (docs/TOPOLOGY.md).

Three families of guarantees:

- **construction** — specs parse to the declared graph family, builds
  are deterministic per seed, and the structural invariants hold
  (degree, symmetry, no self-loops, ring connectivity);
- **clique neutrality** — ``None`` and every spelling of the complete
  graph canonicalise to the same thing, and a clique run is
  byte-identical (outcome wire) to a run that never heard of topology;
- **contact legality** — for every protocol × {ring, random-regular,
  dynamic} cell, every message the engine records crossed an edge the
  topology declares at the decision step, and the kernel's blocked-
  contact counter stays at zero (topology-aware protocols never even
  try an illegal contact).
"""

import json

import numpy as np
import pytest

from repro.core.registry import make_adversary
from repro.errors import ConfigurationError
from repro.protocols.registry import available_protocols, make_protocol
from repro.sim.engine import simulate
from repro.sim.rng import RandomSource
from repro.sim.topology import (
    CompleteTopology,
    DynamicTopology,
    RingTopology,
    canonical_topology,
    make_topology,
)
from repro.sim.trace import EventKind


def build(spec, n, seed=0):
    topo = make_topology(spec)
    topo.bind(n, RandomSource(seed).stream("topology"))
    return topo


# -- parsing and canonicalisation ---------------------------------------------


def test_none_and_complete_spellings_canonicalise_to_none():
    assert canonical_topology(None) is None
    assert canonical_topology("complete") is None


def test_non_clique_specs_canonicalise_to_themselves():
    assert canonical_topology("ring:2") == "ring:2"
    assert canonical_topology("ring") == "ring:1"
    assert canonical_topology("dynamic:ring:1:0.1") == "dynamic:ring:1:0.1"


@pytest.mark.parametrize(
    "bad",
    [
        "ring:0",
        "random-regular",
        "random-regular:0",
        "expander:3",
        "dynamic:complete:0.1",
        "dynamic:ring:1:1.5",
        "dynamic:0.5",
        "mobius",
    ],
)
def test_malformed_specs_rejected(bad):
    with pytest.raises(ConfigurationError):
        make_topology(bad)


def test_non_string_spec_rejected():
    with pytest.raises(ConfigurationError):
        make_topology(3)


# -- structural invariants ----------------------------------------------------


def _assert_symmetric_no_self_loops(topo):
    n = topo.n
    for u in range(n):
        nbrs = topo.neighbors(u)
        assert u not in nbrs
        assert sorted(set(nbrs.tolist())) == sorted(nbrs.tolist())
        for v in nbrs:
            assert u in topo.neighbors(int(v)), (u, v)
            assert topo.allows(u, int(v)) and topo.allows(int(v), u)


@pytest.mark.parametrize("spec", ["ring:1", "ring:3", "random-regular:4", "expander"])
def test_static_graphs_are_symmetric_without_self_loops(spec):
    _assert_symmetric_no_self_loops(build(spec, 12, seed=3))


def test_ring_degree_and_connectivity():
    n = 16
    topo = build("ring:2", n)
    for u in range(n):
        assert topo.neighbors(u).size == 4
        assert set(topo.neighbors(u).tolist()) == {
            (u - 2) % n, (u - 1) % n, (u + 1) % n, (u + 2) % n
        }
    # Connectivity: BFS from 0 reaches everyone.
    seen, frontier = {0}, [0]
    while frontier:
        u = frontier.pop()
        for v in topo.neighbors(u):
            if int(v) not in seen:
                seen.add(int(v))
                frontier.append(int(v))
    assert len(seen) == n


def test_oversized_ring_clamps_to_the_clique_edge_set():
    n = 8
    topo = build("ring:32", n)
    assert not topo.is_complete  # spec identity survives the clamp
    for u in range(n):
        assert set(topo.neighbors(u).tolist()) == set(range(n)) - {u}


def test_random_regular_degree_invariant():
    for seed in range(5):
        topo = build("random-regular:3", 10, seed=seed)
        assert all(topo.neighbors(u).size == 3 for u in range(10))


def test_random_regular_validates_parity_and_degree():
    with pytest.raises(ConfigurationError):
        build("random-regular:3", 9)  # n*d odd
    with pytest.raises(ConfigurationError):
        build("random-regular:12", 10)  # d >= n


def test_complete_topology_allows_everyone():
    topo = build("complete", 6)
    assert isinstance(topo, CompleteTopology) and topo.is_complete
    for u in range(6):
        assert set(topo.neighbors(u).tolist()) == set(range(6)) - {u}
        assert not topo.allows(u, u)


# -- determinism --------------------------------------------------------------


@pytest.mark.parametrize(
    "spec", ["ring:2", "random-regular:4", "expander", "dynamic:ring:2:0.3"]
)
def test_construction_is_deterministic_per_seed(spec):
    a = build(spec, 12, seed=7)
    b = build(spec, 12, seed=7)
    for step in (0, 1, 5, 99):
        assert a.edges(step) == b.edges(step)


def test_random_regular_seed_changes_the_graph():
    edge_sets = {tuple(build("random-regular:4", 14, seed=s).edges()) for s in range(6)}
    assert len(edge_sets) > 1


def test_dynamic_rate_zero_is_the_base_graph_forever():
    topo = build("dynamic:ring:2:0", 12, seed=1)
    base = build("ring:2", 12, seed=1)
    for step in (0, 3, 50):
        assert topo.edges(step) == base.edges(0)


def test_dynamic_rewiring_is_oblivious_and_fast_forward_safe():
    """The step-t graph is a pure function of (seed, t): querying step
    50 cold gives the same graph as querying steps 0..50 in order."""
    a = build("dynamic:ring:2:0.5", 12, seed=9)
    b = build("dynamic:ring:2:0.5", 12, seed=9)
    for step in range(51):
        a.edges(step)  # walk a forward
    assert a.edges(50) == b.edges(50)  # b jumps straight there


def test_dynamic_actually_rewires():
    topo = build("dynamic:ring:1:0.9", 16, seed=2)
    assert isinstance(topo, DynamicTopology)
    base = topo.edges(0) if topo.edges(0) else None
    assert any(topo.edges(step) != topo.edges(0) for step in range(1, 10))


def test_dynamic_rejects_nesting_and_complete_base():
    with pytest.raises(ConfigurationError):
        make_topology("dynamic:complete:0.5")
    with pytest.raises(ConfigurationError):
        DynamicTopology(DynamicTopology(RingTopology(1), 0.1), 0.1)


def test_bind_requires_two_processes():
    with pytest.raises(ConfigurationError):
        build("ring:1", 1)


# -- clique neutrality end to end ---------------------------------------------


def _run(topology, **kw):
    rep = simulate(
        make_protocol(kw.pop("protocol", "push-pull")),
        make_adversary(kw.pop("adversary", "ugf")),
        n=kw.pop("n", 12),
        f=kw.pop("f", 3),
        seed=kw.pop("seed", 4),
        topology=topology,
        **kw,
    )
    return rep


def test_complete_spec_runs_byte_identical_to_no_topology():
    for proto in ("push-pull", "ears", "sears"):
        plain = _run(None, protocol=proto).outcome
        spelled = _run("complete", protocol=proto).outcome
        assert json.dumps(plain.to_wire()) == json.dumps(spelled.to_wire())
        assert len(plain.to_wire()) == 21  # no trailing topology element


def test_topology_rides_the_outcome_and_its_wire():
    out = _run("ring:3").outcome
    assert out.topology == "ring:3"
    wire = out.to_wire()
    assert len(wire) == 22 and wire[21] == "ring:3"
    from repro.sim.outcome import Outcome

    assert Outcome.from_wire(wire).topology == "ring:3"
    assert Outcome.from_wire(wire).to_wire() == wire


def test_topology_stream_is_independent_of_protocol_randomness():
    """Binding a topology must not perturb the protocol's draws: the
    engine's RNG streams are independent by label."""
    src_a = RandomSource(123).stream("protocol")
    src_b = RandomSource(123).stream("protocol")
    RandomSource(123).stream("topology").integers(1 << 30, size=100)
    assert np.array_equal(src_a.integers(1 << 30, size=8), src_b.integers(1 << 30, size=8))


# -- contact legality: every message crosses a declared edge ------------------

TOPOLOGIES = ["ring:2", "random-regular:4", "dynamic:ring:2:0.2"]


@pytest.mark.parametrize("proto", sorted(available_protocols()))
@pytest.mark.parametrize("spec", TOPOLOGIES)
def test_every_send_crosses_a_declared_edge(proto, spec):
    n, f, seed = 12, 3, 6
    rep = simulate(
        make_protocol(proto),
        make_adversary("none"),
        n=n,
        f=f,
        seed=seed,
        topology=spec,
        record_events=True,
        max_steps=200_000,
    )
    # Shadow rebuild of the exact graph the engine used.
    topo = build(spec, n, seed=seed)
    sends = [e for e in rep.trace.events if e.kind is EventKind.SEND]
    assert sends, "protocol sent nothing — vacuous property"
    for event in sends:
        # With adversary 'none' every delta_rho is 1, so the decision
        # step is the emission step minus one.
        decided = event.step - 1
        assert topo.allows(event.subject, event.detail, decided), (
            proto, spec, event,
        )


@pytest.mark.parametrize("spec", TOPOLOGIES)
def test_topology_aware_protocols_never_hit_the_kernel_block(spec):
    from repro.sim.engine import Simulator

    for proto in ("push-pull", "ears", "flood"):
        sim = Simulator(
            make_protocol(proto),
            make_adversary("none"),
            n=10,
            f=3,
            seed=1,
            topology=spec,
            max_steps=200_000,
        )
        sim.run()
        assert sim.network.blocked_contacts == 0, proto
