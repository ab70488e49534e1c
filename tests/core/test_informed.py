"""Tests for the informed (probing) adversary."""

import pytest

from repro.core.informed import InformedGossipFighter
from repro.core.registry import make_adversary
from repro.errors import ConfigurationError
from repro.protocols.registry import make_protocol
from repro.sim.engine import simulate


def attack(protocol: str, seed: int = 2, n: int = 50, f: int = 15):
    adv = InformedGossipFighter()
    outcome = simulate(make_protocol(protocol), adv, n=n, f=f, seed=seed).outcome
    return adv, outcome


def test_validation():
    with pytest.raises(ConfigurationError):
        InformedGossipFighter(probe_steps=0)
    with pytest.raises(ConfigurationError):
        InformedGossipFighter(terse_threshold=0)
    with pytest.raises(ConfigurationError):
        InformedGossipFighter(terse_threshold=5.0, chatty_threshold=3.0)


def test_requires_rng():
    adv = InformedGossipFighter()
    with pytest.raises(ConfigurationError):
        adv.setup(None, None)  # type: ignore[arg-type]


def test_probe_classifies_paper_protocols():
    # Traffic profiles: EARS ~1 msg/proc/step (terse), SEARS ~fanout
    # (chatty), Push-Pull in between (bursty-interactive). From volume
    # alone the probe recovers the paper's per-protocol worst-case
    # strategy in a clear majority of seeds. (``committed`` lives on the
    # adversary, not the Outcome, so this half of the §VII claim is
    # checked here; the `informed` row of experiments/claims.py holds
    # the damage half.)
    for protocol, worst in (
        ("ears", "str-2.1.0"),
        ("sears", "str-2.1.1"),
        ("push-pull", "str-1"),
    ):
        commits = [attack(protocol, seed=seed)[0].committed for seed in range(7)]
        assert commits.count(worst) * 2 > len(commits), (protocol, commits)


def test_measured_rate_recorded():
    adv, _ = attack("ears")
    assert adv.measured_rate is not None
    assert adv.measured_rate == pytest.approx(1.0, abs=0.2)


def test_runs_complete_and_gather():
    for protocol in ("push-pull", "ears", "sears"):
        _, outcome = attack(protocol)
        assert outcome.completed
        assert outcome.rumor_gathering_ok


def test_budget_respected():
    for seed in range(5):
        _, outcome = attack("push-pull", seed=seed)
        assert outcome.crash_count <= 15


def test_registry_name():
    assert isinstance(make_adversary("informed"), InformedGossipFighter)
    adv = make_adversary("informed", probe_steps=5)
    assert adv.probe_steps == 5


def test_committed_none_before_probe_ends():
    adv = InformedGossipFighter(probe_steps=10_000)
    simulate(make_protocol("flood"), adv, n=10, f=2, seed=0)
    # Flood quiesces long before the probe window closes: the informed
    # adversary never commits — information gathering has a price.
    assert adv.committed is None
