"""Property: every registered protocol x adversary passes strict cleanly.

This is the sanitizer's positive contract — the engine upholds every
§II invariant the monitors encode, for every protocol and adversary in
the registries, and turning the monitors on does not perturb results.
"""

from dataclasses import replace

import pytest

from repro.core.registry import available_adversaries, make_adversary
from repro.protocols.registry import available_protocols, make_protocol
from repro.sim.engine import simulate

ADVERSARIES = [a for a in available_adversaries() if "<" not in a] + [
    "str-2.1.0",
    "str-2.1.1",
]


@pytest.mark.parametrize("protocol", available_protocols())
@pytest.mark.parametrize("adversary", ADVERSARIES)
def test_strict_full_monitors_pass(protocol, adversary):
    report = simulate(
        make_protocol(protocol),
        make_adversary(adversary),
        n=10,
        f=3,
        seed=11,
        max_steps=500_000,
        sanitize="strict",
    )
    data = report.outcome.sanitizer
    assert data is not None
    assert data["ok"] is True
    assert data["total_violations"] == 0
    # Evidence the monitors actually saw the run.
    assert data["local_steps_checked"] > 0


@pytest.mark.parametrize("seed", range(3))
def test_strict_with_jitter_environment(seed):
    # Environment baselines retime processes *before* the adversary
    # acts; the monitors must not mistake them for adversary retimes.
    report = simulate(
        make_protocol("push-pull"),
        make_adversary("ugf"),
        n=12,
        f=4,
        seed=seed,
        environment="jitter",
        sanitize="strict",
    )
    assert report.outcome.sanitizer["total_violations"] == 0


def test_sanitizing_does_not_perturb_the_outcome():
    def once(sanitize):
        return simulate(
            make_protocol("ears"),
            make_adversary("ugf"),
            n=14,
            f=4,
            seed=5,
            sanitize=sanitize,
        ).outcome

    # The sanitizer report is instrumentation, not result.
    plain = replace(once(None), sanitizer=None).to_wire()
    checked = replace(once("strict"), sanitizer=None).to_wire()
    assert plain == checked
