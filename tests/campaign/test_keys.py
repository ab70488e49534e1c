"""Tests for content-addressed trial keys."""

import subprocess
import sys

import pytest

from repro.campaign.keys import spec_fingerprint, trial_key
from repro.errors import ConfigurationError
from repro.experiments.config import TrialSpec


def spec(**overrides) -> TrialSpec:
    base = dict(protocol="flood", adversary="ugf", n=10, f=3, seed=0)
    base.update(overrides)
    return TrialSpec(**base)


def test_key_is_deterministic():
    assert trial_key(spec()) == trial_key(spec())


def test_key_depends_on_every_field():
    base = trial_key(spec())
    assert trial_key(spec(protocol="push-pull")) != base
    assert trial_key(spec(adversary="none")) != base
    assert trial_key(spec(n=11)) != base
    assert trial_key(spec(f=4)) != base
    assert trial_key(spec(seed=1)) != base
    assert trial_key(spec(max_steps=99)) != base
    assert trial_key(spec(environment="jitter:2,2")) != base
    assert trial_key(spec(adversary_kwargs=(("q1", 0.5),))) != base
    assert trial_key(spec(protocol_kwargs=(("eps", 0.0),))) != base


def test_kwarg_order_does_not_split_the_cache():
    a = spec(adversary_kwargs=(("q1", 0.5), ("q2", 0.25)))
    b = spec(adversary_kwargs=(("q2", 0.25), ("q1", 0.5)))
    assert trial_key(a) == trial_key(b)


def test_duplicate_kwarg_names_rejected():
    with pytest.raises(ConfigurationError, match="duplicate"):
        trial_key(spec(adversary_kwargs=(("q1", 0.5), ("q1", 0.6))))


def test_non_json_kwargs_rejected():
    with pytest.raises(ConfigurationError, match="JSON"):
        trial_key(spec(adversary_kwargs=(("group", {1, 2}),)))


def test_fingerprint_is_plain_json_data():
    fp = spec_fingerprint(spec(adversary_kwargs=(("q1", 0.5),)))
    assert fp["protocol"] == "flood"
    assert fp["adversary_kwargs"] == [["q1", 0.5]]
    assert "version" in fp


def test_key_stable_across_processes():
    """The content address must be machine-checkable from any process."""
    code = (
        "from repro.campaign.keys import trial_key\n"
        "from repro.experiments.config import TrialSpec\n"
        "print(trial_key(TrialSpec(protocol='flood', adversary='ugf', "
        "n=10, f=3, seed=0, adversary_kwargs=(('q1', 0.5),))), end='')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout == trial_key(spec(adversary_kwargs=(("q1", 0.5),)))


#: Keys written into existing caches; a change to any literal orphans
#: every cached trial of that shape.
PINNED_KEYS = [
    (spec(), "201097699ed8baf42e685f9d9140e32b66a02ac5526b238f63cba77be1282d46"),
    (
        spec(
            protocol_kwargs=(("fanout", 3), ("eps", 0.0)),
            adversary_kwargs=(("q2", 0.25), ("q1", 0.5)),
        ),
        "f5099a97cc4eab4d993e12c66079f4ca99b2f9719b071a3ec5d2d8251e5514e6",
    ),
    (
        spec(environment="jitter:2,2"),
        "68b5c45ba7db0d078cc3c07d2fbe7b6461cc0af90a15efc417134727793b2c2f",
    ),
    (spec(topology="ring"), "40157ce2abfd4ac41c31f6204f12f73e5010939d01904245bcf6b6f309f2df48"),
    (spec(topology="ring:1"), "40157ce2abfd4ac41c31f6204f12f73e5010939d01904245bcf6b6f309f2df48"),
    (spec(sanitize="strict"), "201097699ed8baf42e685f9d9140e32b66a02ac5526b238f63cba77be1282d46"),
]


@pytest.mark.parametrize("trial, key", PINNED_KEYS)
def test_keys_are_pinned(trial, key):
    assert trial_key(trial) == key
