"""Unit tests for the Outcome record, its wire and complexity measures."""

import json

import numpy as np
import pytest

from repro.errors import IncompleteRunError
from repro.experiments.config import TrialSpec
from repro.experiments.runner import run_trial
from repro.sim.outcome import Outcome


def make_outcome(**overrides) -> Outcome:
    base = dict(
        n=4,
        f=2,
        seed=0,
        protocol_name="p",
        adversary_name="a",
        completed=True,
        rumor_gathering_ok=True,
        t_end=30,
        max_local_step_time=2,
        max_delivery_time=3,
        sent=np.array([5, 0, 7, 1]),
        received=np.array([1, 2, 3, 4]),
        bytes_sent=np.array([50, 0, 70, 10]),
        crashed=(1,),
        crash_steps={1: 0},
        sleep_counts=np.array([1, 0, 1, 1]),
        wake_counts=np.array([0, 0, 0, 0]),
        steps_simulated=12,
    )
    base.update(overrides)
    return Outcome(**base)


def test_message_complexity_sums_all_processes():
    # Definition II.3: crashed processes' sends count too.
    assert make_outcome().message_complexity() == 13


def test_per_process_message_complexity():
    o = make_outcome()
    assert o.message_complexity_of(2) == 7
    assert o.message_complexity_of(1) == 0


def test_time_complexity_normalisation():
    # T(O) = T_end / (delta + d) = 30 / 5.
    assert make_outcome().time_complexity() == 6.0


def test_truncated_run_guards_measures():
    o = make_outcome(completed=False)
    with pytest.raises(IncompleteRunError):
        o.message_complexity()
    with pytest.raises(IncompleteRunError):
        o.time_complexity()
    with pytest.raises(IncompleteRunError):
        o.message_complexity_of(0)
    assert o.message_complexity(allow_truncated=True) == 13


def test_correct_excludes_crashed():
    assert make_outcome().correct.tolist() == [0, 2, 3]


def test_crash_count():
    assert make_outcome().crash_count == 1
    assert make_outcome(crashed=(), crash_steps={}).crash_count == 0


def test_bandwidth_sums_bytes():
    o = make_outcome()
    assert o.bandwidth() == 130
    with pytest.raises(IncompleteRunError):
        make_outcome(completed=False).bandwidth()


def test_summary_mentions_truncation():
    assert "TRUNCATED" in make_outcome(completed=False).summary()
    assert "M=13" in make_outcome().summary()


# -- wire format -----------------------------------------------------------------


def assert_outcomes_identical(a, b):
    """Field-by-field bit-identity, numpy arrays included."""
    for name in (
        "n", "f", "seed", "protocol_name", "adversary_name", "completed",
        "rumor_gathering_ok", "t_end", "max_local_step_time",
        "max_delivery_time", "crashed", "crash_steps", "steps_simulated",
        "strategy_label", "topology",
    ):
        assert getattr(a, name) == getattr(b, name), name
    for name in ("sent", "received", "bytes_sent", "sleep_counts", "wake_counts"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name


def test_wire_round_trip_preserves_every_field():
    outcome = make_outcome(
        strategy_label="str-2.1.0",
        sanitizer={"mode": "warn", "total_violations": 0},
    )
    back = Outcome.from_wire(outcome.to_wire())
    assert_outcomes_identical(outcome, back)
    assert back.sanitizer == outcome.sanitizer


def test_wire_survives_json_byte_identically():
    outcome = make_outcome()
    wire = outcome.to_wire()
    decoded = json.loads(json.dumps(wire))
    assert decoded == wire
    assert Outcome.from_wire(decoded).to_wire() == wire


def test_wire_rejects_unknown_versions():
    wire = make_outcome().to_wire()
    wire[0] = 999
    with pytest.raises(ValueError, match="wire version"):
        Outcome.from_wire(wire)
    with pytest.raises(ValueError, match="wire version"):
        Outcome.from_wire([])


def json_round_trip(outcome: Outcome) -> Outcome:
    return Outcome.from_wire(json.loads(json.dumps(outcome.to_wire())))


def test_outcome_round_trip_bit_identical():
    outcome = run_trial(
        TrialSpec(protocol="push-pull", adversary="ugf", n=14, f=4, seed=3)
    )
    back = json_round_trip(outcome)
    assert_outcomes_identical(outcome, back)
    assert back.message_complexity(allow_truncated=True) == outcome.message_complexity(
        allow_truncated=True
    )
    assert back.time_complexity(allow_truncated=True) == outcome.time_complexity(
        allow_truncated=True
    )


def test_outcome_round_trip_preserves_crash_records():
    outcome = run_trial(
        TrialSpec(protocol="ears", adversary="str-1", n=12, f=6, seed=0)
    )
    assert outcome.crashed  # Strategy 1 crashes its group
    back = json_round_trip(outcome)
    assert_outcomes_identical(outcome, back)
    assert back.crash_steps == outcome.crash_steps


def test_outcome_round_trip_preserves_strategy_label():
    outcome = run_trial(
        TrialSpec(protocol="flood", adversary="ugf", n=10, f=3, seed=1)
    )
    assert outcome.strategy_label in ("str-1", "str-2.1.0", "str-2.1.1")
    assert json_round_trip(outcome).strategy_label == outcome.strategy_label
