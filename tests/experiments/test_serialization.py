"""Round-trip tests for result serialisation."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import SweepSpec, TrialSpec
from repro.experiments.figure3 import run_figure3_panel
from repro.experiments.runner import run_sweep, run_trial
from repro.experiments.serialization import (
    dumps,
    loads,
    panel_from_dict,
    sweep_from_dict,
)


def small_sweep():
    return run_sweep(
        SweepSpec(
            protocol="flood",
            adversary="str-1",
            n_values=(6, 10),
            seeds=(0, 1),
            environment=None,
        ),
    )


def test_sweep_round_trip():
    result = small_sweep()
    text = dumps(result)
    back = loads(text)
    assert back.spec == result.spec
    assert back.points == result.points


def test_panel_round_trip():
    result = run_figure3_panel("3a", n_values=(8,), seeds=(0, 1))
    back = loads(dumps(result))
    assert back.spec == result.spec
    for curve in result.curves:
        assert back.curves[curve].points == result.curves[curve].points


def test_environment_preserved():
    result = run_sweep(
        SweepSpec(
            protocol="flood",
            adversary="none",
            n_values=(6,),
            seeds=(0,),
            environment="jitter:2,2",
        ),
    )
    back = loads(dumps(result))
    assert back.spec.environment == "jitter:2,2"


def test_json_is_plain_data():
    data = json.loads(dumps(small_sweep()))
    assert data["kind"] == "sweep"
    assert data["version"] == 1
    assert isinstance(data["points"][0]["messages"]["median"], float)


def test_outcome_records_are_an_unknown_kind():
    # A raw outcome's only codec is its wire; "outcome" is no record kind.
    outcome = run_trial(
        TrialSpec(protocol="flood", adversary="none", n=6, f=0, seed=0)
    )
    with pytest.raises(ConfigurationError, match="cannot serialise Outcome"):
        dumps(outcome)  # type: ignore[arg-type]
    with pytest.raises(ConfigurationError, match="unknown record kind 'outcome'"):
        loads('{"kind": "outcome"}')


def test_bad_records_rejected():
    with pytest.raises(ConfigurationError):
        loads('{"kind": "mystery"}')
    with pytest.raises(ConfigurationError):
        sweep_from_dict({"kind": "panel"})
    with pytest.raises(ConfigurationError):
        panel_from_dict({"kind": "panel", "panel": "9z", "curves": {}})
    with pytest.raises(ConfigurationError):
        dumps(42)  # type: ignore[arg-type]
