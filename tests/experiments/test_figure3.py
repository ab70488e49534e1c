"""Tests for the Figure 3 panel harness (tiny grids)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.figure3 import (
    CURVES,
    PANELS,
    figure3_sweeps,
    run_figure3_panel,
)


def test_all_five_panels_defined():
    assert set(PANELS) == {"3a", "3b", "3c", "3d", "3e"}
    assert PANELS["3a"].max_strategy == "str-1"
    assert PANELS["3b"].max_strategy == "str-2.1.0"
    for panel in ("3c", "3d", "3e"):
        assert PANELS[panel].max_strategy == "str-2.1.1"


def test_quantities_match_paper():
    assert PANELS["3a"].quantity == "time"
    assert PANELS["3b"].quantity == "time"
    assert PANELS["3c"].quantity == "messages"
    assert PANELS["3e"].protocol == "sears"


def test_sweeps_have_three_curves():
    sweeps = figure3_sweeps("3a", n_values=(10, 20), seeds=(0, 1))
    assert set(sweeps) == set(CURVES)
    assert sweeps["no-adversary"].adversary == "none"
    assert sweeps["ugf"].adversary == "ugf"
    assert sweeps["max-ugf"].adversary == "str-1"
    assert sweeps["ugf"].n_values == (10, 20)


def test_unknown_panel_rejected():
    with pytest.raises(ConfigurationError):
        figure3_sweeps("3z")


def test_run_panel_tiny_grid():
    result = run_figure3_panel("3a", n_values=(10, 14), seeds=(0, 1))
    assert set(result.curves) == set(CURVES)
    ns, medians = result.series("no-adversary")
    assert ns == [10, 14]
    assert all(m > 0 for m in medians)


def test_panel_attack_exceeds_baseline_messages():
    result = run_figure3_panel("3d", n_values=(20, 30), seeds=(0, 1, 2))
    _, base = result.series("no-adversary")
    _, attacked = result.series("max-ugf")
    assert all(a > b for a, b in zip(attacked, base))
