"""Tests for table/CSV rendering."""

import csv
import io

from repro.experiments.figure3 import run_figure3_panel
from repro.experiments.report import (
    format_table,
    panel_csv,
    panel_table,
    shape_summary,
    sweep_csv,
)
from repro.experiments.runner import run_sweep
from repro.experiments.config import SweepSpec


def small_panel():
    return run_figure3_panel("3a", n_values=(8, 12), seeds=(0, 1))


def test_format_table_alignment():
    text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
    lines = text.splitlines()
    assert len(lines) == 4
    widths = {len(line) for line in lines}
    assert len(widths) == 1  # all rows equally wide


def test_panel_table_contains_ns_and_curves():
    table = panel_table(small_panel())
    assert "Figure 3a" in table
    assert "no-adversary" in table and "max-ugf" in table
    assert " 8 " in table or "8  " in table


def test_shape_summary_mentions_expectations():
    summary = shape_summary(small_panel())
    assert "paper expects" in summary
    assert "log" in summary


def test_sweep_csv_parses_back():
    result = run_sweep(
        SweepSpec(protocol="flood", adversary="none", n_values=(5,), seeds=(0, 1)),
    )
    text = sweep_csv(result)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 1
    assert rows[0]["protocol"] == "flood"
    assert float(rows[0]["messages_median"]) == 20.0


def test_panel_csv_one_per_curve():
    csvs = panel_csv(small_panel())
    assert set(csvs) == {"no-adversary", "ugf", "max-ugf"}
    for text in csvs.values():
        assert text.startswith("protocol,")
