"""Tests for the ASCII chart renderer."""

import pytest

from repro.errors import ConfigurationError
from repro.viz.ascii_chart import AsciiChart, render_panel, render_series


def test_single_series_renders():
    chart = AsciiChart(title="demo", width=30, height=8)
    chart.add_series("lin", [1, 2, 3, 4], [1, 2, 3, 4])
    out = chart.render()
    lines = out.splitlines()
    assert lines[0] == "demo"
    assert "a = lin" in lines[-1]
    assert any("a" in line for line in lines[1:-2])


def test_monotone_series_is_monotone_on_grid():
    chart = AsciiChart(width=40, height=10)
    xs = [1, 10, 20, 30, 40]
    ys = [1.0, 10.0, 20.0, 30.0, 40.0]
    chart.add_series("m", xs, ys)
    out = chart.render()
    rows = [line.split("|", 1)[1] for line in out.splitlines() if "|" in line]
    # Column index of the glyph must increase as the row index falls
    # (higher y -> earlier row, larger x -> later column).
    positions = [
        (r, line.index("a")) for r, line in enumerate(rows) if "a" in line
    ]
    cols = [c for _, c in sorted(positions)]
    assert cols == sorted(cols, reverse=True)


def test_multiple_series_distinct_glyphs():
    out = render_series(
        "two",
        {"first": ([1, 2, 3], [1, 2, 3]), "second": ([1, 2, 3], [3, 2, 1])},
    )
    assert "a = first" in out
    assert "b = second" in out


def test_log_scale_marked():
    out = render_series("msgs", {"s": ([1, 2, 3], [10, 100, 1000])}, log_y=True)
    assert "log10 y" in out
    assert "1e+" in out


def test_flat_series_does_not_crash():
    out = render_series("flat", {"s": ([1, 2, 3], [5, 5, 5])})
    assert "a = s" in out


def test_validation():
    chart = AsciiChart()
    with pytest.raises(ConfigurationError):
        chart.add_series("bad", [1, 2], [1])
    with pytest.raises(ConfigurationError):
        chart.render()  # no series
    with pytest.raises(ConfigurationError):
        big = AsciiChart()
        for i in range(11):
            big.add_series(f"s{i}", [1, 2], [1, 2])


def test_render_panel_uses_log_for_messages():
    from repro.experiments.figure3 import run_figure3_panel

    result = run_figure3_panel("3c", n_values=(8, 12), seeds=(0,))
    out = render_panel(result)
    assert "Figure 3c" in out
    assert "log10 y" in out
    result_t = run_figure3_panel("3a", n_values=(8, 12), seeds=(0,))
    assert "log10 y" not in render_panel(result_t)
