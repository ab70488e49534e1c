"""The harness's ratio gates (``benchmarks/gates.py``), checked as a table.

One row is measured for real — metrics-on engine overhead stays under 5%
on one representative attacked trial, through the row CI runs, so the
test and the gate cannot drift apart; the engine's inlined span timing
and the network's int accumulators exist precisely to keep this margin
wide. Every row's verdict logic is then tripped deterministically with
canned readings on both sides of its bound.
"""

from __future__ import annotations

import dataclasses

import pytest

from benchmarks import gates


def _can(monkeypatch, row, reading: float) -> None:
    canned = dataclasses.replace(row, measure=lambda: (reading, []))
    monkeypatch.setitem(gates.GATES, row.name, canned)


def test_metrics_overhead_under_five_percent():
    row = gates.GATES["metrics"]
    overhead, notes = row.measure()
    assert overhead < row.bound == 5.0, (
        f"metrics-on engine overhead {overhead:.1f}% breaches the 5% "
        f"contract ({notes}); see the metrics row of benchmarks/gates.py"
    )


def test_paired_overhead_takes_the_quietest_round():
    # One clean round (2% here) outvotes rounds a scheduler spike hit.
    rounds = [(1.0, 1.30), (1.0, 1.02), (1.0, 1.25)]
    assert gates.paired_overhead_pct(rounds) == pytest.approx(2.0)


def test_gate_script_fails_on_regression(capsys, monkeypatch):
    # Deterministic trip-wire: a reading 1.5x past the bound — over a
    # ceiling, under a floor — must exit 1 and name the row.
    for row in gates.GATES.values():
        past = row.bound * 1.5 if row.kind == "ceiling" else row.bound / 1.5
        _can(monkeypatch, row, past)
        assert gates.main([row.name]) == 1, row.name
        captured = capsys.readouterr()
        assert "FAIL" in captured.out and captured.err == f"FAIL: {row.name}\n"


def test_gate_script_passes_within_bound(capsys, monkeypatch):
    for row in gates.GATES.values():
        inside = row.bound * (0.98 if row.kind == "ceiling" else 1.02)
        _can(monkeypatch, row, inside)
    assert len(gates.GATES) == 7
    assert gates.main([]) == 0  # no name: every row
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == list(gates.GATES)
    assert all(" ok " in line and row.unit.format(row.bound).lstrip("+") in line
               for line, row in zip(out, gates.GATES.values()))


def test_unknown_row_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        gates.main(["metrics", "no-such-row"])
    assert exit_.value.code == 2
    assert "no such row: no-such-row" in capsys.readouterr().err
