"""The observability overhead contract: metrics-on must stay cheap.

Runs the same interleaved-rounds measurement as
``benchmarks/bench_obs.py`` (imported from the file, so the gate and the
CI smoke check cannot drift apart) and asserts the metrics-on engine
overhead stays under 5% on one representative attacked trial. The
engine's inlined span timing and the network's int accumulators exist
precisely to keep this margin wide. The gate logic itself lives in
``benchmarks/overhead_gate.py`` and is checked once, through each of
the four scripts built on it (``bench_service.py`` gates its retry-policy
overhead with it, beside a latency bound of its own).
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from benchmarks import overhead_gate

_BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, _BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gate_scripts():
    names = ("bench_obs", "bench_chaos", "bench_check", "bench_service")
    return {name: _load(name) for name in names}


def _can_rounds(monkeypatch, script, ratio: float) -> None:
    """Every round reads *ratio* on the gated (second) setting."""
    row = (1.0, ratio) + (2.0,) * (len(script.SETTINGS) - 2)
    monkeypatch.setattr(overhead_gate, "measure_rounds", lambda *a: [row] * 3)


def test_metrics_overhead_under_five_percent(gate_scripts):
    bench_obs = gate_scripts["bench_obs"]
    rounds = overhead_gate.measure_rounds(
        bench_obs.run_once, bench_obs.SETTINGS, seeds=2, repeats=5
    )
    overhead = overhead_gate.paired_overhead_pct(rounds)
    assert overhead < 5.0, (
        f"metrics-on engine overhead {overhead:.1f}% breaches the 5% "
        f"contract (paired rounds: {rounds}); see benchmarks/bench_obs.py"
    )


def test_paired_overhead_takes_the_quietest_round():
    # One clean round (2% here) outvotes rounds a scheduler spike hit.
    rounds = [(1.0, 1.30), (1.0, 1.02), (1.0, 1.25)]
    assert overhead_gate.paired_overhead_pct(rounds) == pytest.approx(2.0)


def test_gate_script_fails_on_regression(gate_scripts, capsys, monkeypatch):
    # Deterministic trip-wire: with canned timings showing 50% overhead
    # in every round the gate must exit 1 (a true regression inflates
    # all rounds, so min-pairing cannot hide it).
    for script in gate_scripts.values():
        _can_rounds(monkeypatch, script, 1.5)
        assert script.main([]) == 1, script.__name__
        assert "FAIL" in capsys.readouterr().err, script.__name__


def test_gate_script_passes_within_bound(gate_scripts, capsys, monkeypatch):
    for script in gate_scripts.values():
        _can_rounds(monkeypatch, script, 1.02)
        assert script.main([]) == 0, script.__name__
        assert "+2.0%" in capsys.readouterr().out, script.__name__
