"""JSON serialisation of experiment results.

Sweeps on the paper's full grid are expensive (SEARS at N=500 moves
~70k messages per global step); persisting results lets reports and
charts be regenerated without recomputation, and gives CI a stable
artefact format. Round-trip is exact for every aggregate the harness
reports (specs, medians, quartiles, failure counters). Two record
kinds exist, ``"sweep"`` and ``"panel"``; a raw outcome has its own
codec, :meth:`~repro.sim.outcome.Outcome.to_wire`.
"""

from __future__ import annotations

import json
from typing import Any

from repro.analysis.aggregate import RunStatistics
from repro.errors import ConfigurationError
from repro.experiments.config import SweepSpec
from repro.experiments.figure3 import PANELS, PanelResult
from repro.experiments.runner import SeriesPoint, SweepResult

__all__ = [
    "sweep_to_dict",
    "sweep_from_dict",
    "panel_to_dict",
    "panel_from_dict",
    "dumps",
    "loads",
]

_FORMAT_VERSION = 1


def _stats_to_dict(stats: RunStatistics) -> dict[str, Any]:
    return {
        "median": stats.median,
        "q1": stats.q1,
        "q3": stats.q3,
        "n_runs": stats.n_runs,
    }


def _stats_from_dict(data: dict[str, Any]) -> RunStatistics:
    return RunStatistics(
        median=float(data["median"]),
        q1=float(data["q1"]),
        q3=float(data["q3"]),
        n_runs=int(data["n_runs"]),
    )


def sweep_to_dict(result: SweepResult) -> dict[str, Any]:
    spec = result.spec
    return {
        "version": _FORMAT_VERSION,
        "kind": "sweep",
        "spec": {
            "protocol": spec.protocol,
            "adversary": spec.adversary,
            "n_values": list(spec.n_values),
            "f_of_n": spec.f_of_n,
            "seeds": list(spec.seeds),
            "max_steps": spec.max_steps,
            "protocol_kwargs": [list(kv) for kv in spec.protocol_kwargs],
            "adversary_kwargs": [list(kv) for kv in spec.adversary_kwargs],
            "environment": spec.environment,
            "topology": spec.topology,
        },
        "points": [
            {
                "n": p.n,
                "f": p.f,
                "messages": _stats_to_dict(p.messages),
                "time": _stats_to_dict(p.time),
                "truncated_runs": p.truncated_runs,
                "gather_failures": p.gather_failures,
            }
            for p in result.points
        ],
    }


def sweep_from_dict(data: dict[str, Any]) -> SweepResult:
    if data.get("kind") != "sweep":
        raise ConfigurationError(f"not a sweep record: kind={data.get('kind')!r}")
    s = data["spec"]
    spec = SweepSpec(
        protocol=s["protocol"],
        adversary=s["adversary"],
        n_values=tuple(s["n_values"]),
        f_of_n=float(s["f_of_n"]),
        seeds=tuple(s["seeds"]),
        max_steps=int(s["max_steps"]),
        protocol_kwargs=tuple(tuple(kv) for kv in s["protocol_kwargs"]),
        adversary_kwargs=tuple(tuple(kv) for kv in s["adversary_kwargs"]),
        environment=s.get("environment"),
        topology=s.get("topology"),
    )
    points = tuple(
        SeriesPoint(
            n=int(p["n"]),
            f=int(p["f"]),
            messages=_stats_from_dict(p["messages"]),
            time=_stats_from_dict(p["time"]),
            truncated_runs=int(p["truncated_runs"]),
            gather_failures=int(p["gather_failures"]),
        )
        for p in data["points"]
    )
    return SweepResult(spec=spec, points=points)


def panel_to_dict(result: PanelResult) -> dict[str, Any]:
    return {
        "version": _FORMAT_VERSION,
        "kind": "panel",
        "panel": result.spec.panel,
        "curves": {
            name: sweep_to_dict(sweep) for name, sweep in result.curves.items()
        },
    }


def panel_from_dict(data: dict[str, Any]) -> PanelResult:
    if data.get("kind") != "panel":
        raise ConfigurationError(f"not a panel record: kind={data.get('kind')!r}")
    panel = data["panel"]
    if panel not in PANELS:
        raise ConfigurationError(f"unknown panel in record: {panel!r}")
    curves = {
        name: sweep_from_dict(sweep) for name, sweep in data["curves"].items()
    }
    return PanelResult(spec=PANELS[panel], curves=curves)


def dumps(result: SweepResult | PanelResult, *, indent: int | None = 2) -> str:
    """Serialise a sweep or panel to JSON text."""
    if isinstance(result, SweepResult):
        return json.dumps(sweep_to_dict(result), indent=indent)
    if isinstance(result, PanelResult):
        return json.dumps(panel_to_dict(result), indent=indent)
    raise ConfigurationError(f"cannot serialise {type(result).__name__}")


def loads(text: str) -> SweepResult | PanelResult:
    """Deserialise JSON text produced by :func:`dumps`."""
    data = json.loads(text)
    kind = data.get("kind")
    if kind == "sweep":
        return sweep_from_dict(data)
    if kind == "panel":
        return panel_from_dict(data)
    raise ConfigurationError(f"unknown record kind {kind!r}")
