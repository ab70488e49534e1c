"""``compare A/ B/``: one row per (workload, end-to-end metric).

Verdicts follow the choosing-metrics guide: B is ``ok`` when its median
is no worse than A's by more than the metric's bound; when the
run-to-run spread (quartile distance over median, either side) is wider
than the bound the row is ``unresolved`` rather than unchanged — unless
every B run beats every A run. ``regressed`` needs a median past the
bound with the spread inside it, or every B run worse than every A run.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from dataclasses import dataclass

__all__ = ["Row", "compare_sets", "load_set", "render", "summarize"]


@dataclass(frozen=True, slots=True)
class Summary:
    median: float
    q1: float
    q3: float
    n: int

    @property
    def spread(self) -> float:
        return (self.q3 - self.q1) / self.median if self.median else 0.0


@dataclass(frozen=True, slots=True)
class Row:
    workload: str
    metric: str
    unit: str
    bound: float
    a: Summary
    b: Summary
    worse_by: float
    verdict: str


def summarize(values: list[float]) -> Summary:
    if len(values) < 2:
        return Summary(values[0], values[0], values[0], len(values))
    q1, median, q3 = statistics.quantiles(values, n=4)
    return Summary(median, q1, q3, len(values))


def load_set(directory: pathlib.Path) -> dict[tuple[str, str], list[float]]:
    """Every untraced, comparable value under *directory*, keyed by
    (workload, metric)."""
    values: dict[tuple[str, str], list[float]] = {}
    files = sorted(directory.rglob("results.json"))
    if not files:
        raise SystemExit(f"compare: no results.json under {directory}")
    for path in files:
        for run in json.loads(path.read_text())["runs"]:
            if run["traced"] or run["smoke"]:
                continue
            for name, metric in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def _verdict(a: list[float], b: list[float], worse_by: float, spread: float, bound: float, lower: bool) -> str:
    if lower:
        all_better, all_worse = max(b) < min(a), min(b) > max(a)
    else:
        all_better, all_worse = min(b) > max(a), max(b) < min(a)
    if all_better:
        return "ok"
    if all_worse and worse_by > bound:
        return "regressed"
    if spread > bound:
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare_sets(a_dir: pathlib.Path, b_dir: pathlib.Path, benchmark: dict) -> list[Row]:
    a_values, b_values = load_set(a_dir), load_set(b_dir)
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for spec in benchmark["end_to_end"]:
            key = (workload, spec["name"])
            if key not in a_values or key not in b_values:
                continue
            a, b = summarize(a_values[key]), summarize(b_values[key])
            lower = spec["better"] == "lower"
            change = (b.median - a.median) / a.median
            worse_by = change if lower else -change
            rows.append(
                Row(
                    workload=workload,
                    metric=spec["name"],
                    unit=spec["unit"],
                    bound=spec["bound"],
                    a=a,
                    b=b,
                    worse_by=worse_by,
                    verdict=_verdict(
                        a_values[key], b_values[key], worse_by,
                        max(a.spread, b.spread), spec["bound"], lower,
                    ),
                )
            )
    return rows


def render(rows: list[Row]) -> str:
    header = (
        f"{'workload':<16} {'metric':<17} {'unit':<9} "
        f"{'A median [q1..q3] n':<34} {'B median [q1..q3] n':<34} "
        f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = [
            f"{s.median:.4g} [{s.q1:.4g}..{s.q3:.4g}] {s.n}" for s in (row.a, row.b)
        ]
        lines.append(
            f"{row.workload:<16} {row.metric:<17} {row.unit:<9} "
            f"{cells[0]:<34} {cells[1]:<34} "
            f"{row.worse_by:>+9.1%} {max(row.a.spread, row.b.spread):>7.1%} {row.bound:>6.0%}  {row.verdict}"
        )
    return "\n".join(lines)
