"""Self-test of the benchmark suite.

Run as ``PYTHONPATH=src python -m pytest benchmarks/suite -q`` — kept
out of ``tests/`` so tier-1 time is unchanged.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

from repro.backends.batch import why_ineligible

from benchmarks.suite import compare
from benchmarks.suite.layers import PER_LAYER_UNITS
from benchmarks.suite.runner import E2E_UNITS, ROOT, SRC_DIR
from benchmarks.suite.workloads import WORKLOADS

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

CELLS = {
    "cold_batch_rand": 108,
    "cold_batch_det": 100,
    "cold_scalar": 112,
    "svc_warm": 36,
    "svc_cold_shared": 18,
}


def _seeds(subs):
    return {(sub.cell, seed) for sub in subs for seed in sub.seeds}


# -- generator -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(name):
    w = WORKLOADS[name]
    assert w.round(5, 1, w.block) == w.round(5, 1, w.block)
    assert w.round(5, 1, w.block) != w.round(6, 1, w.block)
    assert w.prime(5, w.block) == w.prime(5, w.block)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_cell_and_submission_counts(name):
    w = WORKLOADS[name]
    assert len(w.cells) == len(set(w.cells)) == CELLS[name]
    clients = w.round(0, 0, w.block)
    assert len(clients) == w.clients
    per_client = CELLS[name] * (2 if w.pattern == "shared" else 1)
    assert [len(subs) for subs in clients] == [per_client] * w.clients
    # a p90 needs ten samples beyond it, however short the run
    assert w.rounds_for(0) * per_client * w.clients >= 100
    assert w.rounds_for(10) == {"cold": 1, "replay": 12, "shared": 10}[w.pattern]
    # below the daemon's admission ceiling by a wide margin
    assert all(len(sub.seeds) <= 512 for subs in clients for sub in subs)


def test_fresh_rounds_never_repeat_a_trial():
    for w in WORKLOADS.values():
        if w.pattern == "replay":
            continue
        first = _seeds(sub for subs in w.round(3, 0, w.block) for sub in subs)
        second = _seeds(sub for subs in w.round(3, 1, w.block) for sub in subs)
        assert not first & second, w.name
        warm = _seeds(w.warmup())
        assert not warm & (first | second), w.name


def test_replay_rounds_request_exactly_what_was_primed():
    w = WORKLOADS["svc_warm"]
    primed = _seeds(w.prime(3, w.block))
    assert len(primed) > 4096  # more keys than the daemon memo holds
    for r in range(3):
        (subs,) = w.round(3, r, w.block)
        assert _seeds(subs) == primed
    assert w.round(3, 0, w.block) != w.round(3, 1, w.block)  # order is reshuffled


def test_shared_workload_shares_exactly_a_quarter():
    w = WORKLOADS["svc_cold_shared"]
    a, b = w.round(2, 0, w.block)
    requested = sum(len(sub.seeds) for sub in a + b)
    assert 4 * len(_seeds(a) & _seeds(b)) == requested
    assert [sub.cell for sub in a] == [sub.cell for sub in b]  # they collide in flight


def test_cell_subset_rounds_keep_the_same_seeds():
    w = WORKLOADS["cold_batch_det"]
    only = frozenset(w.cells[::3])
    (full,) = w.round(1, 0, w.block)
    (part,) = w.round(1, 0, w.block, only)
    assert {sub.cell for sub in part} == only
    assert _seeds(part) <= _seeds(full)


@pytest.mark.parametrize("name", ["cold_batch_rand", "cold_batch_det", "cold_scalar"])
def test_routing(name):
    w = WORKLOADS[name]
    reasons = [why_ineligible(sub.specs()[0]) for sub in w.round(0, 0, 1)[0]]
    if name == "cold_scalar":
        assert all(reason is not None for reason in reasons)
    else:
        assert all(reason is None for reason in reasons)


# -- BENCHMARK.json ----------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    name_ok = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit_ok = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why and len(entry["why"]) <= 200
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == E2E_UNITS
    assert layer == PER_LAYER_UNITS
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(name_ok.match(n) for n in names)
    assert all(unit_ok.match(u) for u in [*e2e.values(), *layer.values()])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert BENCHMARK["paths"] == ["benchmarks/suite"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/suite/run.py"]


# -- compare -------------------------------------------------------------------------


def _result_tree(root: pathlib.Path, values: list[float]) -> pathlib.Path:
    for i, value in enumerate(values):
        run = {
            "workload": "cold_scalar",
            "traced": False,
            "smoke": False,
            "metrics": {"submit_p50_ms": {"value": value, "unit": "ms"}},
        }
        path = root / f"seed{i}" / "results.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"runs": [run]}))
    return root


@pytest.mark.parametrize(
    "b_values, verdict",
    [
        ([100, 101, 102, 103, 99], "ok"),
        ([130, 131, 129, 132, 130], "regressed"),
        ([70, 71, 69, 72, 70], "ok"),
        ([60, 140, 100, 80, 125], "unresolved"),
    ],
)
def test_compare_verdicts(tmp_path, b_values, verdict):
    a = _result_tree(tmp_path / "a", [100, 101, 99, 102, 98])
    b = _result_tree(tmp_path / "b", b_values)
    rows = compare.compare_sets(a, b, BENCHMARK)
    assert [(r.workload, r.metric, r.verdict) for r in rows] == [
        ("cold_scalar", "submit_p50_ms", verdict)
    ]


# -- end to end ------------------------------------------------------------------------


def _suite(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", *args],
        cwd=ROOT,
        env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_smoke_runs_every_workload_end_to_end(tmp_path):
    done = _suite("run", "--smoke", "--untraced", "--seconds", "0", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr[-2000:]
    results = json.loads((tmp_path / "seed0" / "results.json").read_text())
    assert results["smoke"] and results["environment"]["wire_version"]
    assert [run["workload"] for run in results["runs"]] == list(WORKLOADS)
    for run in results["runs"]:
        assert run["correct"] and run["smoke"] and run["failed"] == 0
        assert set(run["metrics"]) == set(E2E_UNITS)
        assert all(m["value"] > 0 for m in run["metrics"].values())
        assert run["detail"]["check"]["oracle_checked"] == 16
    for name in E2E_UNITS:
        assert name in done.stdout


def test_smoke_traced_run_reports_every_layer(tmp_path):
    done = _suite(
        "run", "--smoke", "--traced", "--workload", "svc_cold_shared", "--out", str(tmp_path)
    )
    assert done.returncode == 0, done.stderr[-2000:]
    (run,) = json.loads((tmp_path / "seed0" / "results.json").read_text())["runs"]
    assert run["correct"] and run["traced"]
    assert set(run["metrics"]) == set(PER_LAYER_UNITS)
    assert run["metrics"]["server.shared_frac"]["value"] == 0.25
    assert run["metrics"]["server.busy_rejections"]["value"] == 0
    spans = json.loads((tmp_path / "seed0" / "trace_svc_cold_shared.json").read_text())["spans"]
    submits = [s for s in spans if s["name"] == "submit"]
    assert submits and all(s["end"] >= s["start"] and s["submission"] for s in submits)
    assert any(s["parent"] == submits[0]["id"] for s in spans)


def test_driver_entry_refuses_a_tree_without_the_program(tmp_path):
    bare = tmp_path / "benchmarks" / "suite"
    bare.mkdir(parents=True)
    for path in (ROOT / "benchmarks" / "suite").iterdir():
        if path.is_file():
            (bare / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "svc_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
