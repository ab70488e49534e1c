"""Campaign routing: deterministic, silently falling back, and counted."""

import json

import pytest

from repro.backends.registry import get_backend, route
from repro.campaign import Campaign
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.config import TrialSpec
from repro.experiments.runner import run_trial
from repro.obs.registry import MetricsRegistry

BATCHABLE = [
    TrialSpec(protocol="flood", adversary="str-1", n=8, f=3, seed=s)
    for s in range(4)
]
SCALAR_ONLY = [
    TrialSpec(protocol="coordinator", adversary="none", n=8, f=0, seed=s)
    for s in range(3)
]


def counter(metrics: MetricsRegistry, name: str) -> int:
    return metrics.counters.get(name, 0)


@pytest.fixture(autouse=True)
def _default_sanitizer_mode(monkeypatch):
    """Under $REPRO_SANITIZE=strict every spec is batch-ineligible and
    routing collapses to all-scalar (pinned by test_eligibility); these
    tests exercise the mixed batch/scalar paths, so they run with the
    sanitizer at its default."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)


def test_auto_routes_by_eligibility():
    metrics = MetricsRegistry()
    with Campaign(workers=1, metrics=metrics) as campaign:
        results = campaign.run_trials(BATCHABLE + SCALAR_ONLY)
    assert all(r.ok for r in results)
    assert [r.backend for r in results] == ["batch"] * 4 + ["scalar"] * 3
    assert counter(metrics, "campaign.backend_batch") == 4
    assert counter(metrics, "campaign.backend_scalar") == 3
    # The ineligible specs fell back silently — no failures, counted.
    assert counter(metrics, "campaign.backend_fallbacks") == 3


def test_eligibility_verdicts_are_memoized_per_cell():
    """A sweep's cache misses share a handful of cells; only the first
    spec of a cell derives a verdict, the rest are counted memo hits."""
    from repro.backends.batch import clear_eligibility_memo

    clear_eligibility_memo()
    metrics = MetricsRegistry()
    specs = [
        TrialSpec(protocol="push", adversary="ugf", n=6, f=2, seed=s)
        for s in range(10)
    ]
    with Campaign(workers=1, metrics=metrics, use_cache=False) as campaign:
        results = campaign.run_trials(specs)
    assert all(r.ok for r in results)
    assert counter(metrics, "backends.eligibility_memo_hits") >= len(specs) - 1


def test_routing_is_deterministic():
    decisions = []
    for _ in range(3):
        with Campaign(workers=1, use_cache=False) as campaign:
            results = campaign.run_trials(BATCHABLE + SCALAR_ONLY)
        decisions.append([r.backend for r in results])
    assert decisions[0] == decisions[1] == decisions[2]


def test_routing_never_changes_outcomes():
    with Campaign(workers=1, backend="auto") as auto_campaign:
        auto = auto_campaign.run_trials(BATCHABLE + SCALAR_ONLY)
    with Campaign(workers=1, backend="scalar") as scalar_campaign:
        forced = scalar_campaign.run_trials(BATCHABLE + SCALAR_ONLY)
    for a, s in zip(auto, forced):
        assert json.dumps(a.outcome.to_wire()) == json.dumps(s.outcome.to_wire())


def test_observer_cells_route_to_batch_with_scalar_outcomes():
    """`informed` and `greedy-oracle` were the last clique columns of
    the kernel protocols that fell back (ISSUE 21)."""
    specs = [
        TrialSpec(protocol="ears", adversary=adversary, n=10, f=4, seed=s)
        for adversary in ("informed", "greedy-oracle")
        for s in range(2)
    ]
    metrics = MetricsRegistry()
    with Campaign(workers=1, metrics=metrics, use_cache=False) as campaign:
        auto = campaign.run_trials(specs)
    assert [r.backend for r in auto] == ["batch"] * 4
    assert counter(metrics, "campaign.backend_fallbacks") == 0
    with Campaign(workers=1, backend="scalar", use_cache=False) as campaign:
        forced = campaign.run_trials(specs)
    for a, s in zip(auto, forced):
        assert json.dumps(a.outcome.to_wire()) == json.dumps(s.outcome.to_wire())


def test_hedged_and_static_topology_cells_route_to_batch_with_scalar_outcomes():
    """The last `cold_scalar` kinds (ISSUE 22): hedged-push-pull and
    push-pull on the static graphs run inline on the wave engine; a
    `dynamic:*` graph still falls back, silently and counted."""
    specs = [
        TrialSpec(
            protocol=protocol, adversary="ugf", n=12, f=4, seed=s, topology=topology
        )
        for protocol, topology in (
            ("hedged-push-pull", None),
            ("push-pull", "ring:2"),
            ("push-pull", "random-regular:4"),
            ("push-pull", "expander"),
            ("push-pull", "dynamic:ring:2:0.1"),
        )
        for s in range(2)
    ]
    metrics = MetricsRegistry()
    with Campaign(workers=1, metrics=metrics, use_cache=False) as campaign:
        auto = campaign.run_trials(specs)
    assert [r.backend for r in auto] == ["batch"] * 8 + ["scalar"] * 2
    assert counter(metrics, "campaign.backend_fallbacks") == 2
    with Campaign(workers=1, backend="scalar", use_cache=False) as campaign:
        forced = campaign.run_trials(specs)
    for a, s in zip(auto, forced):
        assert json.dumps(a.outcome.to_wire()) == json.dumps(s.outcome.to_wire())
    assert [r.outcome.topology for r in auto[2:4]] == ["ring:2"] * 2


def test_forced_scalar_uses_no_batch():
    metrics = MetricsRegistry()
    with Campaign(workers=1, metrics=metrics, backend="scalar") as campaign:
        results = campaign.run_trials(BATCHABLE)
    assert [r.backend for r in results] == ["scalar"] * len(BATCHABLE)
    assert counter(metrics, "campaign.backend_batch") == 0
    assert counter(metrics, "campaign.backend_fallbacks") == 0


def test_forced_batch_fails_ineligible_trials():
    with Campaign(workers=1, backend="batch") as campaign:
        results = campaign.run_trials(BATCHABLE + SCALAR_ONLY)
    for r in results[: len(BATCHABLE)]:
        assert r.ok and r.backend == "batch"
    for r in results[len(BATCHABLE):]:
        assert not r.ok
        assert "ineligible" in r.error


def test_raising_batch_backend_warns_counts_and_falls_back(monkeypatch):
    """A batch-kernel exception under ``auto`` must not degrade silently:
    one RuntimeWarning per session naming the cell and the exception,
    the counter, and scalar-identical outcomes."""
    from repro.backends import BatchBackend

    def boom(self, specs, *, metrics=None):
        raise IndexError("index 7 is out of bounds")

    monkeypatch.setattr(BatchBackend, "run_batch", boom)
    metrics = MetricsRegistry()
    with Campaign(workers=1, metrics=metrics, use_cache=False) as campaign:
        with pytest.warns(RuntimeWarning) as caught:
            results = campaign.run_trials(BATCHABLE)
            campaign.run_trials(BATCHABLE)  # second failure: counted only
    assert len(caught) == 1
    message = str(caught[0].message)
    assert "IndexError: index 7 is out of bounds" in message
    assert "flood x str-1 N=8 F=3" in message and "scalar" in message
    assert counter(metrics, "campaign.backend_batch_errors") == 2 * len(BATCHABLE)
    assert [r.backend for r in results] == ["scalar"] * len(BATCHABLE)
    with Campaign(workers=1, backend="scalar", use_cache=False) as campaign:
        forced = campaign.run_trials(BATCHABLE)
    for a, s in zip(results, forced):
        assert json.dumps(a.outcome.to_wire()) == json.dumps(s.outcome.to_wire())


def test_unknown_backend_mode_rejected():
    from repro.errors import CampaignError

    with pytest.raises(CampaignError, match="unknown backend mode"):
        Campaign(workers=1, backend="gpu")


@pytest.mark.parametrize(
    "sites, backend",
    [((), "batch"), (("store.fsync",), "batch"), (("trial.exception",), "scalar")],
    ids=["empty", "store-fsync", "trial-exception"],
)
def test_armed_fault_plan_pins_scalar(sites, backend):
    """Trial faults inject at a per-trial site the batch kernel lacks, so
    a plan arming one routes everything through the oracle; an empty
    plan or a store plan keeps the batch engine. The rules are armed at
    rate 0, so every trial succeeds."""
    from repro.chaos import FaultPlan, FaultRule

    plan = FaultPlan(seed=7, rules=tuple(FaultRule(site, rate=0.0) for site in sites))
    with Campaign(workers=1, fault_plan=plan) as campaign:
        results = campaign.run_trials(BATCHABLE)
    assert all(r.ok for r in results)
    assert [r.backend for r in results] == [backend] * len(BATCHABLE)


def test_cached_results_have_no_backend():
    with Campaign(workers=1) as campaign:
        first = campaign.run_trials(BATCHABLE)
        second = campaign.run_trials(BATCHABLE)
    assert [r.backend for r in first] == ["batch"] * len(BATCHABLE)
    assert all(r.cached and r.backend is None for r in second)


def test_telemetry_records_backend(tmp_path):
    with Campaign(
        workers=1, cache_dir=tmp_path, metrics=MetricsRegistry()
    ) as campaign:
        campaign.run_trials(BATCHABLE + SCALAR_ONLY)
    records = [
        json.loads(line)
        for line in (tmp_path / "telemetry.jsonl").read_text().splitlines()
    ]
    trials = [r for r in records if r.get("kind") == "trial"]
    assert sorted(
        r["backend"] for r in trials if r["status"] == "executed"
    ) == ["batch"] * 4 + ["scalar"] * 3


def test_batch_results_persist_and_replay(tmp_path):
    with Campaign(workers=1, cache_dir=tmp_path) as campaign:
        first = campaign.run_trials(BATCHABLE)
    with Campaign(workers=1, cache_dir=tmp_path) as campaign:
        second = campaign.run_trials(BATCHABLE)
    assert all(r.cached for r in second)
    for a, b in zip(first, second):
        assert json.dumps(a.outcome.to_wire()) == json.dumps(b.outcome.to_wire())


def test_run_trial_modes_agree():
    spec, slow_spec = BATCHABLE[0], SCALAR_ONLY[0]
    scalar_wire = json.dumps(run_trial(spec, backend="scalar").to_wire())
    for mode in ("auto", "batch"):
        assert json.dumps(run_trial(spec, backend=mode).to_wire()) == scalar_wire
    with pytest.raises(ConfigurationError, match="unknown backend mode"):
        run_trial(spec, backend="gpu")
    with pytest.raises(ConfigurationError, match="batch backend ineligible — "):
        run_trial(slow_spec, backend="batch")


def test_route_resolution():
    from repro.backends import BatchBackend, ScalarBackend

    fast_spec, slow_spec = BATCHABLE[0], SCALAR_ONLY[0]
    assert route(fast_spec, "auto") == ("batch", None)
    assert route(fast_spec, "batch") == ("batch", None)
    engine, reason = route(slow_spec, "auto")
    assert engine == "scalar" and "no vectorized kernel" in reason
    assert route(slow_spec, "batch") == (None, reason)
    assert route(slow_spec, "scalar") == ("scalar", None)
    assert route(fast_spec, "scalar") == ("scalar", None)
    assert isinstance(get_backend("batch"), BatchBackend)
    assert isinstance(get_backend("scalar"), ScalarBackend)
    with pytest.raises(SimulationError, match="unknown backend"):
        get_backend("gpu")
