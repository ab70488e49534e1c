"""Differential battery: metrics must never perturb outcomes.

The observability layer's core contract is that it is write-only:
turning metrics on changes *nothing* about what a trial computes. The
battery pins that at the strongest available granularity — the
outcome's wire encoding, byte for byte — across protocol/adversary
pairs, with and without the sanitizer, and across every campaign
execution mode (inline, chunked-parallel, cache-resumed).
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import Campaign
from repro.experiments.config import SweepSpec, TrialSpec
from repro.experiments.runner import run_trial
from repro.obs import MetricsRegistry

#: Three structurally different pairs: the paper's baseline protocol
#: under the universal adversary, an omission-driven strategy against
#: EARS, and flood under targeted crashes.
PAIRS = [
    ("push-pull", "ugf"),
    ("ears", "str-2.1.1"),
    ("flood", "greedy-oracle"),
]


def _wire_bytes(outcome) -> bytes:
    return json.dumps(outcome.to_wire(), separators=(",", ":")).encode()


@pytest.mark.parametrize("protocol,adversary", PAIRS)
def test_outcome_bytes_identical_metrics_off_vs_on(protocol, adversary):
    spec = TrialSpec(protocol=protocol, adversary=adversary, n=24, f=7, seed=11)
    off = run_trial(spec)
    registry = MetricsRegistry()
    on = run_trial(spec, metrics=registry)
    assert _wire_bytes(on) == _wire_bytes(off)
    # The registry actually observed the run — this was not a no-op.
    assert registry.counter_value("engine.trials") == 1
    assert registry.counter_value("engine.messages_sent") > 0


@pytest.mark.parametrize("protocol,adversary", PAIRS)
def test_outcome_bytes_identical_under_sanitizer(protocol, adversary):
    spec = TrialSpec(
        protocol=protocol,
        adversary=adversary,
        n=24,
        f=7,
        seed=11,
        sanitize="warn:counters",
    )
    off = run_trial(spec)
    on = run_trial(spec, metrics=MetricsRegistry())
    assert _wire_bytes(on) == _wire_bytes(off)


def _sweep_specs():
    return list(
        SweepSpec(
            protocol="push-pull",
            adversary="ugf",
            n_values=(12, 20),
            seeds=(0, 1, 2),
        ).trials()
    )


def _run_campaign(tmp_path, name, **kwargs) -> list[bytes]:
    with Campaign(cache_dir=tmp_path / name, **kwargs) as campaign:
        results = campaign.run_trials(_sweep_specs())
    assert all(r.ok for r in results)
    return [_wire_bytes(r.outcome) for r in results]


def test_campaign_modes_all_byte_identical(tmp_path):
    """Inline, chunked-parallel, and cache-resumed execution agree with
    the metrics-off inline baseline, byte for byte."""
    baseline = _run_campaign(tmp_path, "baseline", workers=0)
    inline_on = _run_campaign(tmp_path, "inline", workers=0, metrics=True)
    assert inline_on == baseline
    parallel_on = _run_campaign(tmp_path, "parallel", workers=2, metrics=True)
    assert parallel_on == baseline
    # Resume against the cache the parallel run filled: every trial is
    # a store hit, decoded back through the wire format.
    with Campaign(cache_dir=tmp_path / "parallel", workers=2, metrics=True) as campaign:
        resumed = campaign.run_trials(_sweep_specs())
        assert campaign.stats.cached == len(resumed)
    assert [_wire_bytes(r.outcome) for r in resumed] == baseline


def test_parallel_campaign_merges_worker_registries(tmp_path):
    # A scalar-only cell (no vectorized coordinator kernel): the
    # point is that chunks run in *worker processes*, so the sweep must
    # not route to the in-process batch backend.
    specs = list(
        SweepSpec(
            protocol="coordinator",
            adversary="ugf",
            n_values=(12, 20),
            seeds=(0, 1, 2),
        ).trials()
    )
    with Campaign(cache_dir=tmp_path, workers=2, metrics=True) as campaign:
        results = campaign.run_trials(specs)
        registry = campaign.metrics
    assert all(r.ok for r in results)
    # Chunks ran in worker processes; their registries merged here.
    assert registry.counter_value("engine.trials") == len(specs)
    assert registry.spans["campaign.trial"].count == len(specs)


def test_env_var_metrics_is_differentially_invisible(monkeypatch):
    spec = TrialSpec(protocol="push-pull", adversary="ugf", n=20, f=6, seed=5)
    monkeypatch.delenv("REPRO_METRICS", raising=False)
    off = run_trial(spec)
    monkeypatch.setenv("REPRO_METRICS", "1")
    on = run_trial(spec)
    assert _wire_bytes(on) == _wire_bytes(off)
