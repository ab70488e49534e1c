"""Shared helpers for the test suite."""

from __future__ import annotations

import json

import pytest

from repro.campaign.keys import spec_fingerprint, trial_key
from repro.campaign.store import encode_record
from repro.core.adversary import NullAdversary
from repro.core.registry import make_adversary
from repro.experiments.config import TrialSpec
from repro.experiments.runner import run_trial
from repro.protocols.registry import make_protocol
from repro.sim.engine import SimulationReport, simulate


def run(
    protocol: str,
    adversary: str = "none",
    *,
    n: int = 20,
    f: int = 6,
    seed: int = 0,
    max_steps: int = 500_000,
    record_events: bool = False,
    protocol_kwargs: dict | None = None,
    adversary_kwargs: dict | None = None,
) -> SimulationReport:
    """Build-and-run one small simulation from registry names."""
    return simulate(
        make_protocol(protocol, **(protocol_kwargs or {})),
        make_adversary(adversary, **(adversary_kwargs or {})),
        n=n,
        f=f,
        seed=seed,
        max_steps=max_steps,
        record_events=record_events,
    )


@pytest.fixture
def null_adversary() -> NullAdversary:
    return NullAdversary()


@pytest.fixture
def carry_over():
    """``carry_over(run_dir)`` leaves *run_dir* as a cache written before
    the offset index existed: a bare ``trials.jsonl``, which the first
    load scans in full and indexes, holding two records no test writes
    itself. Returns each key's store line."""

    def build(run_dir) -> dict[str, bytes]:
        specs = [
            TrialSpec(protocol="flood", adversary="none", n=5, f=1, seed=100 + s)
            for s in range(2)
        ]
        lines = {
            trial_key(s): encode_record(
                trial_key(s), spec_fingerprint(s), run_trial(s).to_wire()
            ).encode()
            for s in specs
        }
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "trials.jsonl").write_bytes(b"".join(line + b"\n" for line in lines.values()))
        return lines

    return build


@pytest.fixture
def pre_wire_line():
    """``pre_wire_line(spec)`` is *spec*'s store line in the retired
    pre-wire shape, newline-terminated: ``{"key", "spec", "outcome"}``
    with the outcome as a field dict (abridged: no reader looks inside).
    It is a miss, and the trial is recomputed."""

    def build(spec: TrialSpec) -> bytes:
        record = {
            "key": trial_key(spec),
            "spec": spec_fingerprint(spec),
            "outcome": {"n": spec.n, "f": spec.f, "seed": spec.seed},
        }
        return json.dumps(record, separators=(",", ":")).encode() + b"\n"

    return build


@pytest.fixture(autouse=True)
def _isolated_trial_cache(tmp_path_factory, monkeypatch):
    """Keep CLI/campaign default caching away from the real user cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("trial-cache")))
    # Metrics default to off in tests regardless of the outer shell;
    # the obs battery turns them on explicitly.
    monkeypatch.delenv("REPRO_METRICS", raising=False)


def pytest_collection_modifyitems(config, items):
    """``deep`` cases (benchmark-scale differential cells, the laptop-scale
    reproduction) cost tens of seconds: skipped unless selected with
    ``-m deep``, which the CI ``backend-differential`` legs do."""
    if "deep" in (config.getoption("-m") or ""):
        return
    skip = pytest.mark.skip(reason="benchmark-scale case: run with -m deep")
    for item in items:
        if "deep" in item.keywords:
            item.add_marker(skip)
