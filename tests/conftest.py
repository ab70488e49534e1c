"""Shared helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core.adversary import NullAdversary
from repro.core.registry import make_adversary
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
