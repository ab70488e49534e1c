"""Shared helpers for the test suite."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.campaign.keys import spec_fingerprint, trial_key
from repro.campaign.store import INDEX_FILENAME, encode_record
from repro.chaos.doctor import diagnose
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


def _legacy_sharded_dir(run_dir, specs, shards: int = 16) -> dict[str, bytes]:
    """*run_dir* as the retired sharded layout left it: ``trials-NN.jsonl``
    shards placed by the key's first two hex digits, plus that layout's
    v1 offset index. Returns each key's store line."""
    lines: dict[str, bytes] = {}
    placed: dict[int, list[tuple[str, bytes]]] = {}
    for spec in specs:
        key = trial_key(spec)
        line = encode_record(key, spec_fingerprint(spec), run_trial(spec).to_wire())
        lines[key] = line.encode()
        placed.setdefault(int(key[:2], 16) % shards, []).append((key, lines[key]))
    entries, sizes = {}, {}
    run_dir.mkdir(parents=True, exist_ok=True)
    for shard, items in placed.items():
        offset = 0
        for key, line in items:
            entries[key] = [shard, offset, len(line)]
            offset += len(line) + 1
        (run_dir / f"trials-{shard:02d}.jsonl").write_bytes(
            b"".join(line + b"\n" for _, line in items)
        )
        sizes[str(shard)] = offset
    index = {"v": 1, "shards": shards, "sizes": sizes, "entries": entries}
    (run_dir / INDEX_FILENAME).write_text(json.dumps(index))
    return lines


@pytest.fixture
def legacy_sharded_dir():
    """Builds a directory in the retired sharded layout; see
    :func:`_legacy_sharded_dir`."""
    return _legacy_sharded_dir


@pytest.fixture
def carry_over():
    """``carry_over(run_dir, layout)`` leaves *run_dir* as a cache that the
    store inherits from one of its earlier layouts, holding two records
    no test writes itself, and returns each key's store line.

    * ``"jsonl"``: a bare ``trials.jsonl`` with no offset index, which the
      first load scans in full and indexes;
    * ``"sharded"``: ``trials-NN.jsonl`` shards plus their v1 index,
      migrated by ``doctor --repair`` into ``trials.jsonl``.
    """

    def build(run_dir, layout: str) -> dict[str, bytes]:
        specs = [
            TrialSpec(protocol="flood", adversary="none", n=5, f=1, seed=100 + s)
            for s in range(2)
        ]
        if layout == "sharded":
            lines = _legacy_sharded_dir(run_dir, specs)
            assert diagnose(run_dir, repair=True).ok
            return lines
        assert layout == "jsonl", layout
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
def legacy_record() -> bytes:
    """One pre-wire store line, frozen as such a cache wrote it: the
    ``{"key", "spec", "outcome"}`` record of a small crashing trial
    (flood vs ugf, N=8, F=2, seed 0) whose outcome is a field dict. No
    reader serves it until ``doctor --repair`` migrates it."""
    return (pathlib.Path(__file__).parent / "data" / "legacy_outcome_record.json").read_bytes()


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
