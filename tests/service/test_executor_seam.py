"""The daemon is one executor behind ``Campaign._execute``.

A :class:`ServiceCampaign` runs the inherited campaign loop and only
hands its cache misses to the daemon instead of the local batch engine
and pool. So, while the daemon answers, a batch through it must look
exactly like the same batch through a local :class:`Campaign` — same
results, same stats — and must leave the client's local store alone;
and a reply the client cannot decode re-runs only that trial locally.
"""

import json
import pathlib
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.service.client as client_module
from repro.campaign import Campaign, TrialStore, trial_key
from repro.experiments.config import TrialSpec
from repro.obs.registry import MetricsRegistry
from repro.service import ServiceCampaign, ServiceClient
from repro.service.server import ServiceThread
from repro.sim.outcome import Outcome


def trial(seed: int = 0, **overrides) -> TrialSpec:
    base = dict(protocol="flood", adversary="none", n=8, f=2, seed=seed)
    base.update(overrides)
    return TrialSpec(**base)


def image(results) -> list[tuple]:
    """What a caller can observe of a result list."""
    return [
        (
            r.ok,
            r.cached,
            json.dumps(r.outcome.to_wire()) if r.ok else None,
            r.error,
        )
        for r in results
    ]


def run(campaign, batch) -> tuple[list[tuple], list[int]]:
    """One batch's result image and what it added to the campaign's stats."""
    stats = campaign.stats
    before = [stats.executed, stats.cached, stats.failed]
    results = image(campaign.run_trials(batch))
    after = [stats.executed, stats.cached, stats.failed]
    return results, [now - then for now, then in zip(after, before)]


# -- partial fallback ----------------------------------------------------------


def test_an_undecodable_wire_reruns_only_that_trial(tmp_path, monkeypatch):
    """The 2nd of six replies does not decode: that trial alone runs
    locally, and the other five keep what the daemon said of them."""
    specs = [trial(seed) for seed in range(6)]
    with Campaign(workers=0) as inline:
        expected = inline.run_trials(specs)

    decoded = []

    class FlakyOutcome:
        @staticmethod
        def from_wire(wire):
            decoded.append(wire)
            if len(decoded) == 2:
                raise ValueError("torn wire")
            return Outcome.from_wire(wire)

    daemon = Campaign(cache_dir=tmp_path / "shared", workers=0)
    metrics = MetricsRegistry()
    with ServiceThread(daemon, unix_path=str(tmp_path / "svc.sock")) as host:
        # Half the batch is already in the daemon's store: replies mix
        # ``hit`` and ``computed``.
        with ServiceClient(host.url, timeout=60) as client:
            client.submit(specs[:3])
        monkeypatch.setattr(client_module, "Outcome", FlakyOutcome)
        with ServiceCampaign(
            host.url, cache_dir=tmp_path / "local", workers=0, metrics=metrics
        ) as campaign:
            with pytest.warns(RuntimeWarning, match="undecodable outcome wire"):
                results = campaign.run_trials(specs)

    assert len(decoded) == 6
    # Exactly one trial executed locally, and only it reached the local store.
    local = TrialStore(tmp_path / "local")
    assert len(local) == 1 and trial_key(specs[1]) in local
    assert metrics.counters["campaign.backend_batch"] + metrics.counters.get(
        "campaign.backend_scalar", 0
    ) == 1
    assert metrics.counters["service.fallbacks"] == 1
    # The other five keep the daemon's answer: two store hits, three
    # fresh computations; the re-run one is a local execution.
    backend = expected[0].backend
    assert [(r.cached, r.backend) for r in results] == [
        (True, None),
        (False, backend),
        (True, None),
        (False, backend),
        (False, backend),
        (False, backend),
    ]
    assert [w for _, _, w, _ in image(results)] == [w for _, _, w, _ in image(expected)]
    assert campaign.stats.executed == 4 and campaign.stats.cached == 2


def test_a_fallback_serves_the_local_store_before_executing(tmp_path):
    """The daemon is gone on the first batch: trials the local store
    already holds come back cached, nothing executes, and the store
    gains no records."""
    specs = [trial(seed) for seed in range(4)]
    with Campaign(cache_dir=tmp_path / "local", workers=0) as seed_run:
        expected = seed_run.run_trials(specs)
    trials_file = tmp_path / "local" / "trials.jsonl"
    lines = trials_file.read_text().count("\n")

    metrics = MetricsRegistry()
    with ServiceCampaign(
        f"unix://{tmp_path / 'nobody-home.sock'}",
        cache_dir=tmp_path / "local",
        workers=0,
        metrics=metrics,
    ) as campaign:
        with pytest.warns(RuntimeWarning, match="falling back"):
            results = campaign.run_trials(specs + specs[:1])

    assert all(r.cached for r in results)
    assert [w for _, _, w, _ in image(results)] == [
        w for _, _, w, _ in image(expected + expected[:1])
    ]
    assert campaign.stats.executed == 0 and campaign.stats.cached == 5
    assert metrics.counters["service.fallbacks"] == 1
    assert metrics.counters["campaign.store_hits"] == 4
    assert "campaign.backend_batch" not in metrics.counters
    assert trials_file.read_text().count("\n") == lines


def test_in_batch_duplicates_never_cross_the_wire(tmp_path):
    """A batch's repeated spec is answered from its first occurrence on
    the client: the daemon sees each trial once, and the repeat is a
    cached result without a backend, tagged ``via`` like its primary."""
    from repro.obs.telemetry import read_telemetry, records_of_kind

    specs = [trial(0), trial(1), trial(0)]
    daemon = Campaign(cache_dir=tmp_path / "shared", workers=0)
    with ServiceThread(daemon, unix_path=str(tmp_path / "svc.sock")) as host:
        with ServiceCampaign(
            host.url,
            cache_dir=tmp_path / "local",
            workers=0,
            metrics=MetricsRegistry(),
        ) as campaign:
            results = campaign.run_trials(specs)
        counters = host.service.counters

    assert counters["trials"] == 2 and counters["dedup_inflight"] == 0
    assert [(r.cached, r.backend is None) for r in results] == [
        (False, False),
        (False, False),
        (True, True),
    ]
    records, _ = read_telemetry(tmp_path / "local")
    trials = [r.data for r in records_of_kind(records, "trial")]
    assert [t["via"] for t in trials] == ["service"] * 3
    assert not any("seconds" in t for t in trials)


# -- the differential property -------------------------------------------------

#: A small spec space, so batches repeat themselves: cross-batch repeats
#: are memo hits, in-batch repeats are duplicates, and the unknown
#: protocol fails on every path. ``sanitize`` is not part of a trial's
#: key, so two specs differing only there are the same trial.
SPECS = st.builds(
    trial,
    seed=st.integers(0, 3),
    protocol=st.sampled_from(["flood", "push-pull", "no-such-protocol"]),
    sanitize=st.sampled_from([None, "warn", "strict:counters"]),
)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(batches=st.lists(st.lists(SPECS, min_size=1, max_size=6), min_size=1, max_size=3))
def test_daemon_executor_matches_local_campaign(batches):
    """Batch for batch, a ServiceCampaign over a live daemon returns
    what a local Campaign returns and counts what it counts, and never
    reads or writes its own local store."""
    touched: list[pathlib.Path] = []
    real_get, real_put_many = TrialStore.get, TrialStore.put_many

    def spy_get(store, key):
        touched.append(store.cache_dir)
        return real_get(store, key)

    def spy_put_many(store, records):
        touched.append(store.cache_dir)
        return real_put_many(store, records)

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        TrialStore, "get", spy_get
    ), mock.patch.object(TrialStore, "put_many", spy_put_many):
        root = pathlib.Path(tmp)
        daemon = Campaign(cache_dir=root / "shared", workers=0)
        with ServiceThread(daemon, unix_path=str(root / "svc.sock")) as host, Campaign(
            cache_dir=root / "inline", workers=0
        ) as inline, ServiceCampaign(
            host.url, cache_dir=root / "local", workers=0, timeout=60
        ) as remote:
            for batch in batches:
                expected, local_delta = run(inline, batch)
                assert run(remote, batch) == (expected, local_delta)
            assert not remote._remote_down
        assert root / "local" not in touched
        assert root / "shared" in touched  # the spy is live
