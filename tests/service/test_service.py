"""End-to-end tests for the campaign-service daemon and client.

The differential contract (ISSUE 7 / docs/SERVICE.md): an outcome
fetched through the service — cold miss, warm hit, or deduplicated
onto another client's in-flight computation — is **byte-identical** at
the ``json.dumps(outcome.to_wire())`` level to one computed by an
inline :class:`Campaign`. The dedup test gates the daemon's executor
with events so two clients provably race, and the compute-call ledger
proves each unique content address was computed exactly once.
"""

import json
import threading

import pytest

from repro.campaign import Campaign
from repro.experiments.config import TrialSpec
from repro.obs.registry import MetricsRegistry
from repro.service import (
    ServiceCampaign,
    ServiceClient,
    ServiceError,
    TrialService,
)
from repro.service.protocol import PROTO_VERSION, spec_to_wire
from repro.service.server import ServiceThread


def trial(seed: int = 0, **overrides) -> TrialSpec:
    base = dict(protocol="flood", adversary="none", n=8, f=2, seed=seed)
    base.update(overrides)
    return TrialSpec(**base)


def wires(results) -> list[str]:
    """The byte-identity projection of a result/reply list."""
    out = []
    for r in results:
        if hasattr(r, "outcome"):  # TrialResult
            out.append(json.dumps(r.outcome.to_wire()))
        else:  # TrialReply
            out.append(json.dumps(r.wire))
    return out


@pytest.fixture
def daemon(tmp_path):
    """A live daemon on a unix socket, its own store, inline workers."""
    campaign = Campaign(
        cache_dir=tmp_path / "shared",
        workers=0,
        metrics=MetricsRegistry(),
    )
    host = ServiceThread(campaign, unix_path=str(tmp_path / "svc.sock"))
    with host:
        yield host


# -- basic ops -----------------------------------------------------------------


def test_hello_ping_stats(daemon):
    with ServiceClient(daemon.url) as client:
        hello = client.hello()
        assert hello["server"] == "repro-ugf-service"
        assert client.ping()
        stats = client.stats()
        assert stats["counters"]["connections"] >= 1
        assert stats["inflight"] == 0


# -- the differential battery --------------------------------------------------


def test_cold_and_warm_outcomes_are_byte_identical_to_inline(
    daemon, tmp_path
):
    specs = [trial(s) for s in range(4)]
    with Campaign(cache_dir=tmp_path / "inline", workers=0) as inline:
        expected = wires(inline.run_trials(specs))

    with ServiceClient(daemon.url) as client:
        cold = client.submit(specs)
        assert [r.status for r in cold] == ["computed"] * 4
        assert wires(cold) == expected
        # Same socket, same specs: now the daemon's store answers.
        warm = client.submit(specs)
        assert [r.status for r in warm] == ["hit"] * 4
        assert wires(warm) == expected

    # A fresh connection (new client, same daemon) still hits.
    with ServiceClient(daemon.url) as client:
        assert [r.status for r in client.submit(specs)] == ["hit"] * 4

    counters = daemon.service.counters
    assert counters["computed"] == 4
    assert counters["hits"] == 8


def test_service_campaign_is_a_drop_in_campaign(daemon, tmp_path):
    specs = [trial(s) for s in range(3)]
    with Campaign(cache_dir=tmp_path / "inline", workers=0) as inline:
        expected = wires(inline.run_trials(specs))

    metrics = MetricsRegistry()
    with ServiceCampaign(
        daemon.url, cache_dir=tmp_path / "local", workers=0, metrics=metrics
    ) as campaign:
        results = campaign.run_trials(specs)
        assert all(r.ok for r in results)
        assert [r.cached for r in results] == [False] * 3
        assert wires(results) == expected
        # The in-session memo answers repeats without re-crossing the
        # wire: cached=True, and the daemon saw no second request.
        again = campaign.run_trials(specs)
        assert [r.cached for r in again] == [True] * 3
        assert wires(again) == expected
        assert metrics.counters["campaign.memo_hits"] == 3
        assert daemon.service.counters["requests"] == 1

    # Telemetry flagged the remote trials.
    telemetry = (tmp_path / "local" / "telemetry.jsonl").read_text()
    assert '"via": "service"' in telemetry or '"via":"service"' in telemetry


def test_failed_trials_come_back_as_failed_results(daemon, tmp_path):
    bad = trial(0, protocol="no-such-protocol")
    with ServiceClient(daemon.url) as client:
        (reply,) = client.submit([bad])
    assert reply.status == "failed"
    assert reply.wire is None
    assert reply.error

    with ServiceCampaign(
        daemon.url, cache_dir=tmp_path / "local", workers=0
    ) as campaign:
        (result,) = campaign.run_trials([bad])
    assert not result.ok
    assert result.error


# -- in-flight dedup -----------------------------------------------------------


def test_concurrent_clients_dedup_onto_one_computation(tmp_path):
    campaign = Campaign(cache_dir=tmp_path / "shared", workers=0)
    started = threading.Event()
    release = threading.Event()
    compute_calls: list[list[str]] = []
    real_run_trials = campaign.run_trials

    def gated(specs, **kwargs):
        # Runs on the daemon's single executor thread: record what was
        # actually computed, and hold wave 1 open until both clients'
        # claims are in.
        compute_calls.append([s.protocol + str(s.seed) for s in specs])
        started.set()
        assert release.wait(timeout=60)
        return real_run_trials(specs, **kwargs)

    campaign.run_trials = gated
    specs = [trial(s) for s in range(3)]
    replies: dict[str, list] = {}

    def run_client(name: str, batch) -> None:
        with ServiceClient(
            f"unix://{tmp_path / 'svc.sock'}", timeout=120
        ) as client:
            replies[name] = client.submit(batch)

    with ServiceThread(campaign, unix_path=str(tmp_path / "svc.sock")) as host:
        first = threading.Thread(target=run_client, args=("a", specs[:2]))
        first.start()
        assert started.wait(timeout=60)  # wave 1 (s0, s1) is executing

        # Client B arrives *while* A's trials are in flight, asking for
        # the same two plus a fresh one.
        second = threading.Thread(target=run_client, args=("b", specs))
        second.start()
        deadline = threading.Event()
        for _ in range(600):  # b's claims land on the loop thread
            if host.service.counters["dedup_inflight"] == 2:
                break
            deadline.wait(0.05)
        assert host.service.counters["dedup_inflight"] == 2
        release.set()
        first.join(timeout=120)
        second.join(timeout=120)
        counters = dict(host.service.counters)

    assert [r.status for r in replies["a"]] == ["computed", "computed"]
    assert [r.status for r in replies["b"]] == ["dedup", "dedup", "computed"]
    # The dedup guarantee: three unique content addresses, three
    # computed trials total — s0 and s1 ran exactly once even though
    # two clients asked for them concurrently.
    assert sorted(s for call in compute_calls for s in call) == [
        "flood0",
        "flood1",
        "flood2",
    ]
    assert counters["computed"] == 3
    assert counters["dedup_inflight"] == 2
    # Deduplicated replies carry byte-identical wires to the computed ones.
    assert wires(replies["b"][:2]) == wires(replies["a"])


# -- failure posture -----------------------------------------------------------


def test_service_campaign_falls_back_to_local_execution(tmp_path):
    metrics = MetricsRegistry()
    campaign = ServiceCampaign(
        f"unix://{tmp_path / 'nobody-home.sock'}",
        cache_dir=tmp_path / "local",
        workers=0,
        metrics=metrics,
    )
    specs = [trial(s) for s in range(2)]
    with pytest.warns(RuntimeWarning, match="falling back"):
        results = campaign.run_trials(specs)
    assert all(r.ok for r in results)
    assert campaign._remote_down
    assert metrics.counters["service.fallbacks"] == 1
    # The reconnect loop tried the full policy before giving up.
    assert metrics.counters["service.retries"] == campaign.retry_policy.max_retries
    # Later batches probe for recovery (the daemon is still gone) and
    # run locally without further warnings.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = campaign.run_trials(specs)
    assert all(r.cached for r in again)  # served by the local memo/store
    assert metrics.counters["service.probes"] == 1
    assert metrics.counters["service.probe_failures"] == 1
    assert "service.reconnects" not in metrics.counters
    campaign.close()


def test_malformed_frames_get_error_frames_not_disconnects(daemon):
    client = ServiceClient(daemon.url)
    client.connect()
    try:
        # Garbage JSON: the server answers with an error frame...
        client._sock.sendall(b"this is not json\n")
        frame = client._read_frame()
        assert frame["op"] == "error"
        # ...so does JSON nested too deep for the parser...
        client._sock.sendall(b"[" * 200_000 + b"\n")
        frame = client._read_frame()
        assert frame["op"] == "error" and "undecodable" in frame["error"]
        # ...and the connection survives for well-formed traffic.
        assert client.ping()
        # Unknown op and version mismatch are refused the same way.
        client._send_frame({"v": PROTO_VERSION, "op": "frobnicate"})
        assert client._read_frame()["op"] == "error"
        client._send_frame({"v": 999, "op": "ping"})
        frame = client._read_frame()
        assert frame["op"] == "error" and "version" in frame["error"]
        assert client.ping()
    finally:
        client.close()


def test_submit_without_trials_list_is_an_error_frame(daemon):
    client = ServiceClient(daemon.url)
    client.connect()
    try:
        client._send_frame({"v": PROTO_VERSION, "op": "submit", "id": 1, "trials": "nope"})
        assert client._read_frame()["op"] == "error"
    finally:
        client.close()


def test_bad_spec_in_batch_fails_only_that_trial(daemon):
    good = trial(0)
    with ServiceClient(daemon.url) as client:
        client._send_frame(
            {
                "v": PROTO_VERSION,
                "op": "submit",
                "id": 7,
                "trials": [
                    {"protocol": "flood"},  # malformed: missing fields
                    spec_to_wire(good),
                ],
            }
        )
        seen = {}
        while True:
            frame = client._read_frame()
            if frame["op"] == "done":
                counts = frame["counts"]
                break
            assert frame["op"] == "outcome"
            seen[frame["i"]] = frame
    assert seen[0]["status"] == "failed" and "spec" in seen[0]["error"]
    assert seen[1]["status"] in ("computed", "hit")
    assert counts["failed"] == 1


def test_daemon_decodes_and_keys_each_trial_once(daemon, monkeypatch):
    """Per submitted trial the daemon runs one spec decode and one
    trial_key, on the spec it decoded; its campaign reuses that key."""
    import repro.campaign.campaign as campaign_module
    import repro.service.server as server_module

    calls = {"decode": 0, "key": 0}

    def counted(name, real):
        def spy(*args):
            calls[name] += 1
            return real(*args)

        return spy

    monkeypatch.setattr(server_module, "spec_from_wire", counted("decode", server_module.spec_from_wire))
    monkeypatch.setattr(server_module, "trial_key", counted("key", server_module.trial_key))
    monkeypatch.setattr(campaign_module, "trial_key", counted("key", campaign_module.trial_key))
    specs = [trial(seed) for seed in range(3)] + [trial(0, sanitize="warn")]
    with ServiceClient(daemon.url) as client:
        replies = client.submit(specs)
    assert [r.status for r in replies] == ["computed"] * 3 + ["dedup"]
    assert calls == {"decode": 4, "key": 4}


def test_a_previous_protocol_submit_is_refused_and_never_runs(daemon):
    with ServiceClient(daemon.url) as client:
        client._send_frame(
            {"v": PROTO_VERSION - 1, "op": "submit", "id": 1, "trials": [spec_to_wire(trial())]}
        )
        frame = client._read_frame()
        assert frame["op"] == "error"
        assert f"protocol version {PROTO_VERSION - 1} unsupported" in frame["error"]
        assert client.ping()
    counters = daemon.service.counters
    assert counters["requests"] == 0 and counters["computed"] == 0
    assert len(daemon.service.campaign.store) == 0


def test_client_reports_closed_daemon_as_service_error(tmp_path):
    campaign = Campaign(cache_dir=tmp_path / "shared", workers=0)
    host = ServiceThread(campaign, unix_path=str(tmp_path / "svc.sock"))
    host.start()
    client = ServiceClient(host.url, timeout=30)
    assert client.connect().ping()
    host.stop()
    with pytest.raises(ServiceError):
        client.submit([trial(0)])
    client.close()
