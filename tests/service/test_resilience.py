"""Resilience tests for the service boundary (ISSUE 10 satellites).

Three families:

- **Protocol garbage** — a peer that speaks broken NDJSON (oversized
  frames, truncated UTF-8, torn lines, busy/error frames with missing
  or garbage fields) always surfaces as a *typed* :class:`ServiceError`
  subclass on the client; never a hang, never a raw ``OSError`` or
  ``JSONDecodeError``.
- **Daemon admission + lifecycle** — bounded pending queue and drain
  both answer with ``busy`` frames the retry loop understands; idle
  connections are reaped; a graceful drain finishes in-flight waves
  before exit; a submitter that vanishes mid-wait is counted
  (``aborted_streams``) without poisoning the computation other
  clients deduplicated onto.
- **Recovery** — a campaign that fell back to local execution probes
  the daemon on later batches and resumes remote the moment it is
  back.
"""

import contextlib
import socket
import threading
import time

import pytest

from repro.campaign import Campaign
from repro.chaos import RetryPolicy
from repro.experiments.config import TrialSpec
from repro.obs.registry import MetricsRegistry
from repro.service import ServiceCampaign, ServiceClient, ServiceError
from repro.service.client import (
    ServiceBusy,
    ServiceProtocolError,
    ServiceTimeout,
)
from repro.service.protocol import MAX_FRAME_BYTES, PROTO_VERSION, spec_to_wire
from repro.service.server import ServiceThread


def trial(seed: int = 0, **overrides) -> TrialSpec:
    base = dict(protocol="flood", adversary="none", n=8, f=2, seed=seed)
    base.update(overrides)
    return TrialSpec(**base)


NO_BACKOFF = RetryPolicy(max_retries=2, base_backoff=0.0)


# -- protocol garbage ----------------------------------------------------------


@contextlib.contextmanager
def misbehaving_daemon(tmp_path, payload: bytes):
    """A unix-socket peer that answers any request with *payload* and
    then closes — the shape of a corrupted or hostile daemon."""
    path = str(tmp_path / "fake.sock")
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    server.bind(path)
    server.listen(1)
    server.settimeout(30)

    def serve() -> None:
        with contextlib.suppress(OSError):
            conn, _ = server.accept()
            conn.settimeout(30)
            with contextlib.suppress(OSError):
                conn.recv(1 << 16)  # the request frame; content ignored
                if payload:
                    conn.sendall(payload)
            conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"unix://{path}"
    finally:
        server.close()
        thread.join(timeout=10)


GARBAGE = {
    "oversized-frame": (
        b"x" * (MAX_FRAME_BYTES + 64) + b"\n",
        ServiceProtocolError,
        "exceeds",
    ),
    "torn-frame": (
        b'{"v": 1, "op": "po',  # no newline, then the peer dies
        ServiceProtocolError,
        "torn NDJSON",
    ),
    "truncated-utf8": (
        b'{"op": "pong\xe2\x82"}\n',  # a multibyte sequence cut short
        ServiceProtocolError,
        None,
    ),
    "non-object-json": (b"[1, 2, 3]\n", ServiceProtocolError, None),
    "not-json": (b"HTTP/1.1 200 OK\n", ServiceProtocolError, None),
    "immediate-eof": (b"", ServiceError, "closed before reply"),
    "error-missing-fields": (
        b'{"v": 1, "op": "error"}\n',
        ServiceError,
        "unspecified error",
    ),
}


@pytest.mark.parametrize("case", sorted(GARBAGE))
def test_protocol_garbage_surfaces_as_typed_errors(case, tmp_path):
    payload, expected_type, match = GARBAGE[case]
    with misbehaving_daemon(tmp_path, payload) as url:
        client = ServiceClient(url, timeout=10.0)
        with pytest.raises(expected_type, match=match):
            client.ping()
        client.close()


@pytest.mark.parametrize(
    "frame",
    [
        b'{"v": 1, "op": "busy"}\n',  # no hint at all
        b'{"v": 1, "op": "busy", "retry_after": "soon", "reason": 7}\n',
        b'{"v": 1, "op": "busy", "retry_after": true}\n',  # bool is not a delay
        b'{"v": 1, "op": "busy", "retry_after": -4}\n',
    ],
)
def test_busy_frames_with_garbage_fields_stay_typed(frame, tmp_path):
    """A daemon that rejects admission but mangles the hint fields
    still produces a ServiceBusy with a sane (absent) Retry-After."""
    with misbehaving_daemon(tmp_path, frame) as url:
        client = ServiceClient(url, timeout=10.0)
        with pytest.raises(ServiceBusy) as excinfo:
            client.submit([trial()])
        assert excinfo.value.retry_after is None
        client.close()


def test_stalled_peer_hits_the_read_deadline(tmp_path):
    """A peer that accepts and never replies is a ServiceTimeout, not a
    hang — the wedged-daemon case --service-timeout exists for."""
    with misbehaving_daemon(tmp_path, b"") as url:
        # An empty payload means the fake peer holds the socket open
        # only as long as accept+recv; give it something slower: a
        # client deadline far shorter than the server's 30s recv.
        client = ServiceClient(url, timeout=0.3)
        started = time.monotonic()
        with pytest.raises((ServiceTimeout, ServiceError)):
            client.ping()
        assert time.monotonic() - started < 10
        client.close()


# -- vanished submitters (satellite a) -----------------------------------------


def test_vanished_submitter_is_counted_and_dedup_clients_still_answered(tmp_path):
    """Client A submits and disconnects mid-wait; its stream is
    cancelled and *counted* (``aborted_streams``), while client B —
    deduplicated onto the same in-flight computation — still receives
    the outcome. The regression this pins: those cancellations used to
    vanish silently."""
    campaign = Campaign(
        cache_dir=tmp_path / "shared",
        workers=0,
        metrics=MetricsRegistry(),
    )
    started = threading.Event()
    release = threading.Event()
    real_run_trials = campaign.run_trials

    def gated(specs, **kwargs):
        started.set()
        assert release.wait(timeout=60)
        return real_run_trials(specs, **kwargs)

    campaign.run_trials = gated
    spec = trial(0)
    replies: dict[str, list] = {}

    with ServiceThread(campaign, unix_path=str(tmp_path / "svc.sock")) as host:
        ghost = ServiceClient(host.url).connect()
        ghost._send_frame(
            {
                "v": PROTO_VERSION,
                "op": "submit",
                "id": 1,
                "trials": [spec_to_wire(spec)],
            }
        )
        assert started.wait(timeout=60)  # the daemon is computing

        def run_b() -> None:
            with ServiceClient(host.url, timeout=120) as client:
                replies["b"] = client.submit([spec])

        b = threading.Thread(target=run_b)
        b.start()
        for _ in range(600):  # b's claim dedups onto the ghost's future
            if host.service.counters["dedup_inflight"] == 1:
                break
            time.sleep(0.05)
        assert host.service.counters["dedup_inflight"] == 1

        ghost.close()  # the submitter vanishes mid-wait
        for _ in range(600):
            if host.service.counters["aborted_streams"] >= 1:
                break
            time.sleep(0.05)
        release.set()
        b.join(timeout=120)
        counters = dict(host.service.counters)

    assert counters["aborted_streams"] == 1
    assert campaign.metrics.counters["service.aborted_streams"] == 1
    (reply,) = replies["b"]
    assert reply.status == "dedup"
    assert reply.wire is not None  # B got the real outcome


# -- admission control ---------------------------------------------------------


def test_full_pending_queue_answers_busy_with_retry_hint(tmp_path):
    campaign = Campaign(cache_dir=tmp_path / "shared", workers=0)
    with ServiceThread(
        campaign,
        unix_path=str(tmp_path / "svc.sock"),
        max_pending=0,
        retry_after=1.5,
    ) as host:
        with ServiceClient(host.url, timeout=30) as client:
            with pytest.raises(ServiceBusy) as excinfo:
                client.submit([trial()])
        assert excinfo.value.retry_after == 1.5
        assert "queue full" in str(excinfo.value)
        assert host.service.counters["busy_rejections"] == 1


def test_busy_rejection_is_retried_and_absorbed(tmp_path):
    """The client's retry loop honours the busy hint: once the daemon
    stops refusing admission, the resubmit goes through — no fallback,
    no error."""
    campaign = Campaign(cache_dir=tmp_path / "shared", workers=0)
    metrics = MetricsRegistry()
    with ServiceThread(campaign, unix_path=str(tmp_path / "svc.sock")) as host:
        host.service._draining = True  # refuse admission...
        waits: list[float] = []

        def sleep(seconds: float) -> None:
            waits.append(seconds)
            host.service._draining = False  # ...until the first backoff

        client = ServiceClient(
            host.url,
            timeout=30,
            retry_policy=RetryPolicy(max_retries=2, base_backoff=0.0),
            metrics=metrics,
            sleep=sleep,
        )
        replies = client.submit([trial()])
        client.close()
        assert [r.status for r in replies] == ["computed"]
        assert host.service.counters["busy_rejections"] == 1
    assert metrics.counters["service.busy"] == 1
    assert metrics.counters["service.retries"] == 1
    # The wait respected the server's Retry-After hint.
    assert waits and waits[0] >= host.service.retry_after


# -- idle connections ----------------------------------------------------------


def test_idle_connections_are_reaped(tmp_path):
    campaign = Campaign(cache_dir=tmp_path / "shared", workers=0)
    with ServiceThread(
        campaign, unix_path=str(tmp_path / "svc.sock"), idle_timeout=0.2
    ) as host:
        client = ServiceClient(host.url, timeout=30).connect()
        assert client.ping()  # active connections are served
        for _ in range(600):
            if host.service.counters["idle_closed"] >= 1:
                break
            time.sleep(0.05)
        assert host.service.counters["idle_closed"] == 1
        # The reaped socket surfaces as a clean typed error client-side.
        with pytest.raises(ServiceError):
            client.ping()
        client.close()
        # An idle close is not an abort: no stream was in flight.
        assert host.service.counters["aborted_streams"] == 0


# -- graceful drain ------------------------------------------------------------


def test_graceful_drain_finishes_in_flight_work(tmp_path):
    """The SIGTERM path, minus the signal: during a drain the daemon
    stops admitting (busy frames to surviving connections), finishes
    the in-flight wave, and the draining submitter gets real outcomes."""
    campaign = Campaign(
        cache_dir=tmp_path / "shared",
        workers=0,
        metrics=MetricsRegistry(),
    )
    started = threading.Event()
    release = threading.Event()
    real_run_trials = campaign.run_trials

    def gated(specs, **kwargs):
        started.set()
        assert release.wait(timeout=60)
        return real_run_trials(specs, **kwargs)

    campaign.run_trials = gated
    replies: dict[str, list] = {}

    host = ServiceThread(campaign, unix_path=str(tmp_path / "svc.sock")).start()
    try:
        bystander = ServiceClient(host.url, timeout=30).connect()
        assert bystander.ping()

        def run_a() -> None:
            with ServiceClient(host.url, timeout=120) as client:
                replies["a"] = client.submit([trial(0), trial(1)])

        a = threading.Thread(target=run_a)
        a.start()
        assert started.wait(timeout=60)  # wave 1 is executing

        drainer = threading.Thread(target=host.stop, kwargs={"drain": True})
        drainer.start()
        for _ in range(600):
            if host.service.counters["drains"] == 1:
                break
            time.sleep(0.05)
        assert host.service.counters["drains"] == 1

        # A surviving connection is refused admission while draining.
        with pytest.raises(ServiceBusy, match="draining"):
            bystander.submit([trial(2)])
        bystander.close()

        release.set()  # let the in-flight wave finish
        a.join(timeout=120)
        drainer.join(timeout=120)
    finally:
        release.set()
        host.stop()

    assert [r.status for r in replies["a"]] == ["computed", "computed"]
    assert all(r.wire is not None for r in replies["a"])
    metrics = campaign.metrics.counters
    assert metrics["service.drain_started"] == 1
    assert metrics["service.drain_finished"] == 1
    assert "service.drain_timeouts" not in metrics


# -- recovery ------------------------------------------------------------------


def test_fallen_back_campaign_reconnects_when_the_daemon_returns(tmp_path):
    """Fallback is per-batch, not per-session: once the daemon is back,
    the probe notices and remote execution resumes."""
    sock = tmp_path / "svc.sock"
    metrics = MetricsRegistry()
    campaign = ServiceCampaign(
        f"unix://{sock}",
        cache_dir=tmp_path / "local",
        workers=0,
        metrics=metrics,
        retry_policy=NO_BACKOFF,
    )
    # Nobody home: the first batch retries, falls back, runs locally.
    with pytest.warns(RuntimeWarning, match="falling back"):
        first = campaign.run_trials([trial(0)])
    assert all(r.ok for r in first)
    assert campaign._remote_down

    daemon_campaign = Campaign(cache_dir=tmp_path / "shared", workers=0)
    with ServiceThread(daemon_campaign, unix_path=str(sock)) as host:
        second = campaign.run_trials([trial(1)])
        assert all(r.ok for r in second)
        # The probe reconnected and the batch ran remotely.
        assert host.service.counters["computed"] == 1
    campaign.close()

    assert not campaign._remote_down
    assert metrics.counters["service.probes"] == 1
    assert metrics.counters["service.reconnects"] == 1
    assert "service.probe_failures" not in metrics.counters
