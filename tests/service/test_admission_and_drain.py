"""A batch larger than the daemon's admission bound, and the graceful drain.

- A campaign batch of more than ``DEFAULT_MAX_PENDING`` cache misses
  crosses as several submit frames of at most ``MAX_SUBMIT_TRIALS``
  trials, each admitted on its own: an idle daemon computes all of
  it, with no ``busy`` rejection and no fallback to local execution.
  When one of those frames fails, only the trials without a reply
  are resubmitted or fall back, and a refusal addressed to a request
  an earlier attempt abandoned costs no retry.
- A frame larger than ``max_pending`` is admitted when nothing is
  pending, so a daemon run with a bound below ``MAX_SUBMIT_TRIALS``
  still serves every frame a client sends.
- ``host.stop(drain=True)`` — the ``serve`` SIGTERM path, minus the
  signal — under a real, ungated load: the submitter still gets every
  reply, and the daemon's store holds every trial it accepted.
"""

import contextlib
import json
import math
import socket
import threading
import time
import warnings

import pytest

from repro.campaign import Campaign, TrialStore
from repro.campaign.keys import trial_key
from repro.chaos.supervisor import RetryPolicy
from repro.experiments.config import TrialSpec
from repro.obs.registry import MetricsRegistry
from repro.service import ServiceCampaign, ServiceClient
from repro.service.protocol import (
    MAX_SUBMIT_TRIALS,
    PROTO_VERSION,
    decode_frame,
    encode_frame,
)
from repro.service.server import DEFAULT_MAX_PENDING, ServiceThread


def test_a_batch_over_the_pending_bound_crosses_as_several_submits(tmp_path):
    n = DEFAULT_MAX_PENDING + 1
    specs = [
        TrialSpec(protocol="flood", adversary="none", n=8, f=2, seed=seed)
        for seed in range(n)
    ]
    metrics = MetricsRegistry()
    daemon_campaign = Campaign(cache_dir=tmp_path / "shared", workers=0)
    with ServiceThread(daemon_campaign, unix_path=str(tmp_path / "svc.sock")) as host:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with ServiceCampaign(
                host.url, cache_dir=tmp_path / "local", workers=0, metrics=metrics
            ) as campaign:
                results = campaign.run_trials(specs)
        counters = dict(host.service.counters)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "service.fallbacks" not in metrics.counters
    assert all(r.ok for r in results)
    assert counters["busy_rejections"] == 0
    assert counters["computed"] == n
    assert counters["requests"] == math.ceil(n / MAX_SUBMIT_TRIALS)


FLOOD = [
    TrialSpec(protocol="flood", adversary="none", n=8, f=2, seed=seed)
    for seed in range(MAX_SUBMIT_TRIALS + 1)
]


def test_a_frame_over_max_pending_is_admitted_by_an_empty_queue(tmp_path):
    """``serve --max-pending 100`` and a 200-trial frame: the idle daemon
    computes it, where a bound checked without regard to the empty
    queue answered ``busy`` on every retry and the client fell back to
    local execution with a RuntimeWarning."""
    specs = [
        TrialSpec(protocol="flood", adversary="none", n=8, f=2, seed=seed)
        for seed in range(200)
    ]
    daemon_campaign = Campaign(cache_dir=tmp_path / "shared", workers=0)
    with ServiceThread(
        daemon_campaign, unix_path=str(tmp_path / "svc.sock"), max_pending=100
    ) as host:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with ServiceCampaign(host.url, cache_dir=None, workers=0) as campaign:
                results = campaign.run_trials(specs)
        counters = dict(host.service.counters)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert all(r.ok for r in results)
    assert counters["busy_rejections"] == 0
    assert counters["computed"] == len(specs)


@contextlib.contextmanager
def scripted_peer(tmp_path, *conversations):
    """A unix-socket peer that holds one scripted conversation per
    connection it accepts; each is called with the connection and a
    function that reads the next frame."""
    path = str(tmp_path / "fake.sock")
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    server.bind(path)
    server.listen(1)
    server.settimeout(30)

    def serve() -> None:
        for talk in conversations:
            conn, _ = server.accept()
            conn.settimeout(10)
            with conn, conn.makefile("rb") as rfile:
                talk(conn, lambda: decode_frame(rfile.readline()))

    peer = threading.Thread(target=serve, daemon=True)
    peer.start()
    try:
        yield f"unix://{path}"
    finally:
        peer.join(timeout=30)
        server.close()


def answer(conn, req_id, results) -> None:
    """Reply to submit *req_id* with one computed outcome per result."""
    frames = [
        {"v": PROTO_VERSION, "op": "outcome", "id": req_id, "i": i,
         "status": "computed", "wire": result.outcome.to_wire()}
        for i, result in enumerate(results)
    ]
    frames.append({"v": PROTO_VERSION, "op": "done", "id": req_id})
    conn.sendall(b"".join(encode_frame(frame) for frame in frames))


@pytest.mark.parametrize("retries", [0, 1])
def test_a_failed_frame_costs_only_the_trials_it_left_unanswered(tmp_path, retries):
    """A peer that answers the first of two submit frames and then
    hangs up: the first frame's replies stand, and only the one trial
    of the second frame is resubmitted (with a retry left) or runs
    locally (without one)."""
    with Campaign(workers=0) as inline:
        expected = inline.run_trials(FLOOD)
    resubmitted = []

    def first(conn, read) -> None:
        frame = read()
        read()  # the second frame, never answered
        answer(conn, frame["id"], expected[:MAX_SUBMIT_TRIALS])

    def resubmit(conn, read) -> None:
        frame = read()
        resubmitted.append(len(frame["trials"]))
        answer(conn, frame["id"], expected[-1:])

    metrics = MetricsRegistry()
    with scripted_peer(tmp_path, first, *[resubmit] * retries) as url:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with ServiceCampaign(
                url,
                cache_dir=tmp_path / "local",
                workers=0,
                metrics=metrics,
                timeout=10,
                retry_policy=RetryPolicy(max_retries=retries, base_backoff=0.0),
            ) as campaign:
                results = campaign.run_trials(FLOOD)
    assert [r.outcome.to_wire() for r in results] == [
        r.outcome.to_wire() for r in expected
    ]
    fell_back = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    local = TrialStore(tmp_path / "local")
    if retries:
        assert resubmitted == [1]
        assert not fell_back and "service.fallbacks" not in metrics.counters
        assert len(local) == 0
    else:
        assert len(fell_back) == 1 and "closed before reply" in str(fell_back[0].message)
        assert metrics.counters["service.fallbacks"] == 1
        assert len(local) == 1 and trial_key(FLOOD[-1]) in local


def test_a_stray_busy_from_an_abandoned_attempt_is_skipped(tmp_path):
    """Both frames of the first attempt are refused ``busy``: the
    first refusal ends the attempt, and the second, read during the
    retry, belongs to an abandoned request, so it costs no retry."""
    with Campaign(workers=0) as inline:
        expected = inline.run_trials(FLOOD)

    def talk(conn, read) -> None:
        refused = [read(), read()]
        conn.sendall(b"".join(
            encode_frame({"v": PROTO_VERSION, "op": "busy", "id": frame["id"]})
            for frame in refused
        ))
        first, second = read(), read()
        answer(conn, first["id"], expected[:MAX_SUBMIT_TRIALS])
        answer(conn, second["id"], expected[MAX_SUBMIT_TRIALS:])

    metrics = MetricsRegistry()
    with scripted_peer(tmp_path, talk) as url:
        with ServiceClient(
            url,
            timeout=10,
            retry_policy=RetryPolicy(max_retries=1, base_backoff=0.0),
            metrics=metrics,
        ) as client:
            replies = client.submit(FLOOD)
    assert [json.dumps(r.wire) for r in replies] == [
        json.dumps(r.outcome.to_wire()) for r in expected
    ]
    assert metrics.counters["service.busy"] == 1


def test_drain_under_load_answers_and_stores_every_accepted_trial(tmp_path):
    specs = [
        TrialSpec(protocol="coordinator", adversary="none", n=40, f=10, seed=seed)
        for seed in range(300)
    ]
    campaign = Campaign(cache_dir=tmp_path / "shared", workers=0)
    host = ServiceThread(campaign, unix_path=str(tmp_path / "svc.sock")).start()
    replies: list = []

    def submit() -> None:
        with ServiceClient(host.url, timeout=120) as client:
            replies.extend(client.submit(specs))

    submitter = threading.Thread(target=submit)
    try:
        submitter.start()
        for _ in range(600):  # stop only once the submit is admitted
            if host.service.counters["requests"] == 1:
                break
            time.sleep(0.005)
        host.stop(drain=True)
        submitter.join(timeout=120)
    finally:
        host.stop()
    assert host.service.counters["drains"] == 1
    assert len(replies) == len(specs)
    assert all(r.wire is not None for r in replies)
    with TrialStore(tmp_path / "shared") as store:
        assert all(trial_key(spec) in store for spec in specs)
