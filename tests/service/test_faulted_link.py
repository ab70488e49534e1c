"""Client-side service faults take the client's real transport paths.

A :class:`~repro.chaos.inject.FaultedLink` faults the bytes a
connection carries, so with no retry policy each shipped client-side
plan must surface as the error the real connect, parser or deadline
raises for the same event on the wire — refused connect, EOF before a
reply, a reply line without its newline, a read that times out.
"""

import time

import pytest

from repro.campaign import Campaign
from repro.chaos import shipped_service_plans
from repro.chaos.inject import FaultInjector
from repro.experiments.config import TrialSpec
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceProtocolError,
    ServiceTimeout,
)
from repro.service.server import ServiceThread

SPECS = [
    TrialSpec(protocol="flood", adversary="none", n=8, f=2, seed=seed)
    for seed in range(4)
]


@pytest.fixture
def host(tmp_path):
    campaign = Campaign(cache_dir=tmp_path / "shared", workers=0)
    with ServiceThread(campaign, unix_path=str(tmp_path / "svc.sock")) as host:
        yield host


@pytest.mark.parametrize(
    "plan_name, error, message",
    [
        ("conn-refuse", ServiceError, "cannot reach campaign service"),
        ("conn-drop", ServiceError, "closed before reply"),
        ("frame-tear", ServiceProtocolError, r"closed mid-frame \(torn NDJSON\)"),
        ("slow-peer", ServiceTimeout, "no reply .* within deadline"),
    ],
    ids=["conn-refuse", "conn-drop", "frame-tear", "slow-peer"],
)
def test_client_fault_raises_the_real_transport_error(plan_name, error, message, host):
    injector = FaultInjector(shipped_service_plans()[plan_name])
    client = ServiceClient(host.url, timeout=0.75, injector=injector)
    try:
        with pytest.raises(error, match=message) as raised:
            client.submit(SPECS)
    finally:
        client.close()
    assert "injected" not in str(raised.value)
    assert host.service.counters["injected_faults"] == 0


def test_a_stall_inside_the_deadline_is_no_fault(host):
    """slow-peer stalls the reply 2 s; a 30 s deadline outlasts it."""
    injector = FaultInjector(shipped_service_plans()["slow-peer"])
    start = time.monotonic()
    with ServiceClient(host.url, timeout=30.0, injector=injector) as client:
        replies = client.submit(SPECS)
    assert time.monotonic() - start >= 2.0
    assert [r.status for r in replies] == ["computed"] * len(SPECS)
