"""The service chaos battery (ISSUE 10 / docs/SERVICE.md "Failure model").

The headline contract: under **every** shipped service fault plan
(:func:`repro.chaos.shipped_service_plans` — refused connections,
mid-stream resets, torn frames, stalled replies, a killed daemon), a
``--cache-url`` sweep completes and its outcome wires are
byte-identical at the ``json.dumps(outcome.to_wire())`` level to a
fault-free local run. Each plan is exercised from both ends of the
transport: injected on the :class:`ServiceClient` (the wire died on
us) and on the daemon's connection handler (the daemon died on the
wire), with counter/telemetry assertions proving the fault actually
fired and was actually handled — no vacuous passes.
"""

import json

import pytest

from repro.campaign import Campaign, trial_key
from repro.campaign.store import TrialStore
from repro.chaos import RetryPolicy, shipped_service_plans
from repro.experiments.config import TrialSpec
from repro.obs.registry import MetricsRegistry
from repro.service import ServiceCampaign
from repro.service.server import ServiceThread


def trial(seed: int = 0, **overrides) -> TrialSpec:
    base = dict(protocol="flood", adversary="none", n=8, f=2, seed=seed)
    base.update(overrides)
    return TrialSpec(**base)


SPECS = [trial(s) for s in range(4)]

#: Zero-backoff policy so the battery retries instantly.
FAST_RETRIES = RetryPolicy(max_retries=2, base_backoff=0.0)


def wire_image(results) -> list[str]:
    return [json.dumps(r.outcome.to_wire()) for r in results]


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """The fault-free local truth every faulted sweep must reproduce."""
    cache = tmp_path_factory.mktemp("baseline-cache")
    with Campaign(cache_dir=cache, workers=0) as campaign:
        return wire_image(campaign.run_trials(SPECS))


# -- client-side injection -----------------------------------------------------

#: daemon-kill has no client-side interpretation (a client cannot kill
#: the daemon); its end-to-end story is the server-side case below.
_CLIENT_SIDE = ["conn-refuse", "conn-drop", "frame-tear", "slow-peer"]


def _sweep_through_faulted_client(plan_name, tmp_path, baseline):
    """One client-side-faulted sweep; returns (client metrics, daemon counters)."""
    plan = shipped_service_plans()[plan_name]
    daemon_campaign = Campaign(cache_dir=tmp_path / "shared", workers=0)
    metrics = MetricsRegistry()
    with ServiceThread(
        daemon_campaign, unix_path=str(tmp_path / "svc.sock")
    ) as host:
        with ServiceCampaign(
            host.url,
            cache_dir=tmp_path / "local",
            workers=0,
            metrics=metrics,
            fault_plan=plan,
            retry_policy=FAST_RETRIES,
            timeout=_SERVER_SIDE[plan_name],
        ) as campaign:
            results = campaign.run_trials(SPECS)
            assert all(r.ok for r in results)
            assert wire_image(results) == baseline
        return metrics, dict(host.service.counters)


@pytest.mark.parametrize("plan_name", _CLIENT_SIDE)
def test_client_side_fault_converges_byte_identical(plan_name, tmp_path, baseline):
    """The transport dies on the client once; the retry loop resubmits
    (idempotently — the daemon dedups by content address) and the sweep
    finishes byte-identical to the fault-free run, never falling back."""
    metrics, _ = _sweep_through_faulted_client(plan_name, tmp_path, baseline)

    # The fault fired (anti-vacuous) and the retry absorbed it: no
    # fallback, and the daemon — not the local path — computed the
    # trials. Judged on where the records are, not on a daemon counter:
    # the daemon's store holds exactly the SPECS addresses and the
    # client's holds no trial record.
    assert metrics.counters["service.injected_faults"] >= 1
    assert metrics.counters["service.retries"] >= 1
    assert "service.fallbacks" not in metrics.counters
    shared = TrialStore(tmp_path / "shared")
    assert len(shared) == len(SPECS) and all(trial_key(s) in shared for s in SPECS)
    assert len(TrialStore(tmp_path / "local")) == 0

    # Every retry and injected fault is auditable in telemetry.
    telemetry = (tmp_path / "local" / "telemetry.jsonl").read_text()
    assert '"injected_fault"' in telemetry
    assert '"retry"' in telemetry


@pytest.mark.parametrize("plan_name", ["conn-drop", "frame-tear"])
def test_daemon_counts_trials_a_cancelled_request_computed(
    plan_name, tmp_path, baseline
):
    """The two plans that cut a request off mid-stream: the daemon has
    computed all four trials, and counts them where it computed them —
    not per frame it got to send — so the retry's store hits do not
    stand in for computations."""
    _, server_counters = _sweep_through_faulted_client(plan_name, tmp_path, baseline)
    assert server_counters["computed"] == len(SPECS)


# -- server-side injection -----------------------------------------------------

#: Per plan: the read deadline the client runs with. slow-peer stalls
#: the reply 2s, so a sub-second deadline forces the timeout path.
_SERVER_SIDE = {
    "conn-refuse": 30.0,
    "conn-drop": 30.0,
    "frame-tear": 30.0,
    "slow-peer": 0.75,
    "daemon-kill": 30.0,
}


@pytest.mark.parametrize("plan_name", sorted(_SERVER_SIDE))
def test_server_side_fault_converges_byte_identical(plan_name, tmp_path, baseline):
    """The daemon's side of the transport misbehaves once; the sweep
    still completes byte-identical. Recoverable faults are absorbed by
    the retry loop; a killed daemon ends in a clean local fallback."""
    plan = shipped_service_plans()[plan_name]
    daemon_campaign = Campaign(
        cache_dir=tmp_path / "shared",
        workers=0,
        fault_plan=plan,
    )
    metrics = MetricsRegistry()
    with ServiceThread(
        daemon_campaign, unix_path=str(tmp_path / "svc.sock")
    ) as host:
        with ServiceCampaign(
            host.url,
            cache_dir=tmp_path / "local",
            workers=0,
            metrics=metrics,
            retry_policy=FAST_RETRIES,
            timeout=_SERVER_SIDE[plan_name],
        ) as campaign:
            if plan_name == "daemon-kill":
                with pytest.warns(RuntimeWarning, match="falling back"):
                    results = campaign.run_trials(SPECS)
            else:
                results = campaign.run_trials(SPECS)
            assert all(r.ok for r in results)
            assert wire_image(results) == baseline
        server_counters = dict(host.service.counters)

    assert server_counters["injected_faults"] >= 1
    if plan_name == "daemon-kill":
        # Unrecoverable on the remote path: the policy was exhausted,
        # the batch fell back locally, and the sweep still completed.
        assert metrics.counters["service.fallbacks"] == 1
        assert metrics.counters["service.retries"] == FAST_RETRIES.max_retries
    else:
        # Recoverable: the resubmission reached the daemon, so nothing
        # fell back and every trial was served remotely — as a fresh
        # computation or, after a mid-stream abort, as a store hit on
        # the idempotent resubmit.
        assert metrics.counters["service.retries"] >= 1
        assert "service.fallbacks" not in metrics.counters
        assert server_counters["computed"] + server_counters["hits"] >= len(SPECS)


def test_faults_clear_and_later_batches_run_remote(tmp_path, baseline):
    """attempts=1 plans are transient by construction: after the
    faulted batch converges, the next batch crosses the wire cleanly —
    no retries, answered from the daemon's store."""
    plan = shipped_service_plans()["conn-drop"]
    daemon_campaign = Campaign(
        cache_dir=tmp_path / "shared", workers=0,
        fault_plan=plan,
    )
    metrics = MetricsRegistry()
    with ServiceThread(
        daemon_campaign, unix_path=str(tmp_path / "svc.sock")
    ) as host:
        with ServiceCampaign(
            host.url,
            cache_dir=tmp_path / "local",
            workers=0,
            metrics=metrics,
            retry_policy=FAST_RETRIES,
            timeout=30.0,
        ) as campaign:
            assert wire_image(campaign.run_trials(SPECS)) == baseline
            retries_after_first = metrics.counters["service.retries"]
            # Fresh specs, same session: the transport stays healthy.
            more = [trial(s) for s in range(4, 6)]
            second = campaign.run_trials(more)
            assert all(r.ok for r in second)
        served = (
            host.service.counters["computed"] + host.service.counters["hits"]
        )
        assert served >= len(SPECS) + len(more)
    assert metrics.counters["service.retries"] == retries_after_first


# -- the CLI path --------------------------------------------------------------


def test_cli_sweep_through_faulted_daemon_completes(tmp_path, monkeypatch):
    """A real ``--cache-url`` sweep (the CLI entry point, finite
    ``--service-timeout``) completes against a daemon whose transport
    drops mid-stream."""
    from repro.cli import main

    plan = shipped_service_plans()["conn-drop"]
    daemon_campaign = Campaign(
        cache_dir=tmp_path / "shared", workers=0,
        fault_plan=plan,
    )
    with ServiceThread(
        daemon_campaign, unix_path=str(tmp_path / "svc.sock")
    ) as host:
        code = main(
            [
                "sweep",
                "--protocol", "flood",
                "--adversary", "none",
                "--n", "8",
                "--seeds", "2",
                "--cache-dir", str(tmp_path / "local"),
                "--cache-url", host.url,
                "--service-timeout", "30",
            ]
        )
        assert code == 0
        assert host.service.counters["injected_faults"] >= 1
        assert host.service.counters["computed"] >= 1
