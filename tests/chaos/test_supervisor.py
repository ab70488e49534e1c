"""Tests for supervised execution: classify, retry, degrade, quarantine."""

import json

import pytest

from repro.campaign import Campaign
from repro.campaign.keys import spec_fingerprint, trial_key
from repro.chaos.plan import FaultPlan, FaultRule, shipped_plans
from repro.chaos.supervisor import (
    QuarantineLedger,
    QuarantineRecord,
    RetryPolicy,
    Supervisor,
    exception_name,
    quarantine_path,
    read_quarantine,
)
from repro.errors import ConfigurationError
from repro.experiments.config import TrialSpec


def trial(seed: int = 0) -> TrialSpec:
    return TrialSpec(protocol="flood", adversary="none", n=8, f=0, seed=seed)


ALWAYS_TRANSIENT = FaultPlan(
    seed=3,
    name="always-transient",
    rules=(FaultRule(site="trial.exception", rate=1.0, attempts=None),),
)


# -- classification --------------------------------------------------------------


def test_exception_name_reads_the_bottom_of_a_traceback():
    trace = (
        "Traceback (most recent call last):\n"
        '  File "x.py", line 1, in f\n'
        "    raise ValueError('no')\n"
        "ValueError: no"
    )
    assert exception_name(trace) == "ValueError"
    assert exception_name("TimeoutError") == "TimeoutError"
    assert (
        exception_name("repro.chaos.plan.InjectedPoisonError: boom")
        == "InjectedPoisonError"
    )
    assert exception_name("KeyError: 'x'\n\n  \n") == "KeyError"
    assert exception_name("") == ""
    assert exception_name(None) == ""


def test_policy_classifies_by_exception_name():
    policy = RetryPolicy()
    assert policy.classify("InjectedTransientError: injected") == "transient"
    assert policy.classify("TrialTimeout: trial exceeded 2s") == "transient"
    assert policy.classify("ValueError: bad f") == "poison"
    assert policy.classify(None) == "poison"


def test_policy_validation():
    with pytest.raises(ConfigurationError, match="max_retries"):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ConfigurationError, match="backoff_factor"):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ConfigurationError, match="jitter"):
        RetryPolicy(jitter=2.0)
    with pytest.raises(ConfigurationError, match="backoff bounds"):
        RetryPolicy(base_backoff=-0.1)


def test_backoff_is_exponential_capped_and_deterministic():
    policy = RetryPolicy(
        base_backoff=0.1, backoff_factor=2.0, max_backoff=0.3, jitter=0.25
    )
    first = policy.backoff_seconds(1, "wave1")
    # Deterministic jitter: the same wave waits the same amount.
    assert first == policy.backoff_seconds(1, "wave1")
    assert 0.1 <= first <= 0.1 * 1.25
    # Attempt 3 would be 0.4 uncapped; the cap bounds it.
    assert policy.backoff_seconds(3, "wave3") <= 0.3 * 1.25
    assert RetryPolicy(base_backoff=0.0).backoff_seconds(1, "wave1") == 0.0
    assert policy.backoff_seconds(0, "wave0") == 0.0


# -- quarantine ledger -----------------------------------------------------------


def quarantined(spec: TrialSpec, **fields) -> QuarantineRecord:
    entry = dict(classification="poison", attempts=1, error="E: x", ladder=())
    entry.update(fields)
    return QuarantineRecord(
        key=trial_key(spec), spec=spec_fingerprint(spec), **entry
    )


def test_ledger_round_trips_with_full_traceback(tmp_path):
    error = "Traceback (most recent call last):\n...\nValueError: poisoned"
    written = quarantined(
        trial(1),
        error=error,
        attempts=2,
        ladder=("chunked-parallel", "inline"),
        plan="poison",
    )
    with QuarantineLedger(quarantine_path(tmp_path)) as ledger:
        ledger.record(written)
        assert ledger.records_written == 1
    line = json.loads(quarantine_path(tmp_path).read_text())
    assert list(line) == [
        "v", "key", "spec", "classification", "attempts", "ladder", "error",
        "ts", "plan",
    ]
    records, skipped = read_quarantine(tmp_path)
    assert skipped == 0
    assert records == [written]  # full traceback, no truncation


def test_reader_counts_corrupt_ledger_lines(tmp_path):
    path = quarantine_path(tmp_path)
    with QuarantineLedger(path) as ledger:
        ledger.record(quarantined(trial(0)))
    with path.open("a", encoding="utf-8") as fh:
        fh.write("not json\n")
    records, skipped = read_quarantine(path)
    assert len(records) == 1 and skipped == 1


# -- supervised execution --------------------------------------------------------


def test_transient_faults_are_retried_to_a_clean_verdict(tmp_path):
    plan = shipped_plans()["transient-exception"]
    naps: list[float] = []
    with Campaign(
        cache_dir=tmp_path, workers=1, metrics=True, fault_plan=plan
    ) as campaign:
        supervisor = Supervisor(campaign, sleep=naps.append)
        run = supervisor.run_trials([trial(s) for s in range(5)])
    assert run.verdict == "clean" and not run.degraded
    assert all(r.ok for r in run.results)
    assert len(run.outcomes()) == 5
    assert run.retries >= 1 and run.quarantined == ()
    # Backoff actually waited, by the policy's deterministic schedule.
    assert naps and naps[0] == supervisor.policy.backoff_seconds(1, "wave1")
    counters = campaign.metrics.counters
    assert counters["supervisor.retries"] == run.retries
    assert counters["supervisor.verdict.clean"] == 1
    # Nothing was quarantined, so no ledger file materialises.
    assert not quarantine_path(tmp_path).exists()


def test_poison_quarantines_with_traceback_and_completes(tmp_path):
    plan = shipped_plans()["poison"]  # targets seed 0 only
    with Campaign(cache_dir=tmp_path, workers=1, fault_plan=plan) as campaign:
        with Supervisor(
            campaign, policy=RetryPolicy(base_backoff=0.0)
        ) as supervisor:
            run = supervisor.run_trials([trial(s) for s in range(3)])
    # Degraded, never aborted: every spec got a result slot.
    assert run.verdict == "degraded" and run.degraded
    assert [r.ok for r in run.results] == [False, True, True]
    (quarantined,) = run.quarantined
    assert quarantined.key == trial_key(trial(0))
    assert quarantined.classification == "poison"
    assert quarantined.plan == "poison"
    assert "Traceback (most recent call last)" in quarantined.error
    assert "InjectedPoisonError" in quarantined.error
    assert "degraded" in run.summary()
    # The on-disk ledger carries the same full traceback.
    records, _ = read_quarantine(tmp_path)
    assert records[0].key == quarantined.key
    assert "InjectedPoisonError" in records[0].error


def test_exhausted_transients_walk_the_full_ladder(tmp_path):
    with Campaign(
        cache_dir=tmp_path, workers=1, metrics=True, fault_plan=ALWAYS_TRANSIENT
    ) as campaign:
        with Supervisor(
            campaign, policy=RetryPolicy(max_retries=2, base_backoff=0.0)
        ) as supervisor:
            run = supervisor.run_trials([trial(0)])
    assert run.verdict == "degraded"
    (quarantined,) = run.quarantined
    assert quarantined.classification == "transient-exhausted"
    assert quarantined.attempts == 2
    assert quarantined.ladder == ("chunked-parallel", "inline", "inline")
    counters = campaign.metrics.counters
    assert "supervisor.rung.smaller-chunks" not in counters
    assert counters["supervisor.rung.inline"] == 2
    assert counters["supervisor.quarantined"] == 1


def test_ladder_restores_pool_configuration(tmp_path):
    with Campaign(cache_dir=tmp_path, workers=1, fault_plan=ALWAYS_TRANSIENT) as campaign:
        saved = campaign.pool.workers
        supervisor = Supervisor(
            campaign, policy=RetryPolicy(max_retries=3, base_backoff=0.0)
        )
        supervisor.run_trials([trial(0)])
        assert campaign.pool.workers == saved
        assert campaign.pool.fault_plan == campaign.fault_plan


def test_zero_retries_quarantines_poison_unretried(tmp_path):
    plan = shipped_plans()["poison"]
    with Campaign(cache_dir=tmp_path, workers=1, fault_plan=plan) as campaign:
        run = Supervisor(
            campaign, policy=RetryPolicy(max_retries=0)
        ).run_trials([trial(0)])
    assert run.verdict == "degraded" and run.retries == 0
    (quarantined,) = run.quarantined
    assert quarantined.classification == "poison"
    assert quarantined.attempts == 0


def test_robustness_events_flow_into_run_stats(tmp_path):
    from repro.obs.stats import load_run_stats, render_run_stats, run_stats_json

    plan = shipped_plans()["poison"]
    with Campaign(
        cache_dir=tmp_path, workers=1, metrics=True, fault_plan=plan
    ) as campaign:
        with Supervisor(
            campaign, policy=RetryPolicy(base_backoff=0.0)
        ) as supervisor:
            supervisor.run_trials([trial(s) for s in range(2)])
    stats = load_run_stats(tmp_path)
    # retry/quarantine/verdict are first-class kinds, not foreign.
    assert stats.foreign_records == 0
    assert len(stats.quarantines) == 1
    assert stats.verdicts[-1]["verdict"] == "degraded"
    text = render_run_stats(stats)
    assert "robustness:" in text and "degraded" in text
    payload = run_stats_json(stats)
    assert payload["robustness"]["quarantined"] == 1
    assert payload["robustness"]["verdicts"] == ["degraded"]
