"""The differential chaos battery — the robustness layer's headline proof.

For every shipped :class:`FaultPlan` that models a *recoverable* fault,
a supervised campaign run under injection must converge to a trial
store **byte-identical at the outcome-wire level** to a fault-free
run: same content addresses mapping to same wire payloads, compared as
canonical JSON (retries may reorder or duplicate appends; last write
wins, exactly as the reader resolves them).

The ``poison`` plan proves the complementary property: a deterministic
failure ends in quarantine — the run *completes, degraded* — and every
trial the fault did not touch is still byte-identical to baseline.
"""

import json
import pathlib

import pytest

from repro.campaign import Campaign
from repro.campaign.keys import trial_key
from repro.chaos.doctor import diagnose
from repro.chaos.plan import shipped_plans
from repro.chaos.supervisor import RetryPolicy, Supervisor, read_quarantine
from repro.experiments.config import TrialSpec

SPECS = [
    TrialSpec(protocol="flood", adversary="none", n=8, f=0, seed=seed)
    for seed in range(5)
]

#: Per-plan knobs: pool-starvation stalls workers for longer than the
#: whole sweep, so the per-trial deadline must cut the stall short for
#: the ladder to reach the inline rung (where the pid guard disarms it).
_TRIAL_TIMEOUT = {"pool-starvation": 0.75}
_MAX_RETRIES = {"pool-starvation": 6}

RECOVERY_PLANS = sorted(set(shipped_plans()) - {"poison"})


def wire_image(run_dir) -> str:
    """The store reduced to canonical JSON of key → wire, last write wins."""
    index = {}
    store = pathlib.Path(run_dir) / "trials.jsonl"
    for line in store.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            index[record["key"]] = record["wire"]
        except (json.JSONDecodeError, KeyError, TypeError):
            continue  # torn/corrupt lines: skipped, like the reader
    return json.dumps(index, sort_keys=True)


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("baseline")
    with Campaign(cache_dir=run_dir, workers=1) as campaign:
        results = campaign.run_trials(SPECS)
    assert all(r.ok for r in results)
    return wire_image(run_dir)


def supervised_run(run_dir, plan, *, max_retries=3):
    with Campaign(
        cache_dir=run_dir,
        workers=2,
        metrics=True,
        trial_timeout=_TRIAL_TIMEOUT.get(plan.name),
        fault_plan=plan,
    ) as campaign:
        with Supervisor(
            campaign, policy=RetryPolicy(max_retries=max_retries, base_backoff=0.0)
        ) as supervisor:
            run = supervisor.run_trials(SPECS)
    # After close(): store.tear fires there, so chaos.* counters are
    # only complete once the campaign session has ended.
    return run, dict(campaign.metrics.counters)


#: Per-plan evidence that the fault actually fired — without this, a
#: plan that silently stopped injecting would pass the battery vacuously.
_FAULT_EVIDENCE = {
    "worker-kill": "pool.broken_pool_recoveries",
    "transient-exception": "supervisor.retries",
    "fsync-failure": "store.fsync_retries",
    "torn-tail": "chaos.torn_bytes",
    "pool-starvation": "supervisor.retries",
}


@pytest.mark.parametrize("name", RECOVERY_PLANS)
def test_supervised_recovery_matches_fault_free_run(name, baseline, tmp_path):
    plan = shipped_plans()[name]
    run_dir = tmp_path / name
    run, counters = supervised_run(
        run_dir, plan, max_retries=_MAX_RETRIES.get(name, 3)
    )
    assert counters.get(_FAULT_EVIDENCE[name], 0) > 0, (
        f"plan {name!r} injected nothing — the battery proved nothing"
    )

    if name == "torn-tail":
        # The tear fires at session close: one record is lost on disk
        # even though the run itself was clean. Heal the tail, then a
        # fresh session resumes — re-running only the torn trial.
        assert run.verdict == "clean"
        report = diagnose(run_dir, repair=True)
        assert report.repairs and report.ok
        with Campaign(cache_dir=run_dir, workers=1) as campaign:
            run = Supervisor(campaign).run_trials(SPECS)
        assert sum(not r.cached for r in run.results) == 1

    assert run.verdict == "clean", run.summary()
    assert all(r.ok for r in run.results)
    assert run.quarantined == ()
    assert wire_image(run_dir) == baseline
    # And the recovered run directory passes the doctor.
    assert diagnose(run_dir).ok


def test_poison_plan_quarantines_and_spares_the_rest(baseline, tmp_path):
    run_dir = tmp_path / "poison"
    run, counters = supervised_run(run_dir, shipped_plans()["poison"])
    # Completed and degraded — never aborted.
    assert run.verdict == "degraded"
    assert counters["supervisor.verdict.degraded"] == 1
    poisoned_key = trial_key(SPECS[0])  # the plan targets seed 0
    (quarantined,) = run.quarantined
    assert quarantined.key == poisoned_key
    assert quarantined.classification == "poison"
    records, skipped = read_quarantine(run_dir)
    assert skipped == 0
    assert "Traceback (most recent call last)" in records[0].error
    assert "InjectedPoisonError" in records[0].error

    # Every untouched trial is still byte-identical to baseline.
    faulted = json.loads(wire_image(run_dir))
    expected = json.loads(baseline)
    assert poisoned_key not in faulted
    del expected[poisoned_key]
    assert faulted == expected
    assert diagnose(run_dir).ok
