"""Tests for trial/sweep execution."""

import pytest

from repro.campaign import Campaign
from repro.errors import CampaignError
from repro.experiments.ablation import run_f_sweep
from repro.experiments.config import SweepSpec, TrialSpec
from repro.experiments.runner import aggregate_sweep, measure, run_sweep, run_trial
from repro.experiments.tradeoff import run_tradeoff


def test_run_trial_builds_from_names():
    outcome = run_trial(
        TrialSpec(protocol="round-robin", adversary="none", n=10, f=0, seed=0)
    )
    assert outcome.protocol_name == "round-robin"
    assert outcome.adversary_name == "none"
    assert outcome.message_complexity() == 90


def test_run_trial_forwards_kwargs():
    outcome = run_trial(
        TrialSpec(
            protocol="sears",
            adversary="str-2.1.1",
            n=12,
            f=4,
            seed=1,
            protocol_kwargs=(("eps", 0.0),),
            adversary_kwargs=(("tau", 3),),
        )
    )
    assert outcome.completed
    assert outcome.max_delivery_time == 9


def test_run_sweep_inline_aggregates_per_n():
    sweep = SweepSpec(
        protocol="round-robin",
        adversary="none",
        n_values=(6, 10),
        seeds=(0, 1, 2),
    )
    result = run_sweep(sweep)
    assert [p.n for p in result.points] == [6, 10]
    # Round-robin is deterministic: quartiles collapse onto the median.
    p6 = result.points[0]
    assert p6.messages.median == 30.0
    assert p6.messages.q1 == p6.messages.q3 == 30.0
    assert p6.truncated_runs == 0
    assert p6.gather_failures == 0


def test_run_sweep_parallel_matches_inline():
    sweep = SweepSpec(
        protocol="push-pull",
        adversary="ugf",
        n_values=(10, 16),
        seeds=(0, 1, 2, 3),
    )
    inline = run_sweep(sweep)
    # This cell routes batch under "auto", which runs inline whatever the
    # pool size; forcing scalar is what sends it through the two workers.
    with Campaign(workers=2, backend="scalar") as campaign:
        parallel = run_sweep(sweep, campaign=campaign)
        assert campaign.pool._executor is not None
    assert [p.n for p in parallel.points] == [p.n for p in inline.points] == [10, 16]
    for a, b in zip(inline.points, parallel.points):
        assert a.messages.median == b.messages.median
        assert a.time.median == b.time.median


FLOOD = TrialSpec("flood", "none", 4, 1, 0)
BAD = TrialSpec("flood", "nope", 4, 1, 0)


def test_measure_groups_outcomes_by_label_in_submission_order():
    other = TrialSpec("flood", "none", 6, 1, 0)
    measured = measure([("b", other), ("a", FLOOD), ("b", FLOOD)])
    assert list(measured) == ["b", "a"]
    assert [o.n for o in measured["b"]] == [6, 4]


@pytest.mark.parametrize(
    "entry, failed",
    [
        # measure's own default session, then two entry points handed a
        # campaign: none of them may swallow the failure.
        (lambda campaign: measure([("ok", FLOOD), ("bad", BAD)]), "1/2"),
        (
            lambda campaign: run_f_sweep(
                "flood", n=4, fractions=(0.3,), seeds=(0,), adversary="nope",
                campaign=campaign,
            ),
            "1/1",
        ),
        (
            lambda campaign: run_tradeoff(
                "nope", n=4, f=1, tau=2, k_values=(1,), seeds=(0,), campaign=campaign
            ),
            "2/2",
        ),
    ],
    ids=["measure", "run_f_sweep", "run_tradeoff"],
)
def test_failed_trials_raise_naming_the_count_and_spec(entry, failed):
    with Campaign(workers=1) as campaign:
        with pytest.raises(CampaignError, match=f"{failed} trials failed") as info:
            entry(campaign)
    assert "nope" in str(info.value)


def test_series_accessor():
    sweep = SweepSpec(
        protocol="flood", adversary="none", n_values=(5, 8), seeds=(0,)
    )
    result = run_sweep(sweep)
    ns, msgs = result.series("messages")
    assert ns == [5, 8]
    assert msgs == [20.0, 56.0]
    _, times = result.series("time")
    assert all(t <= 1.5 for t in times)
    with pytest.raises(ValueError):
        result.series("latency")


def test_quartiles_accessor():
    sweep = SweepSpec(
        protocol="push-pull", adversary="ugf", n_values=(10, 16), seeds=(0, 1, 2)
    )
    result = run_sweep(sweep)
    ns, q1s, q3s = result.quartiles("messages")
    assert ns == [10, 16]
    assert q1s == [p.messages.q1 for p in result.points]
    assert q3s == [p.messages.q3 for p in result.points]
    assert all(a <= b for a, b in zip(q1s, q3s))
    _, tq1s, tq3s = result.quartiles("time")
    assert tq1s == [p.time.q1 for p in result.points]
    assert tq3s == [p.time.q3 for p in result.points]
    with pytest.raises(ValueError):
        result.quartiles("latency")


class _VaryingFSpec:
    """Duck-typed sweep spec whose grid repeats an N with different F."""

    protocol = "flood"
    adversary = "none"
    max_steps = 5_000_000

    def trials(self):
        for f in (0, 2):
            for seed in (0, 1):
                yield TrialSpec(
                    protocol="flood", adversary="none", n=8, f=f, seed=seed
                )


def test_aggregate_keys_cells_by_n_and_f():
    # Same N with two different F values must stay two points, not
    # silently merge into one (the old by-N grouping bug).
    spec = _VaryingFSpec()
    outcomes = [run_trial(t) for t in spec.trials()]
    result = aggregate_sweep(spec, outcomes)
    assert [(p.n, p.f) for p in result.points] == [(8, 0), (8, 2)]
    assert all(p.messages.n_runs == 2 for p in result.points)


def test_aggregate_rejects_outcomes_foreign_to_the_grid():
    sweep = SweepSpec(
        protocol="flood", adversary="none", n_values=(6,), seeds=(0,)
    )
    stray = run_trial(
        TrialSpec(protocol="flood", adversary="none", n=9, f=2, seed=0)
    )
    with pytest.raises(CampaignError, match="does not match"):
        aggregate_sweep(sweep, [stray])


def test_aggregate_rejects_mismatched_protocol():
    sweep = SweepSpec(
        protocol="push-pull", adversary="none", n_values=(6,), seeds=(0,)
    )
    wrong = run_trial(
        TrialSpec(protocol="flood", adversary="none", n=6, f=2, seed=0)
    )
    with pytest.raises(CampaignError, match="spec wants"):
        aggregate_sweep(sweep, [wrong])


def test_all_truncated_without_allow_raises():
    from repro.errors import IncompleteRunError

    sweep = SweepSpec(
        protocol="ears",
        adversary="none",
        n_values=(20,),
        seeds=(0, 1),
        max_steps=3,
    )
    with pytest.raises(IncompleteRunError, match="max_steps"):
        run_sweep(sweep, allow_truncated=False)


def test_truncated_runs_counted():
    # An omission attack on round-robin delays messages past any
    # horizon the run can reach, so receivers never hear from C...
    # round-robin still completes (senders don't wait), so use a tiny
    # max_steps to force truncation instead.
    sweep = SweepSpec(
        protocol="ears",
        adversary="none",
        n_values=(20,),
        seeds=(0, 1),
        max_steps=3,
    )
    result = run_sweep(sweep)
    assert result.points[0].truncated_runs == 2
