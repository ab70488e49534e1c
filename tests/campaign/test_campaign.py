"""Tests for the campaign session: dedup, cache modes, error capture."""

import pytest

from repro.campaign import Campaign, TrialStore, trial_key
from repro.errors import CampaignError
from repro.experiments.config import SweepSpec, TrialSpec
from repro.experiments.runner import run_sweep


SWEEP = SweepSpec(
    protocol="flood", adversary="none", n_values=(6, 10), seeds=(0, 1, 2)
)


def kinds(events):
    return [e.kind for e in events]


def test_same_sweep_twice_executes_zero_trials():
    """The acceptance criterion: re-running a sweep simulates nothing."""
    events = []
    with Campaign(workers=1, progress=events.append) as campaign:
        first = campaign.run_sweep(SWEEP)
        assert kinds(events).count("executed") == SWEEP.n_trials
        events.clear()
        second = campaign.run_sweep(SWEEP)
        assert kinds(events).count("executed") == 0
        assert kinds(events).count("cached") == SWEEP.n_trials
    assert first == second


def test_cached_sweep_matches_legacy_runner():
    with Campaign(workers=1) as campaign:
        cached = campaign.run_sweep(SWEEP)
        again = campaign.run_sweep(SWEEP)
    assert cached == run_sweep(SWEEP)
    assert again == cached


def test_overlapping_sweeps_share_trials():
    """Panels sharing a curve (e.g. 3a/3c baselines) simulate it once."""
    events = []
    overlap = SweepSpec(
        protocol="flood", adversary="none", n_values=(10, 14), seeds=(0, 1, 2)
    )
    with Campaign(workers=1, progress=events.append) as campaign:
        campaign.run_sweep(SWEEP)
        events.clear()
        campaign.run_sweep(overlap)
    # N=10 x 3 seeds already ran as part of SWEEP.
    assert kinds(events).count("cached") == 3
    assert kinds(events).count("executed") == 3


def test_duplicate_specs_in_one_batch_execute_once():
    spec = TrialSpec(protocol="flood", adversary="none", n=6, f=1, seed=0)
    events = []
    with Campaign(workers=1, progress=events.append) as campaign:
        results = campaign.run_trials([spec, spec, spec])
    assert kinds(events).count("executed") == 1
    assert kinds(events).count("cached") == 2
    assert all(r.ok for r in results)
    assert results[0].outcome == results[1].outcome == results[2].outcome


def test_no_cache_executes_everything():
    spec = TrialSpec(protocol="flood", adversary="none", n=6, f=1, seed=0)
    events = []
    with Campaign(workers=1, use_cache=False, progress=events.append) as campaign:
        campaign.run_trials([spec, spec])
        campaign.run_trials([spec])
    assert kinds(events) == ["executed"] * 3


def test_fresh_bypasses_reads_but_still_writes(tmp_path):
    spec = TrialSpec(protocol="flood", adversary="none", n=6, f=1, seed=0)
    with Campaign(cache_dir=tmp_path, workers=1) as campaign:
        campaign.run_trials([spec])
    assert len(TrialStore(tmp_path)) == 1

    events = []
    with Campaign(
        cache_dir=tmp_path, workers=1, fresh=True, progress=events.append
    ) as campaign:
        campaign.run_trials([spec])
        # Within the fresh session the memo still dedupes.
        campaign.run_trials([spec])
    assert kinds(events) == ["executed", "cached"]
    # The fresh run re-recorded its result (append-only: two records).
    store = TrialStore(tmp_path)
    assert len(store) == 1  # same key, last write wins
    assert store.path.read_text().count('"key"') == 2


def test_per_trial_error_capture():
    good = TrialSpec(protocol="flood", adversary="none", n=6, f=1, seed=0)
    bad = TrialSpec(
        protocol="flood", adversary="ugf", n=6, f=1, seed=0,
        adversary_kwargs=(("q1", 7.0),),  # outside (0, 1) -> ConfigurationError
    )
    events = []
    with Campaign(workers=1, progress=events.append) as campaign:
        results = campaign.run_trials([good, bad])
    assert results[0].ok
    assert not results[1].ok
    assert "q1" in results[1].error
    assert kinds(events) == ["executed", "failed"]
    failed = [e for e in events if e.kind == "failed"]
    assert failed[0].error == results[1].error


def test_run_sweep_surfaces_failures_as_campaign_error():
    bad_sweep = SweepSpec(
        protocol="flood",
        adversary="ugf",
        n_values=(6,),
        seeds=(0, 1),
        adversary_kwargs=(("q1", 7.0),),
    )
    with Campaign(workers=1) as campaign:
        with pytest.raises(CampaignError, match="q1"):
            campaign.run_sweep(bad_sweep)


def test_run_trial_raises_on_failure():
    bad = TrialSpec(
        protocol="flood", adversary="ugf", n=6, f=1, seed=0,
        adversary_kwargs=(("q1", 7.0),),
    )
    with Campaign(workers=1) as campaign:
        with pytest.raises(CampaignError):
            campaign.run_trial(bad)


def test_parallel_campaign_matches_inline():
    with Campaign(workers=2) as parallel, Campaign(workers=1) as inline:
        assert parallel.run_sweep(SWEEP) == inline.run_sweep(SWEEP)


def test_stats_accumulate_across_batches():
    with Campaign(workers=1) as campaign:
        campaign.run_sweep(SWEEP)
        campaign.run_sweep(SWEEP)
        assert campaign.stats.executed == SWEEP.n_trials
        assert campaign.stats.cached == SWEEP.n_trials
        assert campaign.stats.failed == 0
        assert "executed" in campaign.stats.summary()


def test_progress_counts_are_batch_local():
    events = []
    with Campaign(workers=1, progress=events.append) as campaign:
        campaign.run_sweep(SWEEP)
    assert [e.done for e in events] == list(range(1, SWEEP.n_trials + 1))
    assert all(e.total == SWEEP.n_trials for e in events)


@pytest.mark.parametrize("limit", [0, 1, 3])
def test_memo_limit_evicts_oldest_first(limit):
    """Past ``memo_limit`` the oldest insertions go first (FIFO: a
    re-stored key keeps its place), and the memo never exceeds the cap."""
    with Campaign(workers=1, memo_limit=limit) as campaign:
        inserted = []
        for i in range(6):
            campaign._memoize(f"k{i}", i)
            inserted.append(f"k{i}")
            assert list(campaign._memo) == inserted[max(0, len(inserted) - limit) :]
        if limit:
            oldest = next(iter(campaign._memo))
            campaign._memoize(oldest, "again")
            campaign._memoize("k6", 6)
            assert oldest not in campaign._memo
            assert len(campaign._memo) == limit


def test_memo_limit_holds_the_newest_results_of_a_batch():
    specs = [
        TrialSpec(protocol="flood", adversary="none", n=6, f=1, seed=s)
        for s in range(5)
    ]
    with Campaign(workers=1, memo_limit=2) as campaign:
        campaign.run_trials(specs)
        assert list(campaign._memo) == [trial_key(s) for s in specs[-2:]]
