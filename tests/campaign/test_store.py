"""Tests for the append-only JSONL trial store."""

import json

import numpy as np

from repro.campaign.keys import spec_fingerprint, trial_key
from repro.campaign.store import TrialStore
from repro.experiments.config import TrialSpec
from repro.experiments.runner import run_trial


def trial(seed: int = 0) -> TrialSpec:
    return TrialSpec(protocol="flood", adversary="none", n=8, f=2, seed=seed)


def test_miss_then_hit(tmp_path):
    store = TrialStore(tmp_path)
    spec = trial()
    key = trial_key(spec)
    assert store.get(key) is None
    assert key not in store
    outcome = run_trial(spec)
    store.put(key, spec_fingerprint(spec), outcome)
    assert key in store
    got = store.get(key)
    assert got is not None
    assert got.message_complexity() == outcome.message_complexity()


def test_survives_reload(tmp_path):
    spec = trial()
    key = trial_key(spec)
    outcome = run_trial(spec)
    with TrialStore(tmp_path) as store:
        store.put(key, spec_fingerprint(spec), outcome)

    reloaded = TrialStore(tmp_path)
    got = reloaded.get(key)
    assert got is not None
    assert got.n == outcome.n
    assert np.array_equal(got.sent, outcome.sent)


def test_truncated_final_line_is_skipped_not_fatal(tmp_path):
    specs = [trial(0), trial(1)]
    with TrialStore(tmp_path) as store:
        for s in specs:
            store.put(trial_key(s), spec_fingerprint(s), run_trial(s))

    # Simulate a crash mid-append: chop the last line in half.
    path = TrialStore(tmp_path).path
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    path.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])

    store = TrialStore(tmp_path)
    assert store.get(trial_key(specs[0])) is not None
    assert store.get(trial_key(specs[1])) is None
    assert store.skipped_lines == 1


def test_garbage_lines_are_skipped(tmp_path):
    spec = trial()
    with TrialStore(tmp_path) as store:
        store.put(trial_key(spec), spec_fingerprint(spec), run_trial(spec))
    path = TrialStore(tmp_path).path
    with path.open("a") as fh:
        fh.write("not json at all\n")
        fh.write(json.dumps({"wrong": "shape"}) + "\n")
        fh.write(json.dumps({"key": 7, "outcome": {}}) + "\n")
        fh.write("[" * 200_000 + "\n")  # nested deeper than the parser recurses

    store = TrialStore(tmp_path)
    assert len(store) == 1
    assert store.skipped_lines == 4
    assert store.get(trial_key(spec)) is not None


def test_appends_accumulate_across_sessions(tmp_path):
    for seed in range(3):
        s = trial(seed)
        with TrialStore(tmp_path) as store:
            store.put(trial_key(s), spec_fingerprint(s), run_trial(s))
    assert len(TrialStore(tmp_path)) == 3


def test_record_is_durable_before_put_returns(tmp_path):
    # Crash-safety contract: the bytes are on disk (flush + fsync) the
    # moment put() returns — a second, independent reader sees them
    # without the writer closing its handle first.
    spec = trial()
    key = trial_key(spec)
    outcome = run_trial(spec)
    writer = TrialStore(tmp_path)
    writer.put(key, spec_fingerprint(spec), outcome)
    try:
        reader = TrialStore(tmp_path)
        assert reader.get(key) is not None
    finally:
        writer.close()


def test_each_record_is_exactly_one_line(tmp_path):
    # One write() per record: a reader (or a crash) can never observe
    # a record split across lines.
    specs = [trial(seed) for seed in range(3)]
    with TrialStore(tmp_path) as store:
        for spec in specs:
            store.put(trial_key(spec), spec_fingerprint(spec), run_trial(spec))
    raw = (tmp_path / "trials.jsonl").read_text()
    assert raw.endswith("\n")
    lines = raw.splitlines()
    assert len(lines) == 3
    assert {json.loads(line)["key"] for line in lines} == {
        trial_key(spec) for spec in specs
    }


def test_interleaved_writers_do_not_corrupt_the_store(tmp_path):
    # Two stores appending to the same file (two terminals sharing a
    # cache volume); the flock guarantees whole-line appends.
    a, b = TrialStore(tmp_path), TrialStore(tmp_path)
    spec_a, spec_b = trial(10), trial(11)
    outcome_a, outcome_b = run_trial(spec_a), run_trial(spec_b)
    a.put(trial_key(spec_a), spec_fingerprint(spec_a), outcome_a)
    b.put(trial_key(spec_b), spec_fingerprint(spec_b), outcome_b)
    a.close(), b.close()
    fresh = TrialStore(tmp_path)
    assert fresh.skipped_lines == 0
    assert fresh.get(trial_key(spec_a)) is not None
    assert fresh.get(trial_key(spec_b)) is not None
    assert fresh.skipped_lines == 0


# -- wire-format records ---------------------------------------------------------


def test_new_records_are_wire_format(tmp_path):
    store = TrialStore(tmp_path)
    spec = trial()
    store.put(trial_key(spec), spec_fingerprint(spec), run_trial(spec))
    record = json.loads((tmp_path / "trials.jsonl").read_text())
    assert isinstance(record["wire"], list)
    assert "outcome" not in record


def test_legacy_dict_records_are_skipped_until_doctor_migrates_them(tmp_path, pre_wire_line):
    # A pre-wire {"key","spec","outcome"} line is a miss like any unusable
    # line. doctor no longer rewrites it into the wire format: --repair
    # drops it, and the trial's next miss recomputes it, which is the
    # only migration left.
    import warnings

    from repro.campaign import Campaign
    from repro.chaos.doctor import diagnose

    wire_specs, old = [trial(0), trial(1)], trial(2)
    path = tmp_path / "trials.jsonl"
    with TrialStore(tmp_path) as store:
        spec = wire_specs[0]
        store.put(trial_key(spec), spec_fingerprint(spec), run_trial(spec))
    with path.open("ab") as fh:
        fh.write(pre_wire_line(old))
    with TrialStore(tmp_path) as store:
        spec = wire_specs[1]
        store.put(trial_key(spec), spec_fingerprint(spec), run_trial(spec))

    # The loader skips and counts the line without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with TrialStore(tmp_path) as store:
            assert store.get(trial_key(old)) is None
            for spec in wire_specs:
                assert store.get(trial_key(spec)).to_wire() == run_trial(spec).to_wire()
            assert store.skipped_lines == 1
    report = diagnose(tmp_path)
    assert report.ok
    assert [(f.severity, f.kind) for f in report.findings] == [("warn", "foreign-record")]
    assert report.record_keys == {trial_key(s) for s in wire_specs}

    # --repair drops the line and keeps every wire record.
    report = diagnose(tmp_path, repair=True)
    assert report.ok and report.findings == [] and report.repairs
    assert b'"outcome"' not in path.read_bytes()
    assert report.record_keys == {trial_key(s) for s in wire_specs}

    # The pre-wire trial is recomputed once, then served like any record.
    batch = [*wire_specs, old]
    with Campaign(cache_dir=tmp_path, workers=1) as campaign:
        assert [r.cached for r in campaign.run_trials(batch)] == [True, True, False]
    with Campaign(cache_dir=tmp_path, workers=1) as campaign:
        results = campaign.run_trials(batch)
        assert all(r.ok and r.cached for r in results)
        assert results[2].outcome.to_wire() == run_trial(old).to_wire()


def test_put_many_appends_every_record_atomically(tmp_path):
    specs = [trial(seed) for seed in range(3)]
    items = [
        (trial_key(s), spec_fingerprint(s), run_trial(s)) for s in specs
    ]
    with TrialStore(tmp_path) as store:
        store.put_many(items)
    lines = (tmp_path / "trials.jsonl").read_text().splitlines()
    assert len(lines) == 3
    reloaded = TrialStore(tmp_path)
    for (key, _, outcome), spec in zip(items, specs):
        got = reloaded.get(key)
        assert got is not None
        assert np.array_equal(got.sent, outcome.sent)


# -- torn-tail recovery ----------------------------------------------------------


def test_append_onto_torn_tail_self_heals(tmp_path):
    from repro.chaos.inject import tear_tail

    specs = [trial(0), trial(1)]
    with TrialStore(tmp_path) as store:
        for s in specs:
            store.put(trial_key(s), spec_fingerprint(s), run_trial(s))
    path = tmp_path / "trials.jsonl"
    assert tear_tail(path) > 0

    # A fresh session appends straight onto the torn file; the store
    # must newline-terminate the fragment first so the new record does
    # not merge into it and get corrupted too.
    late = trial(2)
    with TrialStore(tmp_path) as store:
        store.put(trial_key(late), spec_fingerprint(late), run_trial(late))

    fresh = TrialStore(tmp_path)
    assert fresh.get(trial_key(specs[0])) is not None  # untouched
    assert fresh.get(trial_key(specs[1])) is None  # torn: lost, skipped
    assert fresh.get(trial_key(late)) is not None  # new record intact
    assert fresh.skipped_lines == 1  # damage confined to the fragment


def test_torn_tail_resume_reruns_only_the_lost_trial(tmp_path):
    from repro.campaign import Campaign
    from repro.chaos.inject import tear_tail

    specs = [trial(seed) for seed in range(4)]
    with Campaign(cache_dir=tmp_path, workers=1) as campaign:
        assert all(r.ok for r in campaign.run_trials(specs))
    assert tear_tail(tmp_path / "trials.jsonl") > 0

    # Resume: the reader skips the torn record, the campaign re-runs
    # exactly that one trial, and the healed store serves all four.
    with Campaign(cache_dir=tmp_path, workers=1) as campaign:
        results = campaign.run_trials(specs)
    assert all(r.ok for r in results)
    assert sum(not r.cached for r in results) == 1
    assert len(TrialStore(tmp_path)) == 4


def test_doctor_repair_truncates_a_torn_tail_cleanly(tmp_path):
    from repro.chaos.doctor import diagnose
    from repro.chaos.inject import tear_tail

    specs = [trial(0), trial(1)]
    with TrialStore(tmp_path) as store:
        store.put_many(
            [(trial_key(s), spec_fingerprint(s), run_trial(s)) for s in specs]
        )
    tear_tail(tmp_path / "trials.jsonl")
    report = diagnose(tmp_path, repair=True)
    assert report.ok and report.repairs
    # Byte-clean again: one whole-line record, no fragment.
    raw = (tmp_path / "trials.jsonl").read_bytes()
    assert raw.endswith(b"\n") and raw.count(b"\n") == 1
    assert TrialStore(tmp_path).skipped_lines == 0


def test_transient_fsync_failure_is_absorbed(tmp_path):
    from repro.chaos.inject import FaultInjector
    from repro.chaos.plan import FaultPlan, FaultRule
    from repro.obs.registry import MetricsRegistry

    plan = FaultPlan(
        seed=17,
        rules=(FaultRule(site="store.fsync", rate=1.0, attempts=2),),
    )
    metrics = MetricsRegistry()
    spec = trial(0)
    with TrialStore(
        tmp_path, metrics=metrics, injector=FaultInjector(plan)
    ) as store:
        store.put(trial_key(spec), spec_fingerprint(spec), run_trial(spec))
    # Two injected failures, absorbed by the bounded retry; the record
    # is durable and a fresh reader sees it.
    assert metrics.counters["store.fsync_retries"] == 2
    assert TrialStore(tmp_path).get(trial_key(spec)) is not None
    # Each retry re-wrote the record (a failed fsync may have dropped
    # the first copy's pages), and the index serves the copy that synced.
    raw = (tmp_path / "trials.jsonl").read_bytes()
    assert raw.count(b"\n") == 3
    last = raw.rindex(b"\n", 0, len(raw) - 1) + 1
    index = json.loads((tmp_path / "store-index.json").read_text())
    assert index["entries"][trial_key(spec)][0] == last


def test_persistent_fsync_failure_raises_campaign_error(tmp_path, monkeypatch):
    import time

    import pytest

    from repro.chaos.inject import FaultInjector
    from repro.chaos.plan import FaultPlan, FaultRule
    from repro.errors import CampaignError

    plan = FaultPlan(
        seed=17,
        rules=(FaultRule(site="store.fsync", rate=1.0, attempts=None),),
    )
    attempts: list[int] = []
    check_fsync = FaultInjector.check_fsync

    def counted_check(injector, retry):
        attempts.append(retry)
        check_fsync(injector, retry)

    waits: list[float] = []
    monkeypatch.setattr(FaultInjector, "check_fsync", counted_check)
    # Record the backoff instead of sleeping it: also keeps the test fast.
    monkeypatch.setattr(time, "sleep", waits.append)
    spec = trial(0)
    with TrialStore(tmp_path, injector=FaultInjector(plan)) as store:
        with pytest.raises(CampaignError, match="after 4 fsync attempts"):
            store.put(trial_key(spec), spec_fingerprint(spec), run_trial(spec))
    assert attempts == [0, 1, 2, 3]
    assert waits == [0.01, 0.02, 0.04]
