"""Tests for the pluggable store backends (docs/SERVICE.md).

Covers the sharded backend (round trip, offset-index tail scan,
compaction), backend auto-detection, corrupt records (a counted miss
that no reader rewrites away), the non-POSIX unlocked-append warning,
and doctor/check against a sharded layout.
"""

import json

import pytest

from repro.campaign.keys import spec_fingerprint, trial_key
from repro.campaign.sharded import INDEX_FILENAME, ShardedBackend, shard_of
from repro.campaign.store import TrialStore, discover_store_files
from repro.experiments.config import TrialSpec
from repro.experiments.runner import run_trial
from repro.obs.registry import MetricsRegistry


def trial(seed: int = 0) -> TrialSpec:
    return TrialSpec(protocol="flood", adversary="none", n=8, f=2, seed=seed)


def fill(store: TrialStore, seeds) -> dict[str, TrialSpec]:
    keys = {}
    for seed in seeds:
        spec = trial(seed)
        key = trial_key(spec)
        store.put(key, spec_fingerprint(spec), run_trial(spec))
        keys[key] = spec
    return keys


# -- sharded round trip --------------------------------------------------------


def test_sharded_round_trip_and_reload(tmp_path):
    with TrialStore(tmp_path, backend="sharded", shards=4) as store:
        keys = fill(store, range(8))
        assert len(store) == 8
        for key in keys:
            assert store.get(key) is not None

    # Records landed in the shard their content address names.
    files = discover_store_files(tmp_path)
    assert files and all(f.name.startswith("trials-") for f in files)
    shard_names = {f"trials-{shard_of(k, 4):02d}.jsonl" for k in keys}
    assert {f.name for f in files} == shard_names

    reloaded = TrialStore(tmp_path, backend="sharded")
    assert len(reloaded) == 8
    for key, spec in keys.items():
        got = reloaded.get(key)
        assert got is not None
        assert got.n == spec.n


def test_auto_detection_picks_layout(tmp_path):
    jsonl_dir = tmp_path / "a"
    sharded_dir = tmp_path / "b"
    with TrialStore(jsonl_dir, backend="jsonl") as s:
        fill(s, [0])
    with TrialStore(sharded_dir, backend="sharded") as s:
        fill(s, [0])

    assert TrialStore(jsonl_dir).backend.name == "jsonl"
    assert TrialStore(sharded_dir).backend.name == "sharded"
    # A fresh directory defaults to the single-file layout.
    assert TrialStore(tmp_path / "fresh").backend.name == "jsonl"
    # Both auto-opened stores actually serve their records.
    key = trial_key(trial(0))
    assert TrialStore(jsonl_dir).get(key) is not None
    assert TrialStore(sharded_dir).get(key) is not None


def test_existing_shard_count_wins(tmp_path):
    with TrialStore(tmp_path, backend="sharded", shards=4) as s:
        keys = fill(s, range(8))
    # Reopening with a different requested count keeps the on-disk
    # fan-out: record placement must stay stable.
    store = TrialStore(tmp_path, backend="sharded", shards=32)
    assert store.backend.shards == 4
    assert all(store.get(k) is not None for k in keys)


# -- the offset index ----------------------------------------------------------


def test_offset_index_written_on_close_and_used_for_tail_scan(tmp_path):
    with TrialStore(tmp_path, backend="sharded", shards=2) as store:
        keys = fill(store, range(4))
    index_path = tmp_path / INDEX_FILENAME
    assert index_path.exists()
    indexed = json.loads(index_path.read_text())
    assert set(indexed["entries"]) == set(keys)

    # Another session appends past the indexed sizes...
    with TrialStore(tmp_path, backend="sharded") as store:
        keys.update(fill(store, range(4, 7)))

    # ...and a third loads via the index + tail scan and sees all.
    backend = ShardedBackend(tmp_path)
    backend.load()
    assert set(backend._entries) == set(keys)
    store = TrialStore(tmp_path, backend="sharded")
    assert all(store.get(k) is not None for k in keys)


def test_deleted_index_costs_only_a_full_scan(tmp_path):
    with TrialStore(tmp_path, backend="sharded", shards=2) as store:
        keys = fill(store, range(4))
    (tmp_path / INDEX_FILENAME).unlink()
    store = TrialStore(tmp_path, backend="sharded")
    assert all(store.get(k) is not None for k in keys)


def test_shard_rewritten_behind_index_triggers_full_rescan(tmp_path):
    with TrialStore(tmp_path, backend="sharded", shards=1) as store:
        keys = list(fill(store, range(3)))
    shard = tmp_path / "trials-00.jsonl"
    lines = shard.read_text().splitlines(keepends=True)
    # External rewrite: drop the first record (offsets all shift).
    shard.write_text("".join(lines[1:]))

    store = TrialStore(tmp_path, backend="sharded")
    assert store.get(keys[0]) is None
    assert store.get(keys[1]) is not None
    assert store.get(keys[2]) is not None


def test_torn_shard_tail_is_skipped_not_fatal(tmp_path):
    with TrialStore(tmp_path, backend="sharded", shards=1) as store:
        keys = list(fill(store, range(2)))
    (tmp_path / INDEX_FILENAME).unlink()
    shard = tmp_path / "trials-00.jsonl"
    data = shard.read_bytes()
    shard.write_bytes(data[: len(data) - len(data) // 4])  # tear the tail

    store = TrialStore(tmp_path, backend="sharded")
    assert store.get(keys[0]) is not None
    assert store.get(keys[1]) is None
    assert store.skipped_lines == 1


# -- compaction ----------------------------------------------------------------


def test_compact_drops_duplicates_and_torn_lines(tmp_path):
    spec = trial(0)
    key = trial_key(spec)
    outcome = run_trial(spec)
    with TrialStore(tmp_path, backend="sharded", shards=2) as store:
        for _ in range(3):  # two superseded rewrites
            store.put(key, spec_fingerprint(spec), outcome)
        fill(store, [1])
    shard = tmp_path / f"trials-{shard_of(key, 2):02d}.jsonl"
    with shard.open("a") as fh:
        fh.write("torn fragm")  # crash mid-append
    before = sum(f.stat().st_size for f in discover_store_files(tmp_path))

    store = TrialStore(tmp_path, backend="sharded")
    report = store.compact()
    assert report.records_kept == 2
    assert report.duplicates_dropped == 2
    assert report.corrupt_dropped == 1
    assert report.bytes_reclaimed > 0
    after = sum(f.stat().st_size for f in discover_store_files(tmp_path))
    assert after == before - report.bytes_reclaimed

    # The compacted store still serves everything, cleanly.
    assert store.get(key) is not None
    reloaded = TrialStore(tmp_path)
    assert len(reloaded) == 2
    assert reloaded.skipped_lines == 0


def test_compact_drop_keys_quarantines_records(tmp_path):
    with TrialStore(tmp_path, backend="jsonl") as store:
        keys = list(fill(store, range(3)))
    store = TrialStore(tmp_path)
    report = store.compact(drop_keys={keys[0]})
    assert report.quarantined_dropped == 1
    assert store.get(keys[0]) is None
    assert store.get(keys[1]) is not None
    assert TrialStore(tmp_path).get(keys[0]) is None  # gone from disk


# -- corrupt records: a counted miss, removed from disk only by the operator ----


def append_corrupt_record(path, spec: TrialSpec) -> bytes:
    """Append to *path* a record of *spec* that is valid JSON with a good
    key but whose wire no longer decodes; returns the line."""
    record = {"key": trial_key(spec), "spec": spec_fingerprint(spec), "wire": []}
    bad = json.dumps(record)
    with path.open("a") as fh:
        fh.write(bad + "\n")
    return bad.encode()


@pytest.mark.parametrize("backend", ["jsonl", "sharded"])
def test_corrupt_record_is_a_counted_miss_until_repair(tmp_path, backend):
    from repro.campaign import Campaign
    from repro.chaos.doctor import diagnose

    spec = trial(0)
    with TrialStore(tmp_path, backend=backend) as store:
        fill(store, [1])
    target = discover_store_files(tmp_path)[0] if backend == "jsonl" else (
        tmp_path / f"trials-{shard_of(trial_key(spec), 16):02d}.jsonl"
    )
    bad = append_corrupt_record(target, spec)

    # The campaign sees a miss, counts it, and recomputes; the file is
    # not rewritten — the recompute's append is what the next load serves.
    with Campaign(cache_dir=tmp_path, workers=1, metrics=True) as campaign:
        (result,) = campaign.run_trials([spec])
        assert result.ok and not result.cached
        assert campaign.metrics.counters["store.corrupt_records"] == 1
    assert any(bad in f.read_bytes() for f in discover_store_files(tmp_path))
    with Campaign(cache_dir=tmp_path, workers=1) as campaign:
        (result,) = campaign.run_trials([spec])
        assert result.ok and result.cached

    # The bad line leaves disk on the operator's repair, nothing else does.
    assert diagnose(tmp_path, repair=True).ok
    assert not any(bad in f.read_bytes() for f in discover_store_files(tmp_path))
    with TrialStore(tmp_path) as reloaded:
        assert reloaded.get(trial_key(spec)) is not None
        assert reloaded.get(trial_key(trial(1))) is not None
        assert reloaded.skipped_lines == 0


@pytest.mark.parametrize("backend", ["jsonl", "sharded"])
def test_a_reader_never_loses_another_writers_append(tmp_path, backend):
    # Writer A holds an open append handle; reader B meets a corrupt
    # record. B must not rewrite the file under A, or A's next fsynced
    # append lands in an unlinked inode and is lost.
    corrupt, first, second = trial(0), trial(1), trial(2)
    with TrialStore(tmp_path, backend=backend, shards=1) as store:
        fill(store, [3])
    (path,) = discover_store_files(tmp_path)
    append_corrupt_record(path, corrupt)
    writer = TrialStore(tmp_path, backend=backend)
    fill(writer, [first.seed])
    reader = TrialStore(tmp_path, backend=backend)
    assert reader.get(trial_key(corrupt)) is None
    fill(writer, [second.seed])
    writer.close()
    reader.close()
    with TrialStore(tmp_path, backend=backend) as fresh:
        assert fresh.get(trial_key(first)) is not None
        assert fresh.get(trial_key(second)) is not None


# -- satellite: non-POSIX platforms warn once ----------------------------------


def test_unlocked_append_warns_once_and_counts(tmp_path, monkeypatch):
    from repro.campaign import store as store_mod

    monkeypatch.setattr(store_mod, "fcntl", None)
    monkeypatch.setattr(store_mod, "_unlocked_warned", False)
    metrics = MetricsRegistry()

    store = TrialStore(tmp_path, metrics=metrics)
    with pytest.warns(RuntimeWarning, match="without file locking"):
        fill(store, [0])
    # Subsequent appends count but do not warn again.
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        fill(store, [1])
    assert metrics.counters["store.unlocked_appends"] == 2
    # The store still works without locking.
    assert len(TrialStore(tmp_path)) == 2


# -- doctor / check against the sharded layout ---------------------------------


def test_doctor_scans_and_repairs_sharded_store(tmp_path):
    from repro.chaos.doctor import diagnose

    with TrialStore(tmp_path, backend="sharded", shards=2) as store:
        keys = list(fill(store, range(4)))
    torn_shard = tmp_path / f"trials-{shard_of(keys[0], 2):02d}.jsonl"
    with torn_shard.open("ab") as fh:
        fh.write(b'{"key": "torn')

    report = diagnose(tmp_path)
    assert not report.ok
    torn = [f for f in report.findings if f.kind == "torn-tail"]
    assert len(torn) == 1 and torn[0].file == torn_shard.name

    report = diagnose(tmp_path, repair=True)
    assert report.ok
    assert report.records == 4
    assert any(torn_shard.name in action for action in report.repairs)
    assert TrialStore(tmp_path).get(keys[0]) is not None


def test_audit_covers_sharded_store(tmp_path):
    from repro.check import audit_cache

    with TrialStore(tmp_path, backend="sharded", shards=2) as store:
        fill(store, range(4))
    audit = audit_cache(tmp_path, replay=False)
    assert audit.ok
    assert len(audit.records) == 4
