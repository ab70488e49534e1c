"""Tests for the store layout: one ``trials.jsonl`` behind an offset index.

Covers the offset index (written on close, tail scan past the
watermark, deleted or stale index rescanned), one fsync per batch,
compaction, corrupt records (a counted miss that no reader rewrites
away), readers beside a writer, the non-POSIX unlocked-append warning,
the ``backend=`` keyword that selects nothing, and the retired sharded
layout: a shard file is not read, so its trials are misses. The
``[jsonl|sharded]`` cases open the store under each spelling the frozen
benchmark suite passes, on a cache written before the offset index
existed (the ``carry_over`` fixture).
"""

import json
import random
import warnings

import pytest

from repro.campaign import store as store_mod
from repro.campaign.keys import spec_fingerprint, trial_key
from repro.campaign.store import INDEX_FILENAME, TrialStore, encode_record
from repro.chaos.doctor import diagnose
from repro.errors import CampaignError
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


def read_index(run_dir) -> dict:
    return json.loads((run_dir / INDEX_FILENAME).read_text())


def snapshot(run_dir) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}


# -- round trip ----------------------------------------------------------------


def test_sharded_round_trip_and_reload(tmp_path):
    # "sharded" is what the benchmark suite primes its daemon's store
    # with; it names the one layout like every accepted spelling.
    with TrialStore(tmp_path, backend="sharded") as store:
        keys = fill(store, range(8))
        assert len(store) == 8
        for key in keys:
            assert store.get(key) is not None
    assert sorted(p.name for p in tmp_path.iterdir()) == [INDEX_FILENAME, "trials.jsonl"]
    # Each line is exactly the record a put encodes.
    lines = (tmp_path / "trials.jsonl").read_text().splitlines()
    assert lines == [
        encode_record(key, spec_fingerprint(spec), run_trial(spec).to_wire())
        for key, spec in keys.items()
    ]

    reloaded = TrialStore(tmp_path)
    assert len(reloaded) == 8
    for key, spec in keys.items():
        got = reloaded.get(key)
        assert got is not None
        assert got.to_wire() == run_trial(spec).to_wire()


def test_backend_keyword_selects_nothing(tmp_path):
    for spelling in ("auto", "jsonl", "sharded"):
        with TrialStore(tmp_path, backend=spelling) as store:
            fill(store, [0])
    assert len(TrialStore(tmp_path)) == 1
    assert (tmp_path / "trials.jsonl").read_text().count("\n") == 3
    with pytest.raises(CampaignError, match="one layout"):
        TrialStore(tmp_path, backend="sqlite")


def test_one_put_many_is_one_fsync(tmp_path):
    # Random content addresses, as a daemon's flush sees them: the whole
    # batch is one locked write and one fsync, whatever its keys.
    rng = random.Random(28)
    spec = trial(0)
    outcome = run_trial(spec)
    items = [
        (f"{rng.getrandbits(256):064x}", dict(spec_fingerprint(spec), seed=i), outcome)
        for i in range(32)
    ]
    metrics = MetricsRegistry()
    with TrialStore(tmp_path, metrics=metrics, backend="sharded") as store:
        store.put_many(items)
    assert metrics.counters["store.fsyncs"] == 1
    assert (tmp_path / "trials.jsonl").read_bytes().count(b"\n") == 32


# -- the offset index ----------------------------------------------------------


def test_offset_index_written_on_close_and_used_for_tail_scan(tmp_path, monkeypatch):
    with TrialStore(tmp_path) as store:
        keys = fill(store, range(4))
    indexed = read_index(tmp_path)
    assert indexed["v"] == 2
    assert set(indexed["entries"]) == set(keys)
    assert indexed["size"] == (tmp_path / "trials.jsonl").stat().st_size

    # Another session appends past the watermark...
    with TrialStore(tmp_path) as store:
        keys.update(fill(store, range(4, 7)))
    watermark = read_index(tmp_path)["size"]
    with (tmp_path / "trials.jsonl").open("a") as fh:
        late = trial(7)
        fh.write(encode_record(trial_key(late), spec_fingerprint(late), run_trial(late).to_wire()) + "\n")
    keys[trial_key(late)] = late

    # ...and a third loads the index and scans only the bytes past it.
    starts = []
    scan = store_mod.scan_records

    def spy(data, start=0):
        starts.append(start)
        return scan(data, start)

    monkeypatch.setattr(store_mod, "scan_records", spy)
    store = TrialStore(tmp_path)
    assert len(store) == len(keys)
    assert starts == [watermark]
    assert all(store.get(k) is not None for k in keys)


def test_deleted_index_costs_only_a_full_scan(tmp_path):
    with TrialStore(tmp_path) as store:
        keys = fill(store, range(4))
    written = read_index(tmp_path)
    (tmp_path / INDEX_FILENAME).unlink()
    with TrialStore(tmp_path) as store:
        assert all(store.get(k) is not None for k in keys)
    # The full scan rebuilt the same index.
    assert read_index(tmp_path) == written


def test_shard_rewritten_behind_index_triggers_full_rescan(tmp_path):
    # Sizes differ, so a record served from the wrong offset would show.
    specs = [TrialSpec(protocol="flood", adversary="none", n=6 + s, f=0, seed=s) for s in range(3)]
    keys = [trial_key(s) for s in specs]
    with TrialStore(tmp_path) as store:
        store.put_many([(trial_key(s), spec_fingerprint(s), run_trial(s)) for s in specs])
    path = tmp_path / "trials.jsonl"
    lines = path.read_text().splitlines(keepends=True)

    # External rewrite that shrinks the file below its watermark.
    path.write_text("".join(lines[1:]))
    store = TrialStore(tmp_path)
    assert store.get(keys[0]) is None
    assert store.get(keys[1]) is not None
    assert store.get(keys[2]) is not None

    # One that keeps the size: every offset in the index is now wrong,
    # and the seek-read notices rather than serving another record.
    path.write_text("".join(reversed(lines)))
    store = TrialStore(tmp_path)
    for key, spec in zip(keys, specs):
        got = store.get(key)
        assert got is not None and got.n == spec.n

    # Two records of one length swapped: each indexed offset still holds
    # a complete record, of the other key.
    swapped = tmp_path / "swapped"
    pair = [trial(0), trial(1)]
    with TrialStore(swapped) as store:
        store.put_many([(trial_key(s), spec_fingerprint(s), run_trial(s)) for s in pair])
    first, second = (swapped / "trials.jsonl").read_text().splitlines(keepends=True)
    assert len(first) == len(second)
    (swapped / "trials.jsonl").write_text(second + first)
    store = TrialStore(swapped)
    assert [store.get(trial_key(s)).seed for s in pair] == [0, 1]

    # One that grows it: a record inserted in front moves the watermark
    # off its line boundary, so the load is a full scan.
    extra = TrialSpec(protocol="flood", adversary="none", n=5, f=0, seed=9)
    front = encode_record(trial_key(extra), spec_fingerprint(extra), run_trial(extra).to_wire())
    path.write_text(front + "\n" + "".join(lines))
    assert len(TrialStore(tmp_path)) == 4


def test_a_rewrite_nested_too_deep_is_a_miss(tmp_path):
    # Rewritten behind the index at the same size: the indexed line keeps
    # its key prefix, but its spec is nested deeper than the parser
    # recurses. Both seek-reads answer a miss instead of raising.
    spec = TrialSpec(protocol="flood", adversary="none", n=200, f=0, seed=0)
    key = trial_key(spec)
    with TrialStore(tmp_path) as store:
        store.put(key, spec_fingerprint(spec), run_trial(spec))
    path = tmp_path / "trials.jsonl"
    head = b'{"key":"%s","spec":' % key.encode()
    path.write_bytes(head + b"[" * (path.stat().st_size - len(head) - 1) + b"\n")
    store = TrialStore(tmp_path)
    assert store.wire_text(key) is None
    assert store.get(key) is None


def test_torn_tail_past_the_watermark_is_skipped_not_fatal(tmp_path):
    with TrialStore(tmp_path) as store:
        keys = list(fill(store, range(2)))
    path = tmp_path / "trials.jsonl"
    with path.open("ab") as fh:
        fh.write(b'{"key": "torn')  # crash mid-append after the index

    store = TrialStore(tmp_path)
    assert all(store.get(k) is not None for k in keys)
    assert store.skipped_lines == 1
    # The next append terminates the fragment; the index remembers it.
    fill(store, [2])
    store.close()
    reloaded = TrialStore(tmp_path)
    assert len(reloaded) == 3
    assert reloaded.skipped_lines == 1


# -- compaction ----------------------------------------------------------------


def test_compact_drops_duplicates_and_torn_lines(tmp_path):
    spec = trial(0)
    key = trial_key(spec)
    outcome = run_trial(spec)
    with TrialStore(tmp_path) as store:
        for _ in range(3):  # two superseded rewrites
            store.put(key, spec_fingerprint(spec), outcome)
        fill(store, [1])
    path = tmp_path / "trials.jsonl"
    with path.open("a") as fh:
        fh.write("torn fragm")  # crash mid-append
    before = path.stat().st_size

    store = TrialStore(tmp_path)
    report = store.compact()
    assert report.records_kept == 2
    assert report.duplicates_dropped == 2
    assert report.corrupt_dropped == 1
    assert report.bytes_reclaimed > 0
    assert path.stat().st_size == before - report.bytes_reclaimed
    # The file, then the index: it describes the rewritten bytes.
    assert read_index(tmp_path)["size"] == path.stat().st_size

    # The compacted store still serves everything, cleanly.
    assert store.get(key) is not None
    reloaded = TrialStore(tmp_path)
    assert len(reloaded) == 2
    assert reloaded.skipped_lines == 0


def test_compact_drop_keys_quarantines_records(tmp_path):
    with TrialStore(tmp_path) as store:
        keys = list(fill(store, range(3)))
    store = TrialStore(tmp_path)
    report = store.compact(drop_keys={keys[0]})
    assert report.unservable_dropped == 1
    assert "1 unservable" in report.summary()
    assert store.get(keys[0]) is None
    assert store.get(keys[1]) is not None
    assert TrialStore(tmp_path).get(keys[0]) is None  # gone from disk


# -- corrupt records: a counted miss, removed from disk only by the operator ----


def append_corrupt_record(path, spec: TrialSpec, wire=()) -> bytes:
    """Append to *path* a record of *spec* that is valid JSON with a good
    key but whose wire (default ``[]``) no longer decodes; returns the line."""
    record = {"key": trial_key(spec), "spec": spec_fingerprint(spec), "wire": list(wire)}
    bad = json.dumps(record)
    with path.open("a") as fh:
        fh.write(bad + "\n")
    return bad.encode()


def short_array_wire(spec: TrialSpec) -> list:
    """*spec*'s real wire with each per-process array cut to one element:
    well-formed, but it cannot describe ``spec.n`` processes."""
    wire = run_trial(spec).to_wire()
    for field in (11, 12, 13, 16, 17):  # sent .. bytes_sent, sleep and wake counts
        wire[field] = wire[field][:1]
    return wire


@pytest.mark.parametrize("backend", ["jsonl", "sharded"])
def test_corrupt_record_is_a_counted_miss_until_repair(tmp_path, carry_over, backend):
    from repro.campaign import Campaign

    spec, short = trial(0), trial(2)
    carried = carry_over(tmp_path)
    with TrialStore(tmp_path, backend=backend) as store:
        fill(store, [1])
    path = tmp_path / "trials.jsonl"
    bad = [
        append_corrupt_record(path, spec),
        append_corrupt_record(path, short, short_array_wire(short)),
    ]

    # The campaign sees a miss, counts it, and recomputes; the file is
    # not rewritten — the recompute's append is what the next load serves.
    with Campaign(cache_dir=tmp_path, workers=1, metrics=True) as campaign:
        results = campaign.run_trials([spec, short])
        assert all(r.ok and not r.cached for r in results)
        assert campaign.metrics.counters["store.corrupt_records"] == 2
    assert all(line in path.read_bytes() for line in bad)
    with Campaign(cache_dir=tmp_path, workers=1) as campaign:
        results = campaign.run_trials([spec, short])
        assert all(r.ok and r.cached for r in results)
        assert results[1].outcome.to_wire() == run_trial(short).to_wire()

    # The bad line leaves disk on the operator's repair, nothing else does.
    assert diagnose(tmp_path, repair=True).ok
    assert not any(line in path.read_bytes() for line in bad)
    with TrialStore(tmp_path, backend=backend) as reloaded:
        assert reloaded.get(trial_key(spec)) is not None
        assert reloaded.get(trial_key(short)) is not None
        assert reloaded.get(trial_key(trial(1))) is not None
        assert all(reloaded.get(key) is not None for key in carried)
        assert reloaded.skipped_lines == 0


@pytest.mark.parametrize("backend", ["jsonl", "sharded"])
def test_a_reader_never_loses_another_writers_append(tmp_path, carry_over, backend):
    # Writer A holds an open append handle; reader B meets a corrupt
    # record. B must not rewrite the file under A, or A's next fsynced
    # append lands in an unlinked inode and is lost. B's own later
    # append starts past its watermark, so it first indexes A's record
    # in between — or the index B persists last would hide it.
    corrupt, first, second, third = trial(0), trial(1), trial(2), trial(4)
    carried = carry_over(tmp_path)
    with TrialStore(tmp_path, backend=backend) as store:
        fill(store, [3])
    append_corrupt_record(tmp_path / "trials.jsonl", corrupt)
    writer = TrialStore(tmp_path, backend=backend)
    fill(writer, [first.seed])
    reader = TrialStore(tmp_path, backend=backend)
    assert reader.get(trial_key(corrupt)) is None
    fill(writer, [second.seed])
    writer.close()
    fill(reader, [third.seed])
    reader.close()
    assert read_index(tmp_path)["size"] == (tmp_path / "trials.jsonl").stat().st_size
    with TrialStore(tmp_path, backend=backend) as fresh:
        for spec in (first, second, third):
            assert fresh.get(trial_key(spec)) is not None
        assert all(fresh.get(key) is not None for key in carried)


# -- satellite: non-POSIX platforms warn once ----------------------------------


def test_unlocked_append_warns_once_and_counts(tmp_path, monkeypatch):
    monkeypatch.setattr(store_mod, "fcntl", None)
    monkeypatch.setattr(store_mod, "_unlocked_warned", False)
    metrics = MetricsRegistry()

    store = TrialStore(tmp_path, metrics=metrics)
    with pytest.warns(RuntimeWarning, match="without file locking"):
        fill(store, [0])
    # Subsequent appends count but do not warn again.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fill(store, [1])
    assert metrics.counters["store.unlocked_appends"] == 2
    # The store still works without locking.
    assert len(TrialStore(tmp_path)) == 2


# -- the retired sharded layout: its files are not read --------------------------


def test_doctor_scans_and_repairs_sharded_store(tmp_path):
    # A cache the sharded era left behind: wire records in trials.jsonl
    # and a trials-NN.jsonl shard holding a wire record of another trial.
    # The shard is never merged: doctor names it, --repair leaves it be,
    # and its trial is recomputed on its next miss.
    from repro.campaign import Campaign

    wire_specs, sharded = [trial(s) for s in range(3)], trial(4)
    shard_line = encode_record(
        trial_key(sharded), spec_fingerprint(sharded), run_trial(sharded).to_wire()
    )
    (tmp_path / "trials-00.jsonl").write_text(shard_line + "\n")

    # A directory holding only shards has no store.
    report = diagnose(tmp_path)
    assert not report.ok
    assert {(f.severity, f.kind) for f in report.findings} == {
        ("error", "no-store"),
        ("info", "shard-files"),
    }

    with TrialStore(tmp_path) as store:
        fill(store, [s.seed for s in wire_specs])
    before = snapshot(tmp_path)

    # Loading says nothing and serves only trials.jsonl.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with TrialStore(tmp_path) as store:
            for spec in wire_specs:
                assert store.get(trial_key(spec)).to_wire() == run_trial(spec).to_wire()
            assert store.get(trial_key(sharded)) is None
            assert store.skipped_lines == 0

    # Read-only doctor names the shard as information and writes nothing.
    report = diagnose(tmp_path)
    assert report.ok
    assert [(f.severity, f.kind) for f in report.findings] == [("info", "shard-files")]
    assert "trials-00.jsonl" in report.findings[0].detail
    assert report.record_keys == {trial_key(s) for s in wire_specs}
    assert snapshot(tmp_path) == before

    # --repair heals trials.jsonl (here: nothing to heal) and merges nothing.
    report = diagnose(tmp_path, repair=True)
    assert report.ok and report.repairs == []
    assert report.record_keys == {trial_key(s) for s in wire_specs}
    assert snapshot(tmp_path) == before

    # The shard's trial is recomputed once, then served like any record.
    batch = [*wire_specs, sharded]
    with Campaign(cache_dir=tmp_path, workers=1) as campaign:
        results = campaign.run_trials(batch)
        assert [r.cached for r in results] == [True, True, True, False]
    with Campaign(cache_dir=tmp_path, workers=1) as campaign:
        results = campaign.run_trials(batch)
        assert all(r.ok and r.cached for r in results)
        assert results[3].outcome.to_wire() == run_trial(sharded).to_wire()
    assert (tmp_path / "trials-00.jsonl").read_text() == shard_line + "\n"
