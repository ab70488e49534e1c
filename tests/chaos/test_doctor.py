"""Tests for ``repro-ugf doctor``: diagnosis and repair of run damage."""

import json
import shutil

import pytest

from repro.campaign.keys import spec_fingerprint, trial_key
from repro.campaign.store import TrialStore
from repro.check.audit import audit_cache
from repro.chaos.doctor import diagnose
from repro.chaos.inject import tear_tail
from repro.chaos.supervisor import (
    QuarantineLedger,
    QuarantineRecord,
    quarantine_path,
)
from repro.cli import main
from repro.experiments.config import TrialSpec
from repro.experiments.runner import run_trial


def trial(seed: int = 0) -> TrialSpec:
    return TrialSpec(protocol="flood", adversary="none", n=8, f=0, seed=seed)


def seeded_store(tmp_path, count: int = 3) -> list[TrialSpec]:
    specs = [trial(s) for s in range(count)]
    with TrialStore(tmp_path) as store:
        store.put_many(
            [(trial_key(s), spec_fingerprint(s), run_trial(s)) for s in specs]
        )
    return specs


def quarantine(run_dir, spec: TrialSpec) -> None:
    """Ledger *spec* as an exhausted transient, through the shared writer."""
    with QuarantineLedger(quarantine_path(run_dir)) as ledger:
        ledger.record(
            QuarantineRecord(
                key=trial_key(spec),
                spec=spec_fingerprint(spec),
                classification="transient-exhausted",
                attempts=3,
                error="InjectedTransientError: gone now",
                ladder=("chunked-parallel", "inline"),
            )
        )


def kinds(report, severity=None):
    return {
        f.kind
        for f in report.findings
        if severity is None or f.severity == severity
    }


# -- store scanning --------------------------------------------------------------


def test_clean_store_is_clean(tmp_path):
    seeded_store(tmp_path, count=3)
    report = diagnose(tmp_path)
    assert report.ok
    assert report.records == 3
    assert report.findings == []
    assert "verdict: clean" in report.summary()


def test_missing_store_is_an_error(tmp_path):
    report = diagnose(tmp_path)
    assert not report.ok
    assert kinds(report, "error") == {"no-store"}


def test_torn_tail_is_detected_and_truncated_by_repair(tmp_path):
    seeded_store(tmp_path, count=3)
    path = tmp_path / "trials.jsonl"
    healthy = path.stat().st_size
    torn = tear_tail(path)
    assert torn > 0

    report = diagnose(tmp_path)
    assert not report.ok
    assert kinds(report, "error") == {"torn-tail"}
    assert report.records == 2  # the first two lines are still good

    report = diagnose(tmp_path, repair=True)
    # The report describes the healed store: clean, fragment gone.
    assert report.ok
    assert report.repairs and "truncated torn tail" in report.repairs[0]
    assert report.records == 2
    assert path.stat().st_size < healthy
    assert path.read_bytes().endswith(b"\n")
    # A second opinion agrees the repaired store is clean.
    assert diagnose(tmp_path).ok


def test_unterminated_final_record_is_newline_terminated(tmp_path):
    seeded_store(tmp_path, count=2)
    path = tmp_path / "trials.jsonl"
    data = path.read_bytes()
    path.write_bytes(data[:-1])  # drop only the trailing newline

    report = diagnose(tmp_path)
    assert not report.ok
    assert kinds(report, "error") == {"unterminated-tail"}

    report = diagnose(tmp_path, repair=True)
    assert report.ok
    assert report.repairs == [
        "trials.jsonl: terminated the final record with a newline"
    ]
    assert report.records == 2  # no data lost: the record was complete
    assert path.read_bytes() == data


def test_edited_record_fails_its_content_address(tmp_path):
    seeded_store(tmp_path, count=2)
    path = tmp_path / "trials.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    record["spec"]["seed"] = 999  # edit in place; key no longer matches
    lines[0] = json.dumps(record, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")

    report = diagnose(tmp_path)
    assert not report.ok
    assert kinds(report, "error") == {"bad-address"}
    assert report.records == 1


def test_undecodable_wire_payload_is_an_error(tmp_path):
    seeded_store(tmp_path, count=1)
    path = tmp_path / "trials.jsonl"
    record = json.loads(path.read_text())
    record["wire"] = [1, 2]
    path.write_text(json.dumps(record, separators=(",", ":")) + "\n")
    report = diagnose(tmp_path)
    assert not report.ok
    assert kinds(report, "error") == {"bad-wire"}


def test_interior_corruption_is_a_warning_not_an_error(tmp_path):
    seeded_store(tmp_path, count=2)
    path = tmp_path / "trials.jsonl"
    lines = path.read_text().splitlines()
    lines.insert(1, "x" * 20)  # corrupt interior line; reader skips it
    path.write_text("\n".join(lines) + "\n")
    report = diagnose(tmp_path)
    assert report.ok  # data already lost; nothing doctor should break
    assert kinds(report, "warn") == {"corrupt-line"}
    assert report.records == 2


def test_superseded_rewrites_are_informational(tmp_path):
    spec = trial(0)
    with TrialStore(tmp_path) as store:
        outcome = run_trial(spec)
        store.put(trial_key(spec), spec_fingerprint(spec), outcome)
        store.put(trial_key(spec), spec_fingerprint(spec), outcome)
    report = diagnose(tmp_path)
    assert report.ok
    assert kinds(report, "info") == {"duplicate-keys"}
    assert report.records == len(report.record_keys) == 1
    # An undecodable latest line leaves the key with nothing to serve.
    bad = {"key": trial_key(spec), "spec": spec_fingerprint(spec), "wire": []}
    with (tmp_path / "trials.jsonl").open("a") as fh:
        fh.write(json.dumps(bad) + "\n")
    report = diagnose(tmp_path)
    assert report.records == len(report.record_keys) == 0
    assert "— 0 record(s)" in report.summary()


def snapshot(run_dir) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}


@pytest.mark.parametrize("backend", ["jsonl", "sharded"])
def test_doctor_without_repair_writes_nothing(tmp_path, carry_over, backend):
    # A quarantined key whose latest wire does not decode, plus a
    # superseded duplicate: plenty for a reader tempted to "fix" things.
    specs = [trial(s) for s in range(3)]
    carried = carry_over(tmp_path)
    with TrialStore(tmp_path, backend=backend) as store:
        store.put_many(
            [(trial_key(s), spec_fingerprint(s), run_trial(s)) for s in specs]
        )
        store.put(trial_key(specs[1]), spec_fingerprint(specs[1]), run_trial(specs[1]))
    path = tmp_path / "trials.jsonl"
    bad = {"key": trial_key(specs[0]), "spec": spec_fingerprint(specs[0]), "wire": []}
    with path.open("a") as fh:
        fh.write(json.dumps(bad) + "\n")
    quarantine(tmp_path, specs[0])
    before = snapshot(tmp_path)

    report = diagnose(tmp_path)
    assert report.repairs == []
    assert snapshot(tmp_path) == before
    assert kinds(report) == {"bad-wire", "duplicate-keys"}
    assert report.record_keys == {trial_key(s) for s in specs[1:]} | set(carried)
    assert report.records == len(report.record_keys)


@pytest.mark.parametrize("backend", ["jsonl", "sharded"])
def test_every_reader_serves_an_unterminated_final_record(tmp_path, carry_over, backend):
    specs = [trial(s) for s in range(2)]
    carried = carry_over(tmp_path)
    with TrialStore(tmp_path, backend=backend) as store:
        store.put_many(
            [(trial_key(s), spec_fingerprint(s), run_trial(s)) for s in specs]
        )
    path = tmp_path / "trials.jsonl"
    path.write_bytes(path.read_bytes()[:-1])  # drop only the final newline

    keys = {trial_key(s) for s in specs} | set(carried)
    report = diagnose(tmp_path)
    audited = audit_cache(tmp_path, replay=False)
    with TrialStore(tmp_path, backend=backend) as store:
        served = {k for k in keys if store.get(k) is not None}
        assert store.skipped_lines == 0
    assert served == report.record_keys == keys
    assert audited.counts == {"ok": len(keys)}
    # One record per key: no phantom duplicate for the unterminated one.
    assert kinds(report) == {"unterminated-tail"}
    assert report.records == len(keys)


def store_layout(data: bytes) -> list[tuple[str, int]]:
    """``(key, end offset)`` of every wire record line in *data*, read
    without the store's reader (it is what the property tests)."""
    layout, offset = [], 0
    for line in data.split(b"\n"):
        if line.strip():
            record = json.loads(line)
            if "wire" in record:
                layout.append((record["key"], offset + len(line)))
        offset += len(line) + 1
    return layout


@pytest.mark.parametrize("backend", ["jsonl", "sharded"])
def test_kill_at_every_byte_offset_of_an_append(tmp_path, carry_over, backend, pre_wire_line):
    """ROADMAP 6(b), after arXiv:2311.08859: a property stated as a
    predicate, and every byte offset of an append as a candidate
    counterexample. At each cut the loader, doctor and ``check
    --no-replay`` agree on the served keys, which are exactly the
    records whose line was complete before the cut; ``doctor --repair``
    then leaves a clean store that one more append extends. The store
    starts on a cache written before the offset index existed, and holds
    a pre-wire line of the late trial: a miss, so that trial is served
    only once it is recomputed and appended."""
    specs = [
        TrialSpec(protocol="flood", adversary="none", n=6, f=0, seed=s)
        for s in range(5)
    ]
    wire_specs, late = specs[:4], specs[4]
    outcomes = {trial_key(s): run_trial(s) for s in specs}

    def items(batch):
        return [
            (trial_key(s), spec_fingerprint(s), outcomes[trial_key(s)])
            for s in batch
        ]

    built = tmp_path / "built"
    carried = carry_over(built)
    with TrialStore(built, backend=backend) as store:
        store.put_many(items(wire_specs[:1]))
    path = built / "trials.jsonl"
    with path.open("ab") as fh:
        fh.write(pre_wire_line(late))
    with TrialStore(built, backend=backend) as store:
        store.put_many(items(wire_specs[1:2]))
    # A kill mid-append leaves the index the previous session closed with.
    before_last = snapshot(built)
    with TrialStore(built, backend=backend) as store:
        store.put_many(items(wire_specs[2:]))
    data = path.read_bytes()
    layout = store_layout(data)
    start = len(before_last[path.name])
    every_key = {trial_key(s) for s in specs} | set(carried)

    run = tmp_path / "run"
    for cut in range(start, len(data) + 1):
        shutil.rmtree(run, ignore_errors=True)
        run.mkdir()
        for name, content in before_last.items():
            (run / name).write_bytes(content)
        (run / path.name).write_bytes(data[:cut])
        complete = {key for key, end in layout if end <= cut}

        report = diagnose(run)
        audited = {r.key for r in audit_cache(run, replay=False).records if r.ok}
        with TrialStore(run, backend=backend) as store:
            served = {k for k in every_key if store.get(k) is not None}
        assert served == report.record_keys == audited == complete, cut
        assert trial_key(late) not in served, cut

        assert diagnose(run, repair=True).ok, cut
        rescan = diagnose(run)
        assert rescan.ok and rescan.findings == [], (cut, rescan.findings)
        with TrialStore(run, backend=backend) as store:
            store.put_many(items([late]))
        with TrialStore(run, backend=backend) as store:
            served = {k for k in every_key if store.get(k) is not None}
        assert served == complete | {trial_key(late)}, cut


# -- cross-checks ----------------------------------------------------------------


def test_recovered_quarantine_entries_are_flagged(tmp_path):
    (spec, *_rest) = seeded_store(tmp_path, count=1)
    quarantine(tmp_path, spec)
    report = diagnose(tmp_path)
    assert report.ok
    assert report.quarantine_records == 1
    assert kinds(report, "info") == {"quarantine-recovered"}


def test_corrupt_side_ledgers_warn(tmp_path):
    seeded_store(tmp_path, count=1)
    quarantine_path(tmp_path).write_bytes(b"not json\n" + b"[" * 200_000 + b"\n")
    (tmp_path / "telemetry.jsonl").write_bytes(b"also not json\n\xff\xfe\n")
    report = diagnose(tmp_path)
    assert report.ok
    assert kinds(report, "warn") == {"quarantine-corrupt", "telemetry-corrupt"}
    assert report.quarantine_records == report.telemetry_records == 0


# -- CLI -------------------------------------------------------------------------


def test_doctor_cli_exit_codes_and_repair(tmp_path, capsys):
    seeded_store(tmp_path, count=3)
    path = tmp_path / "trials.jsonl"
    assert main(["doctor", str(tmp_path)]) == 0
    assert "verdict: clean" in capsys.readouterr().out

    tear_tail(path)
    assert main(["doctor", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "torn-tail" in captured.err
    assert "NEEDS ATTENTION" in captured.out

    assert main(["doctor", str(tmp_path), "--repair"]) == 0
    captured = capsys.readouterr()
    assert "repaired: trials.jsonl: truncated torn tail" in captured.out
    assert main(["doctor", str(tmp_path)]) == 0
