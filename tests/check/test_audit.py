"""Offline cache auditing: replay, content addresses, Theorem 1 cells."""

import json

import numpy as np
import pytest

from repro.campaign import Campaign
from repro.campaign.keys import spec_from_fingerprint
from repro.check.audit import audit_cache
from repro.check.theorem import audit_theorem1, theorem_table
from repro.errors import CampaignError
from repro.experiments.config import SweepSpec, TrialSpec
from repro.sim.outcome import Outcome


SWEEP = SweepSpec(
    protocol="flood", adversary="ugf", n_values=(8,), f_of_n=0.3, seeds=(0, 1)
)


@pytest.fixture
def cache(tmp_path):
    with Campaign(cache_dir=tmp_path, workers=1) as campaign:
        campaign.run_sweep(SWEEP)
    return tmp_path


def _lines(cache):
    path = cache / "trials.jsonl"
    return path, path.read_text().splitlines()


def test_clean_cache_audits_ok(cache):
    audit = audit_cache(cache)
    assert audit.ok
    assert audit.counts == {"ok": SWEEP.n_trials}
    assert audit.replayed
    assert len(audit.theorem) == 1
    cell = audit.theorem[0]
    assert cell.adversary == "ugf" and cell.completed == SWEEP.n_trials
    assert cell.verdict in ("ok-time", "ok-messages")
    assert "ok=2" in audit.summary()


def test_structural_audit_skips_replay(cache):
    audit = audit_cache(cache, replay=False)
    assert audit.ok and not audit.replayed


def test_fingerprints_rebuild_the_spec(cache):
    _, lines = _lines(cache)
    spec = spec_from_fingerprint(json.loads(lines[0])["spec"])
    assert isinstance(spec, TrialSpec)
    assert (spec.protocol, spec.adversary, spec.n, spec.f) == ("flood", "ugf", 8, 2)
    with pytest.raises(CampaignError, match="version"):
        spec_from_fingerprint({"version": -1})


def test_tampered_outcome_is_a_mismatch(cache):
    from dataclasses import replace

    path, lines = _lines(cache)
    record = json.loads(lines[0])
    outcome = Outcome.from_wire(record["wire"])
    record["wire"] = replace(outcome, t_end=outcome.t_end + 1).to_wire()
    lines[0] = json.dumps(record, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    audit = audit_cache(cache)
    assert not audit.ok
    assert audit.counts == {"mismatch": 1, "ok": SWEEP.n_trials - 1}
    bad = next(r for r in audit.records if r.status == "mismatch")
    assert "t_end" in bad.detail


def test_pre_wire_records_are_unreadable(cache, pre_wire_line):
    # Early caches stored the outcome as a field dict under "outcome".
    # No reader serves that shape: the audit calls it unreadable, and
    # `doctor --repair` drops it like any line no reader serves.
    from repro.chaos.doctor import diagnose

    path, lines = _lines(cache)
    spec = spec_from_fingerprint(json.loads(lines[0])["spec"])
    lines[0] = pre_wire_line(spec).decode().rstrip("\n")
    path.write_text("\n".join(lines) + "\n")
    audit = audit_cache(cache)
    assert not audit.ok
    assert audit.counts == {"unreadable": 1, "ok": SWEEP.n_trials - 1}
    assert "foreign-record" in audit.records[0].detail

    assert diagnose(cache, repair=True).ok
    audit = audit_cache(cache)
    assert audit.ok
    assert audit.counts == {"ok": SWEEP.n_trials - 1}


def test_tampered_key_is_caught(cache):
    path, lines = _lines(cache)
    record = json.loads(lines[1])
    record["key"] = "0" * len(record["key"])
    lines[1] = json.dumps(record, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    audit = audit_cache(cache, replay=False)
    assert audit.counts.get("bad-key") == 1


def test_garbage_lines_are_unreadable_not_fatal(cache):
    path, lines = _lines(cache)
    lines.append("[" * 200_000)  # nested deeper than the parser recurses
    lines.append('{"key": "truncated-by-a-cra')
    path.write_text("\n".join(lines) + "\n")
    audit = audit_cache(cache, replay=False)
    assert audit.counts == {"ok": SWEEP.n_trials, "unreadable": 2}


def test_max_records_bounds_the_audit(cache):
    audit = audit_cache(cache, replay=False, max_records=1)
    assert len(audit.records) == 1


def test_progress_callback_sees_every_record(cache):
    seen = []
    audit_cache(cache, replay=False, progress=seen.append)
    assert [r.line for r in seen] == [1, 2]


def test_missing_cache_dir_is_empty_not_fatal(tmp_path):
    audit = audit_cache(tmp_path / "nope")
    assert audit.ok and audit.records == () and audit.theorem == ()


# -- the theorem classifier on synthetic outcomes --------------------------------


def _outcome(protocol="flood", adversary="ugf", n=8, f=2, t_end=400, per_sent=50,
             completed=True):
    return Outcome(
        n=n,
        f=f,
        seed=0,
        protocol_name=protocol,
        adversary_name=adversary,
        completed=completed,
        rumor_gathering_ok=True,
        t_end=t_end,
        max_local_step_time=1,
        max_delivery_time=1,
        sent=np.full(n, per_sent, dtype=np.int64),
        received=np.full(n, per_sent, dtype=np.int64),
        bytes_sent=np.full(n, per_sent, dtype=np.int64),
        crashed=(),
        crash_steps={},
        sleep_counts=np.ones(n, dtype=np.int64),
        wake_counts=np.zeros(n, dtype=np.int64),
    )


def test_cheap_ugf_cell_violates_theorem1():
    # A UGF cell whose means sit below BOTH bounds is the
    # reproduction-stopping verdict the auditor exists to raise.
    verdicts = audit_theorem1([_outcome(t_end=0, per_sent=0)])
    assert len(verdicts) == 1
    assert verdicts[0].verdict == "VIOLATES-THEOREM-1"
    assert not verdicts[0].ok


def test_non_ugf_cells_are_not_applicable():
    verdicts = audit_theorem1([_outcome(adversary="str-1", t_end=0, per_sent=0)])
    assert verdicts[0].verdict == "not-applicable"
    assert verdicts[0].ok  # context, not a failure


def test_small_f_is_outside_the_theorem():
    verdicts = audit_theorem1([_outcome(f=1, t_end=0, per_sent=0)])
    assert verdicts[0].verdict == "not-applicable"


def test_truncated_runs_yield_no_data():
    verdicts = audit_theorem1([_outcome(completed=False)])
    assert verdicts[0].verdict == "no-data"
    assert verdicts[0].ok


def test_theorem_table_renders_every_cell():
    verdicts = audit_theorem1(
        [_outcome(t_end=0, per_sent=0), _outcome(adversary="str-1")]
    )
    text = theorem_table(verdicts)
    assert "VIOLATES-THEOREM-1" in text
    assert "verdict" in text and "M bound" in text
    assert len(text.splitlines()) >= 4  # header, rule, two cells
