"""Two processes appending to one store under flock contention.

The store's durability contract (docs/CAMPAIGN.md, docs/SERVICE.md):
appends happen as one whole-lines write under an exclusive ``flock``,
so concurrent campaigns sharing a cache directory interleave at
*record* granularity — never inside a record. These tests drive two
real processes (not threads: flock contention is cross-process) and
assert every record survives, and that the offset index the last
writer to close persisted serves what a full scan does. The writers
start on a cache written before the offset index existed, whose
records survive too, and open the store under each spelling the frozen
benchmark suite passes.
"""

import json
import subprocess
import sys
import textwrap

import pytest

from repro.campaign.store import INDEX_FILENAME, TrialStore

_WRITER = textwrap.dedent(
    """
    import json, sys
    from repro.campaign.store import TrialStore
    from repro.experiments.config import TrialSpec
    from repro.campaign.keys import spec_fingerprint, trial_key
    from repro.experiments.runner import run_trial

    cache_dir, start, count, backend = sys.argv[1:5]
    spec = TrialSpec(protocol="flood", adversary="none", n=8, f=2, seed=0)
    outcome = run_trial(spec)  # one real outcome, re-keyed per record
    store = TrialStore(cache_dir, backend=backend)
    for i in range(int(start), int(start) + int(count)):
        # Distinct fingerprints -> distinct keys; tiny batches so the
        # two writers' flock acquisitions interleave heavily.
        fingerprint = dict(spec_fingerprint(spec), seed=i)
        store.put(f"{i:064x}", fingerprint, outcome)
    store.close()
    print("done", start)
    """
)


@pytest.mark.parametrize("backend", ["jsonl", "sharded"])
def test_two_processes_append_without_corruption(tmp_path, carry_over, backend):
    per_writer = 40
    carried = carry_over(tmp_path)
    procs = [
        subprocess.Popen(
            [
                sys.executable,
                "-c",
                _WRITER,
                str(tmp_path),
                str(start),
                str(per_writer),
                backend,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for start in (0, per_writer)
    ]
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert "done" in out

    # Every record from both writers is present and parseable: the
    # flock keeps whole-record framing, so nothing interleaved.
    store = TrialStore(tmp_path)
    assert len(store) == 2 * per_writer + len(carried)
    assert store.skipped_lines == 0
    for i in range(2 * per_writer):
        assert f"{i:064x}" in store
        assert store.get(f"{i:064x}") is not None
    assert all(store.get(key) is not None for key in carried)
    # The index either writer left agrees with a full scan.
    (tmp_path / INDEX_FILENAME).unlink()
    assert len(TrialStore(tmp_path)) == 2 * per_writer + len(carried)

    raw_lines = [
        line
        for line in (tmp_path / "trials.jsonl").read_text().splitlines()
        if line.strip()
    ]
    assert len(raw_lines) == 2 * per_writer + len(carried)
    for line in raw_lines:
        json.loads(line)  # every line is a complete record
