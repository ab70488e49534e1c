"""Resumability: an interrupted run restarts and skips completed trials."""

from repro.campaign import Campaign
from repro.experiments.config import SweepSpec
from repro.experiments.figure3 import run_figure3_panel
from repro.experiments.runner import run_sweep


SWEEP = SweepSpec(
    protocol="flood", adversary="none", n_values=(6, 8, 10), seeds=(0, 1, 2, 3)
)


def test_resume_executes_only_missing_trials(tmp_path):
    # "Interrupt" a sweep by persisting only a prefix of its trials.
    trials = list(SWEEP.trials())
    completed = trials[:7]
    with Campaign(cache_dir=tmp_path, workers=1) as first_session:
        first_session.run_trials(completed)

    events = []
    with Campaign(cache_dir=tmp_path, workers=1, progress=events.append) as resumed:
        result = resumed.run_sweep(SWEEP)

    executed = [e for e in events if e.kind == "executed"]
    cached = [e for e in events if e.kind == "cached"]
    assert len(executed) == len(trials) - len(completed)
    assert len(cached) == len(completed)
    # The resumed trials are exactly the ones the first session missed.
    assert {e.spec for e in executed} == set(trials[7:])
    # And the stitched result is identical to an uninterrupted run.
    assert result == run_sweep(SWEEP)


def test_resume_across_experiment_entry_points(tmp_path):
    """A figure panel interrupted after one curve resumes the other two."""
    from repro.experiments.figure3 import figure3_sweeps

    sweeps = figure3_sweeps("3a", n_values=(8,), seeds=(0, 1))
    with Campaign(cache_dir=tmp_path, workers=1) as partial:
        partial.run_sweep(sweeps["no-adversary"])

    events = []
    with Campaign(cache_dir=tmp_path, workers=1, progress=events.append) as resumed:
        run_figure3_panel("3a", n_values=(8,), seeds=(0, 1), campaign=resumed)

    executed = sum(e.kind == "executed" for e in events)
    cached = sum(e.kind == "cached" for e in events)
    assert cached == sweeps["no-adversary"].n_trials
    assert executed == sum(s.n_trials for s in sweeps.values()) - cached


def test_interrupted_write_resumes_cleanly(tmp_path):
    """A half-written final record does not poison the resume."""
    trials = list(SWEEP.trials())
    with Campaign(cache_dir=tmp_path, workers=1) as first_session:
        first_session.run_trials(trials[:5])
        path = first_session.store.path

    # Chop the final record in half, as a kill -9 mid-append would.
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    path.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 3])

    events = []
    with Campaign(cache_dir=tmp_path, workers=1, progress=events.append) as resumed:
        result = resumed.run_sweep(SWEEP)
    assert sum(e.kind == "executed" for e in events) == len(trials) - 4
    assert sum(e.kind == "cached" for e in events) == 4
    assert result == run_sweep(SWEEP)
