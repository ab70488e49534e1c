"""Tests for outcome-to-quantity extraction."""

import numpy as np
import pytest

from repro.analysis.complexity import aggregate_outcomes
from repro.errors import IncompleteRunError
from repro.sim.outcome import Outcome


def make_outcome(seed=0, sent_total=10, t_end=20, completed=True):
    n = 4
    sent = np.zeros(n, dtype=np.int64)
    sent[0] = sent_total
    return Outcome(
        n=n,
        f=1,
        seed=seed,
        protocol_name="p",
        adversary_name="a",
        completed=completed,
        rumor_gathering_ok=True,
        t_end=t_end,
        max_local_step_time=1,
        max_delivery_time=1,
        sent=sent,
        received=np.zeros(n, dtype=np.int64),
        bytes_sent=sent.copy(),
        crashed=(),
        crash_steps={},
        sleep_counts=np.ones(n, dtype=np.int64),
        wake_counts=np.zeros(n, dtype=np.int64),
    )


def test_complexities_extracts_pair():
    msgs, times = aggregate_outcomes([make_outcome(sent_total=42, t_end=10)])
    # One run: M(O) = 42 messages, T(O) = T_end / (delta + d) = 10 / 2.
    assert (msgs.median, msgs.q1, msgs.q3, msgs.n_runs) == (42.0, 42.0, 42.0, 1)
    assert (times.median, times.n_runs) == (5.0, 1)


def test_complexities_guards_truncation():
    truncated = [make_outcome(), make_outcome(seed=1, completed=False)]
    with pytest.raises(IncompleteRunError):
        aggregate_outcomes(truncated)
    msgs, times = aggregate_outcomes(truncated, allow_truncated=True)
    assert msgs.n_runs == times.n_runs == 2


def test_aggregate_outcomes():
    outcomes = [make_outcome(seed=s, sent_total=10 * (s + 1)) for s in range(5)]
    msgs, times = aggregate_outcomes(outcomes)
    assert msgs.median == 30.0
    assert times.median == 10.0
    assert msgs.n_runs == 5
