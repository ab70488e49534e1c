"""``ReplayPlane.bounded`` against per-call ``Generator.integers``.

The batch engine never calls ``integers``: it replays numpy's 32-bit
bounded draw on raw PCG64 words (rng.py). These tests hold that replay
to the real thing on twin generators — random per-row bounds over the
whole admitted range, a bound that rejects a quarter of its words, the
free ``high == 1``, refills that hit some rows of a call and not
others, calls on a subset of the grid — and pin the loud decline when
the two disagree (a numpy whose streams differ).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.batch.rng import ReplayPlane, check_stream_contract
from repro.errors import SimulationError

SEEDS, N = [11, 12, 13], 5
WORDS = 2 * ReplayPlane.BLOCK  # 32-bit words per refill
GRID = np.nonzero(np.ones((len(SEEDS), N), dtype=bool))


def twins(record: bool = False):
    """A plane and, seeded alike, the generators it must reproduce."""
    return ReplayPlane(SEEDS, N, record=record), ReplayPlane(SEEDS, N).gens


def reference(gens, ti, pi, high) -> list[int]:
    high = np.broadcast_to(high, ti.shape)
    return [int(gens[t][p].integers(int(h))) for t, p, h in zip(ti, pi, high)]


def states(plane: ReplayPlane) -> list:
    return [[g.bit_generator.state for g in row] for row in plane.gens]


bounds = st.one_of(
    st.integers(1, 2**32),
    st.integers(1, 120),  # candidate-set sizes
    st.sampled_from([1, 2, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]),
)
#: One call: which (trial, process) generators draw, and their bounds.
calls = st.lists(
    st.tuples(st.integers(0, len(SEEDS) - 1), st.integers(0, N - 1), bounds),
    unique_by=lambda row: row[:2],
    max_size=len(SEEDS) * N,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(calls, min_size=1, max_size=30))
def test_bounded_equals_per_call_integers(passes):
    plane, gens = twins()
    for rows in passes:  # any subset of the grid, in any order
        ti, pi, high = np.array(rows, dtype=np.int64).reshape(-1, 3).T
        assert plane.bounded(ti, pi, high).tolist() == reference(gens, ti, pi, high)


def test_rejection_heavy_bound_replays_every_rejected_word():
    high, draws = 3 * 2**30, 40  # (2**32 - high) % high == 2**30: 1 word in 4
    plane, gens = twins()
    got = np.array([plane.bounded(*GRID, high) for _ in range(draws)])
    want = np.array([reference(gens, *GRID, high) for _ in range(draws)])
    assert (got == want).all()
    # The same words taken one per draw, no rejection, give another
    # sequence: rejections did occur, for every generator.
    raw = np.array([g.bit_generator.random_raw(draws) for g in np.ravel(twins()[1])])
    words = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=2).reshape(len(raw), -1)
    naive = (words[:, :draws] * np.uint64(high)) >> 32
    assert (naive.T != want).any(axis=0).all()
    assert (naive.T[0] == want[0]).any()  # though it starts out the same


def test_high_one_is_zero_and_touches_neither_cursor_nor_generator():
    plane, gens = twins()
    ti, pi = np.array([0, 2]), np.array([1, 3])
    plane.bounded(ti, pi, 7)  # fill the buffers, move the cursors
    reference(gens, ti, pi, 7)
    pos, before = plane._pos.copy(), states(plane)
    assert plane.bounded(ti, pi, 1).tolist() == [0, 0] == reference(gens, ti, pi, 1)
    assert (plane._pos == pos).all()
    mixed = plane.bounded(ti, pi, np.array([1, 7]))
    assert mixed.tolist() == [0] + reference(gens, ti[1:], pi[1:], 7)
    pos[2, 3] += 1  # only the row with a real bound consumed a word
    assert (plane._pos == pos).all() and states(plane) == before


def test_rows_crossing_a_refill_mid_call_while_others_do_not():
    plane, gens = twins()
    assert plane.bounded(*GRID, 9).tolist() == reference(gens, *GRID, 9)  # all filled
    ahead = (np.array([0, 1]), np.array([0, 4]))  # two generators run ahead
    for _ in range(WORDS - 4):
        assert plane.bounded(*ahead, 9).tolist() == reference(gens, *ahead, 9)
    refilled = np.zeros_like(plane._pos)
    for _ in range(8):  # the two cross after 3 more draws, nobody else does
        before = plane._pos.copy()
        assert plane.bounded(*GRID, 9).tolist() == reference(gens, *GRID, 9)
        refilled += plane._pos < before
    assert refilled.sum() == 2 and refilled[ahead].tolist() == [1, 1]


def test_record_logs_the_returned_arrays_in_the_scalar_entry_format():
    plane, _ = twins(record=True)
    ti, pi = np.array([0, 0, 2]), np.array([1, 3, 3])
    first = plane.bounded(ti, pi, np.array([6, 1, 3 * 2**30])).tolist()
    second = plane.bounded(ti[:1], pi[:1], 4).tolist()
    assert plane.log[0][1] == [("integers", 6, first[0]), ("integers", 4, second[0])]
    assert plane.log[0][3] == [("integers", 1, 0)]
    assert plane.log[2][3] == [("integers", 3 * 2**30, first[2])]
    assert all(type(x) is int for entry in plane.log[2][3] for x in entry[1:])
    assert sum(len(log) for row in plane.log for log in row) == 4


def test_a_numpy_that_draws_differently_is_declined_loudly(monkeypatch):
    """Stand-in for a foreign numpy: a plane whose draws are not
    ``Generator.integers``'s. A cell that draws must raise — every time,
    so every batch falls back — and the campaign must warn and go scalar."""
    from repro.backends.batch.engine import run_cell
    from repro.campaign import Campaign
    from repro.experiments.config import TrialSpec

    honest = ReplayPlane.bounded

    def foreign(self, ti, pi, high):
        return honest(self, ti, pi, high) ^ 1

    specs = [
        TrialSpec(protocol="pull", adversary="ugf", n=8, f=2, seed=s) for s in (1, 2)
    ]
    check_stream_contract.cache_clear()
    monkeypatch.setattr(ReplayPlane, "bounded", foreign)
    for _ in range(2):
        with pytest.raises(SimulationError, match="numpy .* Generator.integers"):
            run_cell(specs[0], [1, 2])
    with Campaign(workers=1, use_cache=False) as campaign:
        with pytest.warns(RuntimeWarning, match="SimulationError: numpy"):
            results = campaign.run_trials(specs)
    assert [r.backend for r in results] == ["scalar", "scalar"]

    monkeypatch.setattr(ReplayPlane, "bounded", honest)
    run_cell(specs[0], [1, 2])  # an honest numpy passes ...
    assert check_stream_contract.cache_info().currsize == 1
    monkeypatch.setattr(ReplayPlane, "bounded", foreign)
    check_stream_contract()  # ... once per process: not looked at again
