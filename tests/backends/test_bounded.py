"""``ReplayPlane.bounded`` against per-call ``Generator.integers``, and
``ReplayPlane.sample`` against per-call ``Generator.choice``.

The batch engine never calls ``integers``: it replays numpy's 32-bit
bounded draw on raw PCG64 words (rng.py). These tests hold that replay
to the real thing on twin generators — random per-row bounds over the
whole admitted range, a bound that rejects a quarter of its words, the
free ``high == 1``, refills that hit some rows of a call and not
others, calls on a subset of the grid — and pin the loud decline when
the two disagree (a numpy whose streams differ). ``sample`` is
``choice(c, size=w, replace=False)`` rebuilt from those draws (Floyd's
pass, then a shuffle): ragged widths in one call, ``w == c``, collisions,
refills mid-draw, ``integers`` before and after on the same generators,
and its own loud decline.
"""

import copy

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


#: One ``sample`` call: which generators draw, from how many, how many.
samples = st.lists(
    st.tuples(
        st.integers(0, len(SEEDS) - 1),
        st.integers(0, N - 1),
        st.integers(1, 220).flatmap(
            lambda c: st.tuples(st.just(c), st.integers(1, min(c, 9)))
        ),
    ),
    unique_by=lambda row: row[:2],
    min_size=1,
    max_size=len(SEEDS) * N,
)


def reference_choice(gens, ti, pi, counts, widths) -> list[list[int]]:
    return [
        gens[t][p].choice(int(c), size=int(w), replace=False).tolist()
        for t, p, c, w in zip(ti, pi, counts, widths)
    ]


def rows_of(picks, widths) -> list[list[int]]:
    assert (picks[np.arange(picks.shape[1]) >= widths[:, None]] == -1).all()
    return [row[:w] for row, w in zip(picks.tolist(), widths.tolist())]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(samples, bounds), min_size=1, max_size=12))
def test_sample_equals_per_call_choice_with_integers_in_between(passes):
    """Ragged widths in one call, ``integers`` draws before and after on
    the same generators, refills wherever the 2w - 1 words put them."""
    plane, gens = twins()
    for rows, high in passes:
        ti, pi = np.array([r[:2] for r in rows], dtype=np.int64).T
        counts, widths = np.array([r[2] for r in rows], dtype=np.int64).T
        got = rows_of(plane.sample(ti, pi, counts, widths), widths)
        assert got == reference_choice(gens, ti, pi, counts, widths)
        assert plane.bounded(ti, pi, high).tolist() == reference(gens, ti, pi, high)


def test_sample_takes_every_candidate_and_one_candidate():
    """``w == c`` starts Floyd at a bound of 1, a draw that takes no
    word; ``w == 1`` is a plain ``integers(c)`` and no shuffle."""
    plane, gens = twins()
    ti, pi = GRID
    for c in (1, 2, 5, 8):
        counts = widths = np.full(ti.shape, c)
        got = rows_of(plane.sample(ti, pi, counts, widths), widths)
        assert got == reference_choice(gens, ti, pi, counts, widths)
        assert all(sorted(row) == list(range(c)) for row in got)
    one = np.ones(ti.shape, dtype=np.int64)
    assert plane.sample(ti, pi, 7 * one, one)[:, 0].tolist() == reference(gens, ti, pi, 7)


def test_sample_crosses_refills_and_replays_collisions(monkeypatch):
    monkeypatch.setattr(ReplayPlane, "BLOCK", 2)  # 4 words: every wide draw refills
    plane, gens = twins()
    ti, pi = GRID
    counts = np.full(ti.shape, 9)
    widths = np.arange(ti.size) % 8 + 1
    shuffled = collided = 0
    for _ in range(20):
        for gen, w in zip(np.ravel(gens), widths.tolist()):
            twin, seen = copy.deepcopy(gen), []  # Floyd's pass, by hand
            for j in range(9 - w, 9):
                v = int(twin.integers(j + 1))
                collided += v in seen
                seen.append(j if v in seen else v)
        got = rows_of(plane.sample(ti, pi, counts, widths), widths)
        assert got == reference_choice(gens, ti, pi, counts, widths)
        # Floyd alone never puts a value above c - w + k at position k.
        shuffled += sum(
            any(v > 9 - len(row) + k for k, v in enumerate(row)) for row in got
        )
    assert shuffled >= 20 and collided >= 20


def test_record_logs_one_choice_entry_per_sample_row():
    plane, _ = twins(record=True)
    ti, pi = np.array([0, 2]), np.array([1, 3])
    picks = plane.sample(ti, pi, np.array([9, 4]), np.array([3, 4]))
    pushed = plane.bounded(ti, pi, 5).tolist()
    assert plane.log[0][1] == [
        ("choice", 9, 3, tuple(picks[0, :3].tolist())), ("integers", 5, pushed[0]),
    ]
    assert plane.log[2][3] == [
        ("choice", 4, 4, tuple(picks[1].tolist())), ("integers", 5, pushed[1]),
    ]
    assert all(type(x) is int for x in plane.log[2][3][0][3])


def test_a_numpy_that_samples_differently_is_declined_loudly(monkeypatch):
    """``integers`` replays but ``choice`` does not — here a ``sample``
    without the shuffle pass, what a numpy that dropped it would need:
    the contract check must notice although every ``bounded`` is right."""
    honest = ReplayPlane.sample

    def unshuffled(self, ti, pi, counts, widths):
        picks = np.full((ti.size, int(widths.max())), -1, dtype=np.int64)
        for k in range(picks.shape[1]):
            rows = np.flatnonzero(widths > k)
            j = counts[rows] - widths[rows] + k
            v = self.bounded(ti[rows], pi[rows], j + 1)
            taken = (picks[rows, :k] == v[:, None]).any(axis=1)
            picks[rows, k] = np.where(taken, j, v)
        return picks

    check_stream_contract.cache_clear()
    monkeypatch.setattr(ReplayPlane, "sample", unshuffled)
    with pytest.raises(SimulationError, match="numpy .* Generator.choice"):
        check_stream_contract()
    monkeypatch.setattr(ReplayPlane, "sample", honest)
    check_stream_contract()


def test_a_numpy_that_draws_differently_is_declined_loudly(monkeypatch):
    """Stand-in for a foreign numpy: a plane whose draws are not
    ``Generator.integers``'s. A cell that draws must raise — every time,
    so every batch falls back — and the campaign must warn and go scalar."""
    from repro.backends.batch.engine import run_cell
    from repro.campaign import Campaign
    from repro.experiments.config import TrialSpec

    monkeypatch.delenv("REPRO_SANITIZE", raising=False)  # the cell must route batch
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
