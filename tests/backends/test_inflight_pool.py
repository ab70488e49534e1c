"""The in-flight pool's ordering and lifetime invariants, stated once.

The differential battery proves the engine byte-identical end to end;
these tests pin the properties that argument rests on (waves.py module
docstring) by driving the pool with hand-built waves: pool order is
scalar bucket order, a step's deliveries wake a receiver once, crashed
receivers drop payloads yet still force visited steps, entries of
finished trials are gone for good, and snapshot reclamation never
changes the bytes a surviving entry points at.
"""

import numpy as np

from repro.backends.batch.engine import _ASLEEP, _AWAKE, _NEVER, _CellRun
from repro.backends.batch.waves import (
    BROADCAST,
    KIND_GOSSIP,
    KIND_PULL,
    InFlightPool,
    Wave,
)
from repro.experiments.config import TrialSpec


def make_cell(protocol: str, trials: int = 2, n: int = 6) -> _CellRun:
    spec = TrialSpec(protocol=protocol, adversary="none", n=n, f=1, seed=0)
    return _CellRun(spec, list(range(trials)), False)


def make_wave(entries, rows=()) -> Wave:
    """*entries*: (trial, sender, receiver, kind, uid, arrive) tuples;
    *rows*: the (S, W) gossip snapshot rows ``uid`` indexes."""
    cols = np.asarray(entries, dtype=np.int64).reshape(-1, 6).T
    snaps = [np.asarray(rows, dtype=np.uint8)] if len(rows) else []
    return Wave(*cols, snaps)


def test_shared_arrival_step_delivers_in_creation_then_wave_order():
    cell = make_cell("pull")
    cell.pool.append(
        make_wave([(0, 3, 1, KIND_PULL, -1, 5), (0, 2, 1, KIND_PULL, -1, 5)])
    )
    cell.pool.append(
        make_wave([(0, 5, 1, KIND_PULL, -1, 6), (0, 4, 1, KIND_PULL, -1, 5)])
    )
    cell.now[:] = 5
    cell._deliver()
    assert cell.requesters == {(0, 1): [3, 2, 4]}
    cell.now[:] = 6
    cell._deliver()
    assert cell.requesters == {(0, 1): [3, 2, 4, 5]}
    assert cell.received[0, 1] == 4 and cell.pool.size == 0


def test_receiver_hit_from_two_waves_wakes_once():
    cell = make_cell("push")
    cell.status[0, 1] = _ASLEEP
    cell.next_action[0, 1] = _NEVER
    cell.pool.append(make_wave([(0, 2, 1, KIND_GOSSIP, 0, 3)], rows=[[0b0010_0000]]))
    cell.pool.append(make_wave([(0, 4, 1, KIND_GOSSIP, 0, 3)], rows=[[0b0000_1000]]))
    cell.now[:] = 3
    cell._deliver()
    assert cell.wake_counts[0, 1] == 1
    assert cell.status[0, 1] == _AWAKE and cell.next_action[0, 1] == 3
    assert cell.received[0, 1] == 2
    assert cell.pend_g[0, 1].tolist() == [0b0010_1000]  # both payloads, OR-ed
    assert cell.wake_counts.sum() == 1 and cell.received.sum() == 2


def test_crashed_receiver_drops_payload_but_forces_a_visited_step():
    cell = make_cell("push")
    cell._crash(0, 2)
    cell.pool.append(make_wave([(0, 1, 2, KIND_GOSSIP, 0, 9)], rows=[[0xFF]]))
    cand = np.full(cell.T, _NEVER, dtype=np.int64)
    inflight = cell.pool.fold_pending(cell.status, cand)
    assert cand.tolist() == [9, _NEVER]  # the arrival pulls the clock forward
    assert inflight.tolist() == [0, 0]  # but cannot keep the run alive
    cell.now[:] = 9
    cell._deliver()
    assert cell.received[0, 2] == 0 and not cell.pend_g[0, 2].any()
    assert cell.pool.size == 0


def test_lone_broadcast_neither_wakes_nor_counts_for_its_sender():
    """One broadcast row is one message to every pid but its sender: a
    sender whose only due broadcast is its own sleeps on."""
    cell = make_cell("flood")
    cell.status[:] = _ASLEEP
    cell.next_action[:] = _NEVER
    cell._crash(0, 4)
    cell.pool.append(
        make_wave([(0, 2, BROADCAST, KIND_GOSSIP, 0, 3)], rows=[[0b0010_0000]])
    )
    cell.now[:] = 3
    cell._deliver()
    others = [0, 1, 3, 5]
    assert cell.received[0].tolist() == [1, 1, 0, 1, 0, 1]
    assert cell.wake_counts[0].tolist() == [1, 1, 0, 1, 0, 1]
    assert (cell.status[0, others] == _AWAKE).all()
    assert (cell.next_action[0, others] == 3).all()
    assert cell.status[0, 2] == _ASLEEP and cell.next_action[0, 2] == _NEVER
    assert cell.pend_g[0, others].tolist() == [[0b0010_0000]] * 4
    assert not cell.pend_g[0, [2, 4]].any()
    assert cell.received[1].sum() == 0 and cell.pool.size == 0


def test_mixed_unicast_and_broadcast_rows_fold_and_leave_by_arrival_step():
    cell = make_cell("flood")
    cell._crash(0, 5)
    cell.pool.append(
        make_wave(
            [
                (0, 1, BROADCAST, KIND_GOSSIP, 0, 5),
                (0, 2, 5, KIND_GOSSIP, 1, 5),  # to the crashed pid
                (1, 3, BROADCAST, KIND_GOSSIP, 2, 7),
                (0, 5, BROADCAST, KIND_GOSSIP, 3, 7),  # crashed after sending
                (1, 0, 4, KIND_GOSSIP, 2, 5),
            ],
            rows=[[0x40], [0x20], [0x10], [0x04]],
        )
    )

    def fold():
        cand = np.full(cell.T, _NEVER, dtype=np.int64)
        inflight = cell.pool.fold_pending(cell.status, cand)  # lowers cand
        return cand.tolist(), inflight.tolist()

    # trial 0: 1's broadcast reaches 4 correct others, the unicast none,
    # 5's broadcast all 5 correct; trial 1: 5 for the broadcast + 1.
    assert fold() == ([5, 5], [9, 6])
    due = cell.pool.take_due(np.array([5, 5]), cell.live)
    assert due[:3].T.tolist() == [[0, 1, BROADCAST], [0, 2, 5], [1, 0, 4]]
    assert fold() == ([7, 7], [5, 5])
    cell.now[:] = 7
    cell._deliver()
    assert cell.received.tolist() == [[1, 1, 1, 1, 1, 0], [1, 1, 1, 0, 1, 1]]
    assert cell.pool.size == 0 and fold() == ([_NEVER, _NEVER], [0, 0])


def test_entries_of_finished_trials_are_dropped_for_good():
    cell = make_cell("push")
    cell.pool.append(
        make_wave(
            [
                (0, 1, 2, KIND_GOSSIP, 0, 4),
                (1, 1, 2, KIND_GOSSIP, 1, 4),
                (1, 1, 3, KIND_GOSSIP, 1, 7),
                (0, 1, 3, KIND_GOSSIP, 0, 7),
            ],
            rows=[[0x40], [0x40]],
        )
    )
    cell.live[1] = False
    cell.now[:] = 4
    cell._deliver()
    assert cell.pool.size == 1  # trial 0's step-7 entry is all that is left
    cell.live[1] = True  # even a (hypothetical) revival finds nothing
    cell.now[:] = 7
    cell._deliver()
    assert cell.received[1].sum() == 0
    assert cell.received[0].tolist() == [0, 0, 1, 1, 0, 0]


def test_snapshot_reclamation_keeps_every_surviving_uid_on_its_bytes():
    rng = np.random.default_rng(13)
    pool = InFlightPool(3, 5)  # G rows of 3 bytes, I rows of 5
    sent: dict[int, tuple[bytes, bytes] | None] = {}  # tag (in `si`) -> rows
    live = np.ones(1, dtype=bool)
    reclaimed_with_survivors = False

    def check(cols):
        for tag, uid in zip(cols[1].tolist(), cols[4].tolist()):
            if sent[tag] is None:
                assert uid == -1
            else:
                got = tuple(t[uid].tobytes() for t in pool.tables)
                assert got == sent[tag], tag

    for step in range(100):
        due = pool.take_due(np.array([step]), live)
        assert (due[5] == step).all()
        assert due[1].tolist() == sorted(due[1].tolist())  # pool order survives
        check(due)
        rows_g = rng.integers(0, 256, (8, 3), dtype=np.uint8)
        rows_i = rng.integers(0, 256, (8, 5), dtype=np.uint8)
        entries = []
        for j in range(12):
            tag = step * 12 + j
            arrive = step + 1 + int(rng.integers(25) if j % 3 else 0)
            if j % 4 == 3:
                sent[tag] = None
                entries.append((0, tag, 0, KIND_PULL, -1, arrive))
            else:
                uid = int(rng.integers(8))
                sent[tag] = (rows_g[uid].tobytes(), rows_i[uid].tobytes())
                entries.append((0, tag, 0, KIND_GOSSIP, uid, arrive))
        cols = np.asarray(entries, dtype=np.int64).T
        before = pool.snaps
        pool.append(Wave(*cols, [rows_g, rows_i]))
        reclaimed_with_survivors |= 8 < pool.snaps < before + 8
        check(pool.cols[:, : pool.size])
    assert reclaimed_with_survivors  # the interesting path did run
    assert pool.tables[0].shape[0] < 100 * 8  # and kept the tables bounded
