"""The in-flight pool's ordering and lifetime invariants, stated once.

The differential battery proves the engine byte-identical end to end;
these tests pin the properties that argument rests on (waves.py module
docstring) by driving the pool with hand-built waves: pool order is
scalar bucket order, a step's deliveries wake a receiver once, crashed
receivers drop payloads yet still force visited steps, entries of
finished trials are gone for good, and snapshot reclamation never
changes the bytes a surviving entry points at. The same hand-driving
pins what a cell run keeps *between* delivery and a local step:
delivered pulls awaiting their answerer, and the relational kernels'
"proof already failed on this knowledge" bit.
"""

import numpy as np

from repro.backends.batch.engine import _ASLEEP, _AWAKE, _CRASHED, _NEVER, _CellRun
from repro.backends.batch.waves import (
    BROADCAST,
    KIND_GOSSIP,
    KIND_PULL,
    KIND_RELATION,
    InFlightPool,
    Wave,
    WaveBuilder,
)
from repro.experiments.config import TrialSpec


def make_cell(protocol: str, trials: int = 2, n: int = 6) -> _CellRun:
    spec = TrialSpec(protocol=protocol, adversary="none", n=n, f=1, seed=0)
    return _CellRun(spec, list(range(trials)), False)


def make_wave(entries, rows=(), relations=()) -> Wave:
    """*entries*: (trial, sender, receiver, kind, uid, arrive) tuples;
    *rows*: the (S, W) gossip snapshot rows ``uid`` indexes, and for a
    relational cell *relations*, the (S, N*W) relation rows beside them."""
    cols = np.asarray(entries, dtype=np.int64).reshape(-1, 6).T
    snaps = [np.asarray(t, dtype=np.uint8) for t in (rows, relations) if len(t)]
    return Wave(*cols, snaps)


def answers(cell: _CellRun, due_pids) -> list[list[int]]:
    """Run ``answer_pulls`` for trial 0's *due_pids*; return the
    (trial, answerer, requester) rows it sent, in send order."""
    due = np.zeros((cell.T, cell.n), dtype=bool)
    due[0, list(due_pids)] = True
    cell.builder = WaveBuilder()
    cell.answer_pulls(due)
    wave = cell.builder.build(cell.now, cell.plan.delta, cell.plan.d)
    return [] if wave is None else np.stack(wave[:3]).T.tolist()


def test_shared_arrival_step_delivers_in_creation_then_wave_order():
    cell = make_cell("pull")
    cell.pool.append(
        make_wave([(0, 3, 1, KIND_PULL, -1, 5), (0, 2, 1, KIND_PULL, -1, 5)])
    )
    cell.pool.append(
        make_wave(
            [
                (0, 5, 1, KIND_PULL, -1, 6),
                (0, 4, 1, KIND_PULL, -1, 5),
                (0, 1, 0, KIND_PULL, -1, 5),
            ]
        )
    )
    cell.now[:] = 5
    cell._deliver()
    assert cell.asked.T.tolist() == [[0, 1, 3], [0, 1, 2], [0, 1, 4], [0, 0, 1]]
    cell.now[:] = 6
    cell._deliver()
    assert cell.asked.T.tolist()[-1] == [0, 1, 5]
    assert cell.received[0, 1] == 4 and cell.pool.size == 0
    # Answerer-major, delivery order within an answerer; an answerer
    # that is not due keeps its requests for its next step.
    assert answers(cell, [0, 1]) == [
        [0, 0, 1], [0, 1, 3], [0, 1, 2], [0, 1, 4], [0, 1, 5],
    ]
    assert cell.sent[0].tolist() == [1, 4, 0, 0, 0, 0] and cell.asked.size == 0


def test_answerer_crashed_before_its_next_step_never_answers():
    cell = make_cell("pull")
    cell.pool.append(
        make_wave(
            [
                (0, 3, 1, KIND_PULL, -1, 5),
                (0, 3, 2, KIND_PULL, -1, 5),
                (1, 0, 1, KIND_PULL, -1, 5),
            ]
        )
    )
    cell.now[:] = 5
    cell._deliver()
    assert answers(cell, []) == [] and cell.asked.shape[1] == 3  # nobody due yet
    cell._crash(0, 1)  # between delivery and its next local step
    cell.live[1] = False
    assert answers(cell, [2]) == [[0, 2, 3]]
    assert cell.asked.size == 0  # the crashed answerer's row and the dead trial's went
    assert cell.sent.sum() == 1 and cell.received[0, 1] == 1


def lone_ears_process(cell: _CellRun):
    """Trial 0's pid 1 awake among crashed peers (its gossip goes
    unanswered), knowing {1, 2} but not that 2 knows as much — so its
    dissemination proof fails. Returns a ``passes(k)`` that runs k
    visited steps and reports whether it sleeps."""
    cell.status[:] = _CRASHED
    cell.next_action[:] = _NEVER
    cell.status[0, 1], cell.next_action[0, 1] = _AWAKE, 0
    cell.K[0, 1] = cell.I[0, 1, 1] = 0x60

    def passes(k: int) -> bool:
        for _ in range(k):
            cell._deliver()
            cell._local_pass()
            cell.now += 1
        return cell.status[0, 1] == _ASLEEP

    return passes


def test_failed_dissemination_proof_sleeps_only_through_give_up():
    cell = make_cell("ears")
    kernel, passes = cell.kernel, lone_ears_process(cell)
    assert (kernel.patience, kernel.give_up) == (3, 6)
    assert not passes(2) and not kernel.unproven.any()  # quiet 2: no candidate yet
    assert not passes(1) and kernel.unproven[0, 1]  # quiet 3: proof ran, failed
    assert not passes(5) and cell.sent[0, 1] == 8  # still gossiping on the bit
    assert passes(1) and cell.sent[0, 1] == 8  # quiet 9 = patience + give_up
    assert kernel.unproven.sum() == 1


def test_process_that_learns_after_a_failed_proof_proves_again_and_sleeps():
    cell = make_cell("ears")
    kernel, passes = cell.kernel, lone_ears_process(cell)
    assert not passes(3) and kernel.unproven[0, 1]
    # 2 tells 1 that it knows {1, 2} too: nothing new in K, a new row in I.
    relation = np.zeros((1, cell.n * cell.W), dtype=np.uint8)
    relation[0, 2] = 0x60
    cell.pool.append(
        make_wave([(0, 2, 1, KIND_RELATION, 0, 4)], rows=[[0x60]], relations=relation)
    )
    assert not passes(1) and kernel.unproven[0, 1]  # step 3: not arrived yet
    assert not passes(1) and not kernel.unproven[0, 1]  # step 4: learned, quiet 0
    assert kernel.quiet[0, 1] == 0
    assert not passes(2)
    assert passes(1)  # quiet 3 again: the proof re-ran and holds, long before give_up
    assert kernel.quiet[0, 1] == kernel.patience and not kernel.unproven.any()


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
    assert cell.has_pending[0, others].all() and cell.has_pending.sum() == 4
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
