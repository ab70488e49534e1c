"""Waves and the in-flight pool: the generic engine's message store.

One *wave* holds every message decided in one local-steps pass of one
visited step, in COO form — parallel arrays of (trial, sender,
receiver, kind, snapshot-uid) plus the per-message arrival step
``now + delta[t, sender] + d[t, sender]`` (both timings read at
decision time, exactly like the scalar ``_send_sink`` → ``Network.send``
chain; for every batchable adversary they are constant after setup).
Kernels hand the builder whole arrays (``add_snap_rows`` +
``add_block``); the frozen wave is what the adversary plan's
``after_step`` scans, and the engine then appends it to the cell run's
single :class:`InFlightPool`.

Ordering. Entry order within a wave is the scalar send order — trials
ascending, then pid ascending within the step's due set, then each
process's own send order. The pool appends waves in creation order and
only ever removes entries by *stable* compaction, so the pool
restricted to one arrival step is the scalar network's bucket for that
step — which matters wherever delivery order is observable: the order
pull requests are answered in and Strategy 2.k.0's budget-bounded
crash scan.

Lifetime. An entry leaves when it is delivered or when its trial stops
being live; nothing is marked and kept. Payload snapshots live in one
table shared by the pool, one row per sender per pass (knowledge
cannot change within a pass, so SEARS's fanout stores one row, like
the scalar snapshot-on-send cache). Unreferenced rows are reclaimed
when the table would otherwise grow: referenced rows slide down in
order and every ``uid`` is remapped, so a surviving ``uid`` always
points at the bytes it was sent with. Pull requests are 1-byte markers
whose answer is snapshotted at the *answerer's* local step, not at
request time — they carry ``uid = -1`` and no row.

Broadcasts. An entry whose receiver is :data:`BROADCAST` stands for one
message to every pid but the sender, in ascending-pid send order, all
sharing the sender's snapshot row and arrival step — flood's N(N-1)
messages stay N entries. Every reader of the receiver column (the
engine's delivery, :meth:`InFlightPool.fold_pending`, the adversary
plan's survivor scan) expands it in place.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "KIND_GOSSIP", "KIND_RELATION", "KIND_PULL", "BROADCAST",
    "Wave", "WaveBuilder", "InFlightPool",
]

#: Payload kinds: a ``G`` snapshot (W bytes), a ``(G, I)`` snapshot
#: (W + N*W bytes), a pull-request marker (1 byte).
KIND_GOSSIP, KIND_RELATION, KIND_PULL = 0, 1, 2

#: Receiver of a broadcast entry: every pid but the sender.
BROADCAST = -1

#: Process status codes of the (trial, process) grid, and the
#: ``next_action`` / wake-up step of a process or schedule with none.
_AWAKE, _ASLEEP, _CRASHED = 0, 1, 2
_NEVER = 2**62


def _cat(parts) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class Wave(NamedTuple):
    """One decision step's sends, frozen in scalar send order."""

    ti: np.ndarray  # (U,) trial index
    si: np.ndarray  # (U,) sender pid
    ri: np.ndarray  # (U,) receiver pid, or BROADCAST
    kind: np.ndarray  # (U,) payload kind
    uid: np.ndarray  # (U,) snapshot row (-1 for pulls)
    arrive: np.ndarray  # (U,) absolute arrival step
    #: Sender snapshot tables, row-aligned: [(S, W) G rows] plus
    #: [(S, N*W) I rows] when relational; [] for a pull-only pass.
    snaps: list[np.ndarray]


class WaveBuilder:
    """Collects one pass's send blocks; freezes them into a :class:`Wave`."""

    __slots__ = ("_chunks", "_snaps", "_snap_count")

    def __init__(self):
        self._chunks: list[tuple] = []
        self._snaps: list[tuple[np.ndarray, ...]] = []
        self._snap_count = 0

    def add_snap_rows(self, *rows: np.ndarray) -> int:
        """Register a block of sender snapshots (one array per table,
        row-aligned); return the block's base uid."""
        base = self._snap_count
        self._snap_count += rows[0].shape[0]
        self._snaps.append(rows)
        return base

    def add_block(self, ti, si, ri, kind: int, uid) -> None:
        """Append a block of messages (parallel arrays, one kind)."""
        self._chunks.append(
            (ti, si, ri, np.full(ti.shape[0], kind, dtype=np.int8), uid)
        )

    def build(self, now: np.ndarray, delta: np.ndarray, d: np.ndarray) -> Wave | None:
        """Freeze into a Wave (None when nothing travels this pass)."""
        if not self._chunks:
            return None
        ti, si, ri, kind, uid = (_cat(col) for col in zip(*self._chunks))
        arrive = now[ti] + delta[ti, si] + d[ti, si]
        snaps = [_cat(parts) for parts in zip(*self._snaps)]
        return Wave(ti, si, ri, kind, uid, arrive, snaps)


_TI, _SI, _RI, _KIND, _UID, _ARRIVE = range(6)


class InFlightPool:
    """Every undelivered message of one cell run (see module docstring).

    ``cols[:, :size]`` are the (ti, si, ri, kind, uid, arrive) columns
    in wave-creation order; ``tables[k][:snaps]`` the snapshot tables
    ``uid`` indexes (G rows, then I rows when relational). Both grow by
    doubling.
    """

    __slots__ = ("cols", "size", "tables", "snaps")

    def __init__(self, *row_bytes: int):
        self.cols = np.empty((6, 256), dtype=np.int64)
        self.size = 0
        self.tables = [np.empty((64, w), dtype=np.uint8) for w in row_bytes]
        self.snaps = 0

    def append(self, wave: Wave) -> None:
        m = wave.ti.shape[0]
        s = wave.snaps[0].shape[0] if wave.snaps else 0
        if self.size + m > self.cols.shape[1]:
            grown = np.empty((6, 2 * (self.size + m)), dtype=np.int64)
            grown[:, : self.size] = self.cols[:, : self.size]
            self.cols = grown
        if self.snaps + s > self.tables[0].shape[0]:
            self._reclaim_snaps(s)
        base, end = self.snaps, self.size + m
        block = self.cols[:, self.size : end]
        block[_TI], block[_SI], block[_RI] = wave.ti, wave.si, wave.ri
        block[_KIND], block[_ARRIVE] = wave.kind, wave.arrive
        block[_UID] = np.where(wave.uid >= 0, wave.uid + base, -1)
        for table, rows in zip(self.tables, wave.snaps):
            table[base : base + s] = rows
        self.size, self.snaps = end, base + s

    def _reclaim_snaps(self, extra: int) -> None:
        """Drop unreferenced snapshot rows (stable, uids remapped); if
        the tables would still be over half full, double them."""
        uid = self.cols[_UID, : self.size]  # a view: remapped in place
        held = uid >= 0
        used = np.zeros(self.snaps, dtype=bool)
        used[uid[held]] = True
        uid[held] = (np.cumsum(used) - 1)[uid[held]]
        kept = int(np.count_nonzero(used))
        need = 2 * (kept + extra)
        for k, table in enumerate(self.tables):
            rows = table[: self.snaps][used]
            if need > table.shape[0]:
                table = self.tables[k] = np.empty((need, table.shape[1]), np.uint8)
            table[:kept] = rows
        self.snaps = kept

    def take_due(self, now: np.ndarray, live: np.ndarray) -> np.ndarray:
        """Remove and return (a (6, m) column block, pool order) the
        entries arriving at their live trial's ``now``; entries of
        trials no longer live are dropped in the same pass."""
        cols = self.cols[:, : self.size]
        ti = cols[_TI]
        alive = live[ti]
        due = alive & (cols[_ARRIVE] == now[ti])
        out = cols[:, due]
        keep = alive ^ due
        kept = int(np.count_nonzero(keep))
        if kept < self.size:
            self.cols[:, :kept] = cols[:, keep]
            self.size = kept
        return out

    def fold_pending(self, status: np.ndarray, cand: np.ndarray) -> np.ndarray:
        """Fold the pool into the per-trial quiescence state: *cand* is
        lowered in place to every pending arrival (messages to crashed
        receivers still force a visited step, like the scalar network's
        arrival buckets); the returned per-trial count covers only
        messages addressed to correct processes (only those can keep a
        run alive) — for a broadcast, every correct pid but its sender."""
        cols = self.cols[:, : self.size]
        ti, ri = cols[_TI], cols[_RI]
        np.minimum.at(cand, ti, cols[_ARRIVE])
        to_correct = status[ti, ri] != _CRASHED  # BROADCAST reads pid -1: unused
        cast = ri == BROADCAST
        if not cast.any():  # the randomized kernels' every fold: skip the weights
            return np.bincount(ti[to_correct], minlength=cand.shape[0])
        correct = status != _CRASHED
        reach = np.where(
            cast, correct.sum(axis=1)[ti] - correct[ti, cols[_SI]], to_correct
        )
        return np.bincount(ti, weights=reach, minlength=cand.shape[0])
