"""The vectorized wave engine: every batch kernel, replayed adversaries.

One :func:`run_cell` call simulates every trial of one (protocol,
adversary, n, f, max_steps, topology) cell on a shared (T, N) grid. It assumes
neither unit timings nor scripted draws: per-trial *visited steps* are
fast-forwarded exactly like the scalar event loop (min over awake
wake-ups, pending arrivals and the adversary's scheduled wake-ups),
every undelivered message of the run sits in one arrival-indexed
in-flight pool (``waves.py``: flat COO columns in scalar bucket order
plus one snapshot table; an all-send is one broadcast entry), and every
protocol draw goes through the RNG replay plane in scalar draw order —
built on first use, so the deterministic kernels never seed one.
The result is byte-identical ``Outcome``s — the differential battery
compares ``to_wire()`` rows.

A visited step touches the pool a fixed number of times, however many
decision steps still have messages in flight: one masked select of
"arrives now", one scatter of payload rows into the pending grids, one
``received`` update, one wake pass, one min/count fold for quiescence.
The local pass likewise: knowledge rows are gathered, OR-ed and zeroed
only for due processes that were delivered a payload since their last
merge, and delivered pull requests wait in one flat (trial, answerer,
requester) table until their answerer's next step.

Scalar-fidelity notes, each load-bearing:

- the step-0 pass runs before the main loop and is followed by the
  adversary's ``after_step`` (Strategy 2.k.0 can spend budget at step
  0) and a ``steps_simulated`` tick for every trial;
- ``after_step`` runs once the step's wave is frozen — arrival steps
  and ``next_action`` already computed — so a plan that retimes or
  crashes there (the observer plans) reaches later decisions only;
- quiescence is checked before exhaustion: an all-asleep grid with no
  correct-bound traffic completes even when crashed-bound messages
  are still pending (those only force visited steps);
- truncation (next interesting step beyond ``max_steps``) freezes
  ``clock.now`` at the last *visited* step — ``t_end`` reports it;
- sleeping receivers wake at delivery and act the same step; crashed
  receivers drop payloads but their pending arrivals still pull the
  clock forward, exactly like the scalar network's buckets.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from repro.backends.batch.adversaries import build_plan
from repro.backends.batch.kernels import make_kernel
from repro.backends.batch.rng import ReplayPlane, check_stream_contract
from repro.backends.batch.waves import (
    _ASLEEP,
    _AWAKE,
    _CRASHED,
    _NEVER,
    BROADCAST,
    KIND_GOSSIP,
    KIND_PULL,
    KIND_RELATION,
    InFlightPool,
    Wave,
    WaveBuilder,
)
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.config import TrialSpec
from repro.protocols.bitset import packed_size
from repro.sim.outcome import Outcome
from repro.sim.rng import RandomSource

__all__ = ["run_cell"]


def _scatter_or(targets, tables, dest, uid, unique=False) -> None:
    """``target[dest] |= table[uid]`` for each (target, table) pair,
    with repeated destinations OR-ed together.

    A fancy ``|=`` keeps one write per repeated index, and
    ``bitwise_or.at`` / ``reduceat`` are slow on relation-sized rows, so
    repeats go in rounds by within-destination rank: round r holds each
    destination's r-th message, hence no repeats. Pass ``unique`` when
    the caller already knows there are none (skips the sort).
    """
    if dest.size == 0:
        return
    if unique:
        rounds = [slice(None)]
    else:
        order = np.argsort(dest, kind="stable")
        sd = dest[order]
        pos = np.arange(sd.size)
        head = np.zeros(sd.size, dtype=np.int64)  # start of each run of equals
        np.multiply(pos[1:], sd[1:] != sd[:-1], out=head[1:])
        rank = pos - np.maximum.accumulate(head)
        rounds = [order[rank == r] for r in range(int(rank.max()) + 1)]
    for sel in rounds:
        d, u = dest[sel], uid[sel]
        for target, table in zip(targets, tables):
            target[d] |= table[u]


def _bind_topology(spec: str | None, seeds: Sequence[int], n: int):
    """The cell's canonical topology spec and its reach mask: None on
    the clique, else a (T, n, n) bool adjacency, each trial's graph
    bound from its own ``stream("topology")`` as the scalar engine
    binds it (and raising what it raises). A family that draws nothing
    binds once, every trial a view of the one table. Static graphs are
    symmetric, so whoever was sent a pull request can answer it:
    nothing checks an edge at answer time."""
    if spec is None:
        return None, None
    from repro.sim.topology import make_topology  # off-clique cells only

    if make_topology(spec).is_complete:
        return None, None
    tables = []
    for seed in seeds:
        rng = RandomSource(seed).stream("topology")
        fresh = rng.bit_generator.state
        topo = make_topology(spec)
        topo.bind(n, rng)
        adj = np.zeros((n, n), dtype=bool)
        for rho in range(n):
            adj[rho, topo.neighbors(rho)] = True
        tables.append(adj)
        if rng.bit_generator.state == fresh:  # deterministic: one graph for all
            return topo.spec, np.broadcast_to(adj, (len(seeds), n, n))
    return topo.spec, np.stack(tables)


class _CellRun:
    def __init__(self, spec0: TrialSpec, seeds: Sequence[int], record_draws: bool):
        n, f, max_steps = spec0.n, spec0.f, spec0.max_steps
        if n <= 1:
            raise ConfigurationError(f"an all-to-all system needs N >= 2, got N={n}")
        if not 0 <= f < n:
            raise ConfigurationError(
                f"crash budget must satisfy 0 <= F < N, got F={f}, N={n}"
            )
        if max_steps <= 0:
            raise ConfigurationError(f"max_steps must be positive, got {max_steps}")

        T = len(seeds)
        self.spec = spec0
        self.seeds = list(seeds)
        self._record_draws = record_draws
        self.T, self.n, self.f = T, n, f
        self.max_steps = max_steps
        self.W = W = packed_size(n)

        self.kernel = make_kernel(spec0.protocol, n, f, T)
        self.relational = self.kernel.relational
        self.uses_pull = self.kernel.uses_pull
        self._snap_kind = KIND_RELATION if self.relational else KIND_GOSSIP
        self._snap_nbytes = W + n * W if self.relational else W

        self.topology, self.adj = _bind_topology(spec0.topology, seeds, n)
        self.plan = build_plan(spec0.adversary, seeds, n, f)
        self._any_omitted = bool(self.plan.omitted.any())

        # Knowledge grids: K is each process's packed gossip row; I (for
        # relational protocols) its packed relation matrix, own row
        # aliased to K's content by the merge rule.
        eye = np.zeros((n, W), dtype=np.uint8)
        eye[np.arange(n), np.arange(n) >> 3] = 128 >> (np.arange(n) & 7)
        self.K = np.tile(eye, (T, 1, 1))
        self.pend_g = np.zeros((T, n, W), dtype=np.uint8)
        #: Whether a payload was delivered since the process last merged.
        self.has_pending = np.zeros((T, n), dtype=bool)
        #: The pending grids as flat (T*n, row) views, one per snapshot
        #: table of the in-flight pool (deliveries scatter table -> view).
        self._pend_flat = [self.pend_g.reshape(T * n, W)]
        self.I = self.pend_i = None
        if self.relational:
            self.I = np.zeros((T, n, n, W), dtype=np.uint8)
            self.I[:, np.arange(n), np.arange(n)] = eye
            self.pend_i = np.zeros((T, n, n, W), dtype=np.uint8)
            self._pend_flat.append(self.pend_i.reshape(T * n, n * W))

        self.status = np.zeros((T, n), dtype=np.int8)
        self.next_action = np.zeros((T, n), dtype=np.int64)
        self.now = np.zeros(T, dtype=np.int64)
        self.live = np.ones(T, dtype=bool)
        self.completed = np.zeros(T, dtype=bool)

        self.sent = np.zeros((T, n), dtype=np.int64)
        self.received = np.zeros((T, n), dtype=np.int64)
        self.bytes_sent = np.zeros((T, n), dtype=np.int64)
        self.sleep_counts = np.zeros((T, n), dtype=np.int64)
        self.wake_counts = np.zeros((T, n), dtype=np.int64)
        self.last_sleep = np.full((T, n), -1, dtype=np.int64)
        self.crash_step = np.full((T, n), -1, dtype=np.int64)
        self.steps_sim = np.zeros(T, dtype=np.int64)

        #: Every undelivered message, in scalar bucket order (waves.py).
        self.pool = InFlightPool(*(flat.shape[1] for flat in self._pend_flat))
        self.builder: WaveBuilder | None = None
        #: Delivered pull requests awaiting the answerer's next local
        #: step: (trial, answerer, requester) columns in delivery order
        #: (== the scalar mailbox drain order).
        self.asked = np.empty((3, 0), dtype=np.int64)

        for i, victims in enumerate(self.plan.setup_crashes):
            for rho in victims:
                self._crash(i, int(rho))

    # ------------------------------------------------------------ plumbing

    @cached_property
    def plane(self) -> ReplayPlane:
        """Seeded on the first draw: T x N generators cost more than a
        whole flood or round-robin cell, which never draws."""
        check_stream_contract()  # raises on a numpy the plane cannot replay
        return ReplayPlane(self.seeds, self.n, record=self._record_draws)

    def _crash(self, t, p) -> None:
        """Crash process *p* of trial *t*: scalars, or index arrays
        (aligned, or one trial and its victims), stamped with ``now``."""
        self.status[t, p] = _CRASHED
        self.next_action[t, p] = _NEVER
        self.crash_step[t, p] = self.now[t]

    def send_snapshots_grouped(
        self,
        sti: np.ndarray,
        spi: np.ndarray,
        targets: np.ndarray | None,
        *,
        unique_senders: bool = True,
    ) -> None:
        """Bulk snapshot sends: each sender (sti[i], spi[i]) sends to
        every pid in ``targets[i]`` (a (S, k) matrix in per-sender send
        order), or with ``targets=None`` to every pid but itself, as one
        broadcast entry. One knowledge-row copy per sender row, one COO
        block for the whole pass. Pass ``unique_senders=False`` when a
        sender may appear on several rows (pull's requester answers) —
        counter updates then go through the unbuffered scatter-add."""
        if targets is None:
            k, targets = self.n - 1, np.full((sti.size, 1), BROADCAST)
        else:
            k = targets.shape[1]
        if unique_senders:
            self.sent[sti, spi] += k
            self.bytes_sent[sti, spi] += k * self._snap_nbytes
        else:
            np.add.at(self.sent, (sti, spi), k)
            np.add.at(self.bytes_sent, (sti, spi), k * self._snap_nbytes)
        if self._any_omitted:
            keep = ~self.plan.omitted[sti, spi]
            if not keep.all():
                sti, spi, targets = sti[keep], spi[keep], targets[keep]
        if sti.size == 0:
            return
        rows = [self.K[sti, spi]]
        if self.relational:
            rows.append(self.I[sti, spi].reshape(sti.size, -1))
        base = self.builder.add_snap_rows(*rows)
        uid = base + np.arange(sti.size, dtype=np.int64)
        if targets.shape[1] == 1:
            self.builder.add_block(sti, spi, targets[:, 0], self._snap_kind, uid)
        else:
            self.builder.add_block(
                np.repeat(sti, k),
                np.repeat(spi, k),
                targets.reshape(-1),
                self._snap_kind,
                np.repeat(uid, k),
            )

    def send_pulls_block(
        self,
        sti: np.ndarray,
        spi: np.ndarray,
        targets: np.ndarray,
        counts: np.ndarray | None = None,
    ) -> None:
        """Bulk pull-request sends (unique senders, 1 byte each): one
        target per sender, or with *counts* sender i's next
        ``counts[i]`` entries of *targets*."""
        k = 1 if counts is None else counts
        self.sent[sti, spi] += k
        self.bytes_sent[sti, spi] += k
        if counts is not None:
            sti, spi = np.repeat(sti, counts), np.repeat(spi, counts)
        if self._any_omitted:
            keep = ~self.plan.omitted[sti, spi]
            if not keep.all():
                sti, spi, targets = sti[keep], spi[keep], targets[keep]
        if sti.size:
            self.builder.add_block(
                sti, spi, targets, KIND_PULL, np.full(sti.size, -1, dtype=np.int64)
            )

    def answer_pulls(self, due: np.ndarray) -> None:
        """Due answerers send a snapshot to each requester they were
        delivered, answerer-major and in delivery order within one —
        the order the scalar pass drains its mailboxes. Requests stay
        until their answerer acts; those of crashed answerers and of
        finished trials are dropped."""
        t, r, _ = self.asked
        now = due[t, r]
        ti, ri, si = self.asked[:, now]
        order = np.argsort(ti * self.n + ri, kind="stable")
        self.send_snapshots_grouped(
            ti[order], ri[order], si[order, None], unique_senders=False
        )
        waiting = ~now & self.live[t] & (self.status[t, r] != _CRASHED)
        self.asked = self.asked[:, waiting]

    # ------------------------------------------------------- step phases

    def _merge_due(self, due: np.ndarray) -> np.ndarray:
        """Drain pending payloads into K/I for due processes; return the
        learned mask (union taught an unknown bit — see kernels.py).
        Only processes delivered a payload since their last merge are
        touched: nobody else can learn."""
        learned = np.zeros_like(due)
        ti, pi = np.nonzero(due & self.has_pending)
        if ti.size == 0:
            return learned
        self.has_pending[ti, pi] = False
        idx = ti * self.n + pi
        flat_k = self.K.reshape(-1, self.W)
        flat_p = self.pend_g.reshape(-1, self.W)
        pend = flat_p[idx]
        learned_rows = (pend & ~flat_k[idx]).any(axis=1)
        if self.relational:
            flat_i = self.I.reshape(-1, self.n * self.W)
            flat_pi = self.pend_i.reshape(-1, self.n * self.W)
            pend_i = flat_pi[idx]
            learned_rows |= (pend_i & ~flat_i[idx]).any(axis=1)
            flat_i[idx] |= pend_i
            self.I[ti, pi, pi] |= pend
            flat_pi[idx] = 0
        flat_k[idx] |= pend
        flat_p[idx] = 0
        learned[ti, pi] = learned_rows
        return learned

    def _deliver(self) -> None:
        """Deliver every in-flight message arriving at a live trial's now."""
        due = self.pool.take_due(self.now, self.live)
        cast = due[2] == BROADCAST
        if cast.any():
            self._deliver_broadcasts(due[:, cast])
            due = due[:, ~cast]
        due = due[:, self.status[due[0], due[2]] != _CRASHED]  # crashed ones drop
        ti, si, ri, kind, uid, _ = due
        if ti.size == 0:
            return
        dest = ti * self.n + ri
        counts = np.bincount(dest, minlength=self.T * self.n)
        self.received += counts.reshape(self.T, self.n)
        if self.uses_pull:
            pulls = kind == KIND_PULL  # pool order == mailbox order
            self.asked = np.concatenate(
                [self.asked, np.stack([ti[pulls], ri[pulls], si[pulls]])], axis=1
            )
            snaps = ~pulls
            sdest, suid = dest[snaps], uid[snaps]
        else:
            sdest, suid = dest, uid
        self.has_pending.reshape(-1)[sdest] = True
        _scatter_or(
            self._pend_flat, self.pool.tables, sdest, suid, unique=counts.max() == 1
        )
        asleep = self.status.reshape(-1)[dest] == _ASLEEP
        if asleep.any():
            self._wake(dest[asleep])

    def _deliver_broadcasts(self, due: np.ndarray) -> None:
        """Deliver due broadcast entries, each one message to every pid
        but its sender: a correct receiver counts its trial's due
        broadcasts minus its own and, if that leaves any, takes the OR
        of the trial's snapshot rows — its own among them, which teach
        it nothing (knowledge only grows after a snapshot)."""
        T, n = self.T, self.n
        ti, si, _, _, uid, _ = due[:, np.argsort(due[0], kind="stable")]
        per_trial = np.bincount(ti, minlength=T)
        counts = np.repeat(per_trial, n) - np.bincount(ti * n + si, minlength=T * n)
        counts[self.status.reshape(-1) == _CRASHED] = 0  # crashed ones drop
        self.received += counts.reshape(T, n)
        recv = np.flatnonzero(counts)
        trials = np.flatnonzero(per_trial)
        starts = np.cumsum(per_trial[trials]) - per_trial[trials]
        for pend, table in zip(self._pend_flat, self.pool.tables):
            union = np.zeros((T, table.shape[1]), dtype=np.uint8)
            union[trials] = np.bitwise_or.reduceat(table[uid], starts, axis=0)
            pend[recv] |= union[recv // n]
        self.has_pending.reshape(-1)[recv] = True
        self._wake(recv[self.status.reshape(-1)[recv] == _ASLEEP])

    def _wake(self, woken: np.ndarray) -> None:
        """Wake sleeping receivers (flat grid indices) to act this step.
        A buffered fancy += counts a repeated index once: one wake per
        receiver per step however many messages arrive."""
        self.status.reshape(-1)[woken] = _AWAKE
        self.next_action.reshape(-1)[woken] = self.now[woken // self.n]
        self.wake_counts.reshape(-1)[woken] += 1

    def _local_pass(self) -> Wave | None:
        """Run every due process's local step; freeze the sends."""
        due = (
            self.live[:, None]
            & (self.status == _AWAKE)
            & (self.next_action == self.now[:, None])
        )
        if not due.any():
            return None
        learned = self._merge_due(due)
        self.builder = WaveBuilder()
        sleep = self.kernel.step(self, due, learned)
        movers = due & ~sleep
        if sleep.any():
            self.status[sleep] = _ASLEEP
            self.next_action[sleep] = _NEVER
            self.sleep_counts[sleep] += 1
            self.last_sleep[sleep] = np.broadcast_to(
                self.now[:, None], sleep.shape
            )[sleep]
        if movers.any():
            nxt = self.now[:, None] + self.plan.delta
            self.next_action[movers] = nxt[movers]
        wave = self.builder.build(self.now, self.plan.delta, self.plan.d)
        self.builder = None
        if wave is not None:
            self.pool.append(wave)
        return wave

    # ------------------------------------------------------------- driver

    def run(self) -> list[Outcome]:
        wave = self._local_pass()  # step 0: everyone acts
        self.plan.after_step(
            wave, self.status, self._crash, self.now, self.live, self.K
        )
        self.steps_sim += 1

        guard = 0
        while self.live.any():
            guard += 1
            if guard > self.max_steps + 70:
                raise SimulationError(
                    "batch kernel failed to converge (internal scheduling bug)"
                )
            # next_action is _NEVER exactly when a process is not awake
            # (sleep and crash set it, wake-up and moving on reset it).
            cand = self.next_action.min(axis=1)
            none_awake = cand >= _NEVER
            inflight = self.pool.fold_pending(self.status, cand)
            cand = np.minimum(cand, self.plan.sched_next)

            quiesced = self.live & none_awake & (inflight == 0)
            if quiesced.any():
                self.completed |= quiesced
                self.live &= ~quiesced
            exhausted = self.live & (cand >= _NEVER)
            if exhausted.any():
                self.completed |= exhausted
                self.live &= ~exhausted
            truncated = self.live & (cand > self.max_steps)
            if truncated.any():
                self.live &= ~truncated  # completed stays False; now frozen
            if not self.live.any():
                break

            self.now[self.live] = cand[self.live]
            self.plan.before_step(self.now, self.live, self.status, self._crash)
            self._deliver()
            wave = self._local_pass()
            self.plan.after_step(
                wave, self.status, self._crash, self.now, self.live, self.K
            )
            self.steps_sim[self.live] += 1

        return self._finalize()

    def _finalize(self) -> list[Outcome]:
        spec = self.spec
        outcomes = []
        for i, seed in enumerate(self.seeds):
            correct = self.status[i] != _CRASHED
            if self.completed[i]:
                sleeps = self.last_sleep[i][correct]
                if sleeps.size and (sleeps < 0).any():
                    raise SimulationError(
                        "batch quiescent run left a correct process "
                        "without a sleep record"
                    )
                t_end = int(sleeps.max()) if sleeps.size else 0
            else:
                t_end = int(self.now[i])
            correct_bits = np.packbits(correct)
            gathered = bool(self.completed[i]) and bool(
                ((self.K[i][correct] & correct_bits) == correct_bits).all()
            )
            crashed = tuple(int(p) for p in np.flatnonzero(~correct))
            outcomes.append(
                Outcome(
                    n=self.n,
                    f=self.f,
                    seed=int(seed),
                    protocol_name=spec.protocol,
                    adversary_name=spec.adversary,
                    completed=bool(self.completed[i]),
                    rumor_gathering_ok=gathered,
                    t_end=t_end,
                    max_local_step_time=int(self.plan.max_delta[i]),
                    max_delivery_time=int(self.plan.max_d[i]),
                    sent=self.sent[i].copy(),
                    received=self.received[i].copy(),
                    bytes_sent=self.bytes_sent[i].copy(),
                    crashed=crashed,
                    crash_steps={p: int(self.crash_step[i, p]) for p in crashed},
                    sleep_counts=self.sleep_counts[i].copy(),
                    wake_counts=self.wake_counts[i].copy(),
                    steps_simulated=int(self.steps_sim[i]),
                    strategy_label=self.plan.labels[i],
                    topology=self.topology,
                )
            )
        return outcomes


def run_cell(
    spec0: TrialSpec,
    seeds: Sequence[int],
    *,
    record_draws: bool = False,
) -> list[Outcome] | tuple[list[Outcome], ReplayPlane]:
    """Simulate every seed of *spec0*'s cell on the vectorized engine.

    With ``record_draws`` the replay plane logs every draw and is
    returned alongside the outcomes (draw-order property tests).
    """
    cell = _CellRun(spec0, seeds, record_draws)
    outcomes = cell.run()
    if record_draws:
        return outcomes, cell.plane
    return outcomes
