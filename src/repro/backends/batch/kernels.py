"""Vectorized protocol kernels replaying the scalar local-step logic.

Each kernel owns the per-(trial, process) protocol state (quiet
counters, pulled/pushed rows, has-sent flags) and implements one
``step(grid, due, learned)`` pass over the step's due mask, returning
the mask of processes that fall asleep. State transitions are
vectorized; the *draws* go through the acting process's own replay
generator in scalar draw order (``np.nonzero`` on the due mask is
row-major: trials ascending, pid ascending — the scalar engine's
heap-pop order for one step), and the resulting send sets are
registered as whole blocks (``grid.send_snapshots_grouped`` /
``grid.send_pulls_block``). push and ears gather a pass's draws from
the plane's prefetch buffer in one fancy index; the pull family's draw
bounds are data-dependent (candidate-set sizes), so it draws one
``Generator`` call at a time and emits its sends as three category
blocks (answers, pull requests, eager pushes). flood and round-robin
never draw, so their cell runs never seed a replay plane; an all-send
(flood, SEARS at full fanout) is ``targets=None``, one broadcast entry
per sender.

Knowledge-merge bookkeeping note: the grids merge pending payloads
with a single OR per drain and compute ``learned`` as "the pending
union contains an unknown bit" *before* merging. The scalar engine
merges message-by-message and ORs each ``context.learned_something``.
These are equivalent: a bit is new to the union iff it is new to at
least one message, and the scalar relational own-row merge
(``I[own] |= G_payload`` when the payload taught something) reduces to
an unconditional OR because the own row always contains ``K`` — so no
observable state differs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import SimulationError
from repro.protocols.ears import ears_timeout
from repro.protocols.sears import DEFAULT_PATIENCE, sears_fanout

__all__ = ["BATCH_PROTOCOLS", "make_kernel"]


def _draw_other_targets(g, sti, spi) -> np.ndarray:
    """One ``pick_other`` draw per sender; (S, 1) targets.

    Uses the plane's prefetched-block path: push and ears draw nothing
    but uniform ``integers(n-1)`` from their generators, the one case
    where block prefetch is stream-exact (see ReplayPlane).
    """
    v = g.plane.prefetched_integers(sti, spi, g.n - 1)
    return (v + (v >= spi))[:, None]


class PushKernel:
    """``push``: one uniform target per step until patience runs out."""

    name = "push"
    relational = False
    uses_pull = False

    def __init__(self, n: int, f: int, T: int):
        self.patience = math.ceil(2 * math.log2(max(2, n))) + 4
        self.quiet = np.zeros((T, n), dtype=np.int64)

    def step(self, g, due, learned):
        self.quiet[due & learned] = 0
        self.quiet[due & ~learned] += 1
        sleep = due & (self.quiet >= self.patience)
        sti, spi = np.nonzero(due & ~sleep)
        if sti.size:
            g.send_snapshots_grouped(sti, spi, _draw_other_targets(g, sti, spi))
        return sleep


class PullKernel:
    """``pull``: answer requesters, then request from one unpulled unknown."""

    name = "pull"
    relational = False
    uses_pull = True
    push = False

    def __init__(self, n: int, f: int, T: int):
        eye = np.arange(n)
        self.pulled = np.zeros((T, n, n), dtype=bool)
        self.pulled[:, eye, eye] = True
        if self.push:
            self.pushed = np.zeros((T, n, n), dtype=bool)
            self.pushed[:, eye, eye] = True

    def step(self, g, due, learned):
        sleep = np.zeros_like(due)
        dti, dpi = np.nonzero(due)
        if dti.size == 0:
            return sleep
        # Candidate sets for the whole pass at once; the per-row draw
        # then lands on the j-th set bit via the cumulative counts
        # (searchsorted), replacing a flatnonzero per process.
        known = np.unpackbits(g.K[dti, dpi], axis=1, count=g.n).astype(bool)
        avail = ~known
        avail &= ~self.pulled[dti, dpi]
        counts = avail.sum(axis=1)
        cum = avail.cumsum(axis=1)
        if self.push:
            avail_push = ~self.pushed[dti, dpi]
            push_counts = avail_push.sum(axis=1).tolist()
            cum_push = avail_push.cumsum(axis=1)
        plane = g.plane
        if plane.log is None:
            gens = plane.gens

            def draw(t: int, p: int, high: int) -> int:
                return int(gens[t][p].integers(high))

        else:
            draw = plane.integers
        requesters = g.requesters
        tl, pl = dti.tolist(), dpi.tolist()
        count_list = counts.tolist()
        # Sends are collected per category and emitted as three blocks:
        # answers, pull requests, eager pushes. Per-sender relative
        # order (answers -> pull -> push) survives the split, and
        # cross-sender order is only observable within a category
        # (requester queues see pulls, the survivor scan sees each
        # sender's own subsequence) — so the wave stays scalar-ordered
        # everywhere it matters.
        a_t: list[int] = []; a_p: list[int] = []; a_r: list[int] = []
        q_t: list[int] = []; q_p: list[int] = []; q_r: list[int] = []
        b_t: list[int] = []; b_p: list[int] = []; b_r: list[int] = []
        s_t: list[int] = []; s_p: list[int] = []
        for i in range(len(tl)):
            t, p = tl[i], pl[i]
            if requesters:
                reqs = requesters.pop((t, p), None)
                if reqs:
                    for requester in reqs:
                        a_t.append(t); a_p.append(p); a_r.append(requester)
            count = count_list[i]
            if count == 0:
                s_t.append(t); s_p.append(p)
                continue
            target = int(cum[i].searchsorted(draw(t, p, count) + 1))
            q_t.append(t); q_p.append(p); q_r.append(target)
            self.pulled[t, p, target] = True
            if self.push:
                push_count = push_counts[i]
                if push_count:
                    tgt = int(
                        cum_push[i].searchsorted(draw(t, p, push_count) + 1)
                    )
                    b_t.append(t); b_p.append(p); b_r.append(tgt)
                    self.pushed[t, p, tgt] = True
            if count == 1:  # the pull just consumed the last candidate
                s_t.append(t); s_p.append(p)
        if a_t:
            g.send_snapshots_grouped(
                np.asarray(a_t), np.asarray(a_p),
                np.asarray(a_r)[:, None], unique_senders=False,
            )
        if q_t:
            g.send_pulls_block(np.asarray(q_t), np.asarray(q_p), np.asarray(q_r))
        if b_t:
            g.send_snapshots_grouped(
                np.asarray(b_t), np.asarray(b_p), np.asarray(b_r)[:, None]
            )
        if s_t:
            sleep[s_t, s_p] = True
        return sleep


class PushPullKernel(PullKernel):
    """``push-pull``: pull's request plus one eager push per step."""

    name = "push-pull"
    push = True


class _RelationalKernel:
    """Shared EARS/SEARS machinery: quiet counters, the two-stage
    completion rule (dissemination proof, then give-up), relational
    ``(G, I)`` snapshots."""

    relational = True
    uses_pull = False
    patience: int
    give_up: int

    def __init__(self, n: int, f: int, T: int):
        self.quiet = np.zeros((T, n), dtype=np.int64)
        self.has_sent = np.zeros((T, n), dtype=bool)

    def _sleepers(self, g, due):
        """Scalar rule: has_sent and quiet >= patience and (dissemination
        provably complete or a further give_up steps of silence)."""
        sleep = np.zeros_like(due)
        cand = due & self.has_sent & (self.quiet >= self.patience)
        cti, cpi = np.nonzero(cand)
        if cti.size == 0:
            return sleep
        gb = g.K[cti, cpi]  # (S, W) each candidate's gossip row
        rel = g.I[cti, cpi]  # (S, N, W) each candidate's relation
        contains = ((rel & gb[:, None, :]) == gb[:, None, :]).all(axis=2)
        known = np.unpackbits(gb, axis=1, count=g.n).astype(bool)
        done = (contains | ~known).all(axis=1)
        done |= self.quiet[cti, cpi] >= self.patience + self.give_up
        sleep[cti[done], cpi[done]] = True
        return sleep

    def step(self, g, due, learned):
        self.quiet[due & learned] = 0
        self.quiet[due & ~learned] += 1
        sleep = self._sleepers(g, due)
        senders = due & ~sleep
        sti, spi = np.nonzero(senders)
        if sti.size:
            g.send_snapshots_grouped(sti, spi, self._targets(g, sti, spi))
        self.has_sent[senders] = True
        return sleep


class EarsKernel(_RelationalKernel):
    """``ears``: one uniform relational send per step."""

    name = "ears"

    def __init__(self, n: int, f: int, T: int):
        super().__init__(n, f, T)
        self.patience = ears_timeout(n, f)
        self.give_up = n

    def _targets(self, g, sti, spi):
        return _draw_other_targets(g, sti, spi)


class SearsKernel(_RelationalKernel):
    """``sears``: a ``~sqrt(N) log N`` fanout of relational sends per step."""

    name = "sears"

    def __init__(self, n: int, f: int, T: int):
        super().__init__(n, f, T)
        self.fanout = sears_fanout(n)
        self.patience = DEFAULT_PATIENCE
        self.give_up = -(-n // self.fanout)

    def _targets(self, g, sti, spi):
        k = self.fanout
        if k >= g.n - 1:  # everyone else, ascending, no draw: a broadcast
            return None
        n1 = g.n - 1
        out = np.empty((sti.size, k), dtype=np.int64)
        plane = g.plane
        if plane.log is not None:
            for i in range(sti.size):
                p = int(spi[i])
                picks = plane.choice(int(sti[i]), p, n1, k)
                out[i] = picks + (picks >= p)  # draw order is send order
            return out
        gens = plane.gens
        tl, pl = sti.tolist(), spi.tolist()
        row, cur = None, -1
        for i in range(len(tl)):
            t = tl[i]
            if t != cur:
                row, cur = gens[t], t
            p = pl[i]
            picks = row[p].choice(n1, size=k, replace=False)
            out[i] = picks + (picks >= p)
        return out


class FloodKernel:
    """``flood``: one all-send (a broadcast entry), then sleep."""

    name = "flood"
    relational = False
    uses_pull = False

    def __init__(self, n: int, f: int, T: int):
        self.done = np.zeros((T, n), dtype=bool)

    def step(self, g, due, learned):
        sti, spi = np.nonzero(due & ~self.done)
        if sti.size:
            g.send_snapshots_grouped(sti, spi, None)  # one broadcast each
        self.done[due] = True
        return due.copy()  # flood always sleeps after acting


class RoundRobinKernel:
    """``round-robin``: ring walk, then sleep."""

    name = "round-robin"
    relational = False
    uses_pull = False

    def __init__(self, n: int, f: int, T: int):
        self.sent_count = np.zeros((T, n), dtype=np.int64)

    def step(self, g, due, learned):
        sleep = due & (self.sent_count >= g.n - 1)
        senders = due & ~sleep
        sti, spi = np.nonzero(senders)
        if sti.size:
            targets = (spi + 1 + self.sent_count[sti, spi]) % g.n
            g.send_snapshots_grouped(sti, spi, targets[:, None])
        self.sent_count[senders] += 1
        return sleep | (senders & (self.sent_count >= g.n - 1))


_KERNELS = {
    k.name: k
    for k in (
        FloodKernel,
        RoundRobinKernel,
        PushKernel,
        PullKernel,
        PushPullKernel,
        EarsKernel,
        SearsKernel,
    )
}
#: Protocols with a vectorized kernel (what eligibility accepts).
BATCH_PROTOCOLS = tuple(_KERNELS)


def make_kernel(protocol: str, n: int, f: int, T: int):
    """The vectorized kernel for *protocol*, sized for a (T, n) grid."""
    try:
        cls = _KERNELS[protocol]
    except KeyError:
        raise SimulationError(
            f"no vectorized kernel for protocol {protocol!r}"
        ) from None
    return cls(n, f, T)
