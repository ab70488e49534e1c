"""Vectorized protocol kernels replaying the scalar local-step logic.

Each kernel owns the per-(trial, process) protocol state (quiet
counters, pulled/pushed rows, has-sent flags) and implements one
``step(grid, due, learned)`` pass over the step's due mask, returning
the mask of processes that fall asleep. A pass is a fixed number of
array operations, no Python per process: state transitions are
vectorized, the *draws* of all due processes come from each one's own
replay generator in one ``plane.bounded`` call per draw position
(``np.nonzero`` on the due mask is row-major: trials ascending, pid
ascending — the scalar engine's heap-pop order for one step), and the
resulting send sets are registered as whole blocks
(``grid.send_snapshots_grouped`` / ``grid.send_pulls_block``).

**The candidate mask.** Every partner a process draws is the
``(draw + 1)``-th set bit of a boolean row over pids (:func:`_pick`),
and what varies between protocols and graphs is how that row is built:

- the pull family's is ``unknown & ~pulled`` for the request and
  ``~pushed`` for the eager push, bound = the row's popcount, draw
  order per process pull then push; its sends leave as three category
  blocks (answers — ``grid.answer_pulls`` — pull requests, pushes);
- a **reach mask**: off the clique ``grid.adj[ti, pi]``, the trial's
  adjacency row, is ANDed into both, which also closes the sleep rule
  (no reachable candidate left); push and ears, whose clique draw is
  the fixed bound ``N - 1`` shifted past the sender, pick over the
  adjacency row itself, bound = degree, as the scalar ``pick_other``
  indexes sorted neighbours. With ``grid.adj is None`` the clique path
  runs the array operations it always ran. A kernel whose every draw
  goes through such a row says ``topology = True``;
- a **pull width**: ``hedged-push-pull`` asks
  ``min(8, 1 + max(0, outstanding - 4))`` of its candidates at once,
  one ``Generator.choice(c, size=w, replace=False)`` that
  ``plane.sample`` replays on raw words; the requests leave
  sender-major in pick order, and a process sleeps when the picks
  cover every candidate.

SEARS alone still calls a ``Generator`` per sender (``choice``). flood
and round-robin never draw, so their cell runs never seed a replay
plane; an all-send (flood, SEARS at full fanout) is ``targets=None``,
one broadcast entry per sender. Those three address pids without a
mask, so off the clique they stay on the scalar engine.

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
from repro.protocols.bitset import packed_size
from repro.protocols.ears import ears_timeout
from repro.protocols.sears import DEFAULT_PATIENCE, sears_fanout

__all__ = [
    "BATCH_PROTOCOLS", "STATIC_TOPOLOGIES", "TOPOLOGY_PROTOCOLS", "make_kernel",
    "trial_bytes",
]


def _pick(g, ti, pi, avail, counts):
    """One uniform draw among each row's ``counts[i]`` set bits of
    ``avail[i]``; rows without a candidate draw nothing. Returns the
    drawing rows' (ti, pi) and the pid each picked — that of its
    (draw + 1)-th set bit."""
    some = counts > 0
    ti, pi, avail = ti[some], pi[some], avail[some]
    j = g.plane.bounded(ti, pi, counts[some])
    return ti, pi, (avail.cumsum(axis=1) <= j[:, None]).sum(axis=1)


def _draw_other_targets(g, sti, spi) -> np.ndarray:
    """One ``pick_other`` draw per sender; (S, 1) targets. Off the
    clique the scalar draw indexes the sender's sorted neighbours with
    bound = degree; no static graph family leaves a process isolated,
    so every row draws."""
    if g.adj is None:
        v = g.plane.bounded(sti, spi, g.n - 1)
        return (v + (v >= spi))[:, None]
    reach = g.adj[sti, spi]
    return _pick(g, sti, spi, reach, reach.sum(axis=1))[2][:, None]


class PushKernel:
    """``push``: one uniform target per step until patience runs out."""

    name = "push"
    relational = False
    uses_pull = False
    topology = True

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
    topology = True
    push = False
    #: Most pull requests a process sends per step; a kernel that
    #: raises it supplies ``_pull_wide``.
    max_width = 1

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
        # Sends leave as three blocks: answers, pull requests, eager
        # pushes. Per-sender relative order (answers -> pull -> push)
        # survives the split, and cross-sender order is only observable
        # within a category (answerers see pulls in delivery order, the
        # survivor scan sees each sender's own subsequence) — so the
        # wave stays scalar-ordered everywhere it matters.
        g.answer_pulls(due)
        known = np.unpackbits(g.K[dti, dpi], axis=1, count=g.n).astype(bool)
        asked = self.pulled[dti, dpi]
        avail = ~known
        avail &= ~asked
        reach = None
        if g.adj is not None:  # unknown but unreachable: nobody to ask
            reach = g.adj[dti, dpi]
            avail &= reach
        counts = avail.sum(axis=1)
        if self.max_width == 1:
            sleep[dti, dpi] = counts <= 1  # covered, or this pull covers it
            ti, pi, targets = _pick(g, dti, dpi, avail, counts)
            g.send_pulls_block(ti, pi, targets)
            self.pulled[ti, pi, targets] = True
        else:
            silent = (asked & ~known).sum(axis=1)  # before this step's pulls
            sleep[dti, dpi], ti, pi = self._pull_wide(
                g, dti, dpi, avail, counts, silent
            )
        if self.push:  # only those that pulled draw again
            avail = ~self.pushed[ti, pi]
            if reach is not None:
                avail &= reach[counts > 0]
            ti, pi, targets = _pick(g, ti, pi, avail, avail.sum(axis=1))
            g.send_snapshots_grouped(ti, pi, targets[:, None])
            self.pushed[ti, pi, targets] = True
        return sleep


class PushPullKernel(PullKernel):
    """``push-pull``: pull's request plus one eager push per step."""

    name = "push-pull"
    push = True


class HedgedPushPullKernel(PushPullKernel):
    """``hedged-push-pull``: push-pull whose pull widens by one for each
    outstanding request (asked, still unknown) beyond ``rtt_allowance``,
    up to ``max_width`` distinct candidates per step."""

    name = "hedged-push-pull"
    max_width = 8
    rtt_allowance = 4

    def _pull_wide(self, g, ti, pi, avail, counts, silent):
        """Each row asks ``min(width, counts[i])`` candidates, sampled
        without replacement in one ``choice``; the block leaves
        sender-major in pick order. Returns the sleep verdicts (the
        picks covered every candidate) and the rows that pulled."""
        wide = np.minimum(
            1 + np.maximum(0, silent - self.rtt_allowance), self.max_width
        )
        some = counts > 0
        ti, pi, avail = ti[some], pi[some], avail[some]
        widths = np.minimum(wide, counts)[some]
        picks = g.plane.sample(ti, pi, counts[some], widths)
        drawn = picks >= 0
        rows, _ = np.nonzero(drawn)  # row-major: sender, then pick order
        targets = (avail.cumsum(axis=1)[rows] <= picks[drawn][:, None]).sum(axis=1)
        g.send_pulls_block(ti, pi, targets, widths)
        self.pulled[ti[rows], pi[rows], targets] = True
        return counts <= wide, ti, pi


class _RelationalKernel:
    """Shared EARS/SEARS machinery: quiet counters, the two-stage
    completion rule (dissemination proof, then give-up), relational
    ``(G, I)`` snapshots."""

    relational = True
    uses_pull = False
    topology = False
    patience: int
    give_up: int

    def __init__(self, n: int, f: int, T: int):
        self.quiet = np.zeros((T, n), dtype=np.int64)
        self.has_sent = np.zeros((T, n), dtype=bool)
        #: The dissemination proof failed on the ``(K, I)`` the process
        #: holds now; cleared when it learns.
        self.unproven = np.zeros((T, n), dtype=bool)

    def _sleepers(self, g, due):
        """Scalar rule: has_sent and quiet >= patience and (dissemination
        provably complete or a further give_up steps of silence).

        A candidate sat out ``patience >= 1`` quiet steps, so its
        ``(K, I)`` is what it was when the proof last ran: the (S, N, W)
        containment check runs once per state of knowledge, not once
        per step."""
        cand = due & self.has_sent & (self.quiet >= self.patience)
        sleep = cand & (self.quiet >= self.patience + self.give_up)
        cti, cpi = np.nonzero(cand & ~sleep & ~self.unproven)
        if cti.size == 0:
            return sleep
        gb = g.K[cti, cpi]  # (S, W) each candidate's gossip row
        rel = g.I[cti, cpi]  # (S, N, W) each candidate's relation
        contains = ((rel & gb[:, None, :]) == gb[:, None, :]).all(axis=2)
        known = np.unpackbits(gb, axis=1, count=g.n).astype(bool)
        done = (contains | ~known).all(axis=1)
        sleep[cti, cpi] = done
        self.unproven[cti, cpi] = ~done
        return sleep

    def step(self, g, due, learned):
        fresh = due & learned
        self.quiet[fresh] = 0
        self.unproven[fresh] = False
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
    topology = True

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
    topology = False

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
    topology = False

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
        HedgedPushPullKernel,
        EarsKernel,
        SearsKernel,
    )
}
#: Protocols with a vectorized kernel (what eligibility accepts).
BATCH_PROTOCOLS = tuple(_KERNELS)
#: Those whose every partner draw goes through :func:`_pick`, so an
#: adjacency row in the candidate mask replays them off the clique.
TOPOLOGY_PROTOCOLS = tuple(name for name, k in _KERNELS.items() if k.topology)
#: Graph families the reach mask holds: bound once per trial at setup
#: and symmetric from then on (``dynamic:*`` is neither).
STATIC_TOPOLOGIES = ("ring", "random-regular", "expander")


def make_kernel(protocol: str, n: int, f: int, T: int):
    """The vectorized kernel for *protocol*, sized for a (T, n) grid."""
    try:
        cls = _KERNELS[protocol]
    except KeyError:
        raise SimulationError(
            f"no vectorized kernel for protocol {protocol!r}"
        ) from None
    return cls(n, f, T)


def trial_bytes(protocol: str, n: int) -> int:
    """Roughly what one trial of a cell holds at its peak, from the two
    things that decide it: N and whether snapshots carry the relation.
    A process's snapshot row is W bytes, or (1 + N) * W with ``I``; a
    trial keeps 2N of them as state and pending grids, up to ~4N more
    in the in-flight table under the delay strategies (N=500 EARS: 2000
    rows of 31.5 KB per trial), and the merge's gathered copies. On top
    come the (N, N) bool tables: the pull family's ``pulled`` and
    ``pushed``, and the adjacency a cell off the clique may hold."""
    kernel = _KERNELS[protocol]
    row = packed_size(n) * (1 + n if kernel.relational else 1)
    tables = kernel.topology + (1 + kernel.push if kernel.uses_pull else 0)
    return max(1, 8 * n * row + tables * n * n)  # N < 1 is the engine's to reject
