"""The RNG replay plane: scalar draw order, reproduced draw-for-draw.

The scalar engine gives each protocol a private stream
(``RandomSource(seed).stream("protocol")``) from which
:meth:`~repro.protocols.base.GossipProtocol.bind` derives one
independent substream *per process*. Every protocol draw —
``pick_other``, candidate-index picks, ``pick_others`` fanouts — comes
from the acting process's own generator and from nowhere else. That
per-process isolation is the paper's §IV-A indistinguishability
device, and it is also what makes exact vectorized replay possible at
all: the *interleaving* of draws across processes (which the batch
engine schedules differently) cannot perturb any sequence, so the
replay plane only has to issue each (trial, process) generator the
same method calls in the same per-process order as the scalar engine
— which the protocol kernels do by construction, replaying each local
step's draws for exactly the processes that are due.

The plane therefore holds a (trial × process) matrix of real
``numpy.random.Generator`` objects seeded exactly like ``bind`` seeds
them, advanced draw-by-draw. A draw whose bound depends on the
process's state (pull's candidate-set sizes, push-pull's two-draw
sequence) is one scalar Python call — the price of exactness, still
far cheaper than a whole scalar local step, which is where the
randomized kernels' ≥5× floor comes from. Where every draw on a
generator is the same ``integers(high)`` (push, ears) the plane
prefetches BLOCK draws per generator into a (T, n, BLOCK) buffer with
a (T, n) cursor: a pass gathers its draws in one fancy index and only
a refill calls a ``Generator``.

With ``record=True`` every draw is logged per (trial, process) — the
seeded draw-order property test (``tests/backends/test_draw_order.py``)
compares these logs against a recording proxy wrapped around the
scalar engine's generators.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sim.rng import RandomSource

__all__ = ["ReplayPlane", "RecordingGenerator", "adversary_stream"]


def adversary_stream(seed: int) -> np.random.Generator:
    """One trial's ``stream("adversary")`` generator, as the engine seeds it."""
    return RandomSource(seed).stream("adversary")


class ReplayPlane:
    """Per-(trial, process) generator matrix mirroring ``bind``'s seeding."""

    #: Draws prefetched per generator by :meth:`prefetched_integers`.
    #: numpy's bounded-integer fill consumes the bit stream exactly like
    #: the same number of scalar ``integers(high)`` calls (pinned by
    #: ``tests/backends/test_draw_order.py``), so a block costs one
    #: Generator call instead of ~32 — sized to a couple of patience
    #: windows so over-fetch stays cheap.
    BLOCK = 32

    __slots__ = ("n", "gens", "log", "_buf", "_pos")

    def __init__(self, seeds: Sequence[int], n: int, *, record: bool = False):
        self.n = n
        self.gens: list[list[np.random.Generator]] = []
        for seed in seeds:
            stream = RandomSource(seed).stream("protocol")
            per_process = stream.integers(0, 2**63 - 1, size=n)
            self.gens.append([np.random.default_rng(int(s)) for s in per_process])
        #: Prefetched draws; per generator, how many are consumed.
        self._buf = np.zeros((len(seeds), n, self.BLOCK), dtype=np.int64)
        self._pos = np.full((len(seeds), n), self.BLOCK, dtype=np.int64)
        #: ``log[t][p]`` is the draw sequence of process p in trial t,
        #: entries ("integers", high, value) / ("choice", high, size,
        #: values); None unless *record*.
        self.log: list[list[list[tuple]]] | None = (
            [[[] for _ in range(n)] for _ in seeds] if record else None
        )

    def prefetched_integers(self, ti, pi, high: int) -> np.ndarray:
        """One :meth:`integers` draw for each (ti[i], pi[i]) — distinct
        generators — gathered from per-generator prefetched blocks.

        Only safe for kernels whose *every* draw on these generators is
        a uniform ``integers(high)`` with one fixed bound (push, ears):
        prefetching advances a generator past the draws consumed so
        far, which would corrupt any interleaved differently-shaped
        draw. The pull family therefore never touches this path.
        """
        pos = self._pos[ti, pi]
        for j in np.flatnonzero(pos == self.BLOCK).tolist():
            t, p = int(ti[j]), int(pi[j])
            self._buf[t, p] = self.gens[t][p].integers(high, size=self.BLOCK)
            pos[j] = 0
        values = self._buf[ti, pi, pos]
        self._pos[ti, pi] = pos + 1
        if self.log is not None:
            for t, p, v in zip(ti.tolist(), pi.tolist(), values.tolist()):
                self.log[t][p].append(("integers", int(high), v))
        return values

    def integers(self, t: int, p: int, high: int) -> int:
        """One ``Generator.integers(high)`` draw of process *p* in trial *t*."""
        value = int(self.gens[t][p].integers(high))
        if self.log is not None:
            self.log[t][p].append(("integers", int(high), value))
        return value

    def choice(self, t: int, p: int, high: int, size: int) -> np.ndarray:
        """One ``Generator.choice(high, size, replace=False)`` draw.

        Returned order is the draw order — SEARS sends in it.
        """
        picks = self.gens[t][p].choice(high, size=size, replace=False)
        if self.log is not None:
            self.log[t][p].append(
                ("choice", int(high), int(size), tuple(int(x) for x in picks))
            )
        return picks


class RecordingGenerator:
    """Proxy around a scalar-engine generator logging draws in the
    plane's entry format. Test-only: wraps ``sim.protocol.rngs[p]``."""

    __slots__ = ("_gen", "log")

    def __init__(self, gen: np.random.Generator, log: list[tuple]):
        self._gen = gen
        self.log = log

    def integers(self, high) -> int:
        value = int(self._gen.integers(high))
        self.log.append(("integers", int(high), value))
        return value

    def choice(self, high, size=None, replace=True) -> np.ndarray:
        picks = self._gen.choice(high, size=size, replace=replace)
        self.log.append(
            ("choice", int(high), int(size), tuple(int(x) for x in picks))
        )
        return picks
