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

The plane holds a (trial × process) matrix of real
``numpy.random.Generator`` objects seeded exactly like ``bind`` seeds
them, and (SEARS's fanout ``choice`` apart) never calls their draw
methods. It prefetches each generator's *raw* PCG64 output with
``bit_generator.random_raw`` into a (T, n, 2·BLOCK) buffer of 32-bit
words with a (T, n) cursor and replays numpy's draws on those words as
array arithmetic, so a pass costs a fixed number of array operations
whatever its bounds and a ``Generator`` is touched only on refill:

- :meth:`ReplayPlane.bounded` is ``integers(high)`` with one bound per
  row — push, ears, the pull family's data-dependent candidate-set
  sizes, degrees off the clique;
- :meth:`ReplayPlane.sample` is ``choice(c, size=w, replace=False)``
  with one ``(c, w)`` per row — hedged-push-pull's pull width — which
  numpy draws as ``2w - 1`` of those same bounded draws: Floyd's
  sampling, then a shuffle of the picks. The generators it drew from
  go on to ``bounded`` for the push.

The numpy facts that make both exact (docs/BACKENDS.md, "Bounded draws
from raw words" and "Sampling without replacement from raw words")
carry no cross-version guarantee, so the engine checks them once per
process before it builds its first plane
(:func:`check_stream_contract`) and declines loudly.

With ``record=True`` every draw is logged per (trial, process), from
the same arrays the production path returns — the seeded draw-order
property test (``tests/backends/test_draw_order.py``) compares these
logs against a recording proxy wrapped around the scalar engine's
generators.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.sim.rng import RandomSource

__all__ = [
    "ReplayPlane", "RecordingGenerator", "adversary_stream", "check_stream_contract",
]


def adversary_stream(seed: int) -> np.random.Generator:
    """One trial's ``stream("adversary")`` generator, as the engine seeds it."""
    return RandomSource(seed).stream("adversary")


class ReplayPlane:
    """Per-(trial, process) generator matrix mirroring ``bind``'s seeding.

    A plane's generators must be driven through :meth:`bounded` and
    :meth:`sample` (which is ``bounded`` calls) only, or through
    :meth:`choice` only (SEARS): a refill advances a generator past the
    draws consumed so far, which would corrupt any interleaved call on
    the ``Generator`` itself.
    """

    #: 64-bit outputs fetched per refill, i.e. 2*BLOCK buffered 32-bit
    #: words per generator — a couple of patience windows, so
    #: over-fetch stays cheap.
    BLOCK = 16

    __slots__ = ("n", "gens", "log", "_buf", "_pos")

    def __init__(self, seeds: Sequence[int], n: int, *, record: bool = False):
        self.n = n
        self.gens: list[list[np.random.Generator]] = []
        for seed in seeds:
            stream = RandomSource(seed).stream("protocol")
            per_process = stream.integers(0, 2**63 - 1, size=n)
            self.gens.append([np.random.default_rng(int(s)) for s in per_process])
        #: Prefetched 32-bit words in consumption order; per generator,
        #: how many are consumed.
        self._buf = np.zeros((len(seeds), n, 2 * self.BLOCK), dtype=np.uint64)
        self._pos = np.full((len(seeds), n), 2 * self.BLOCK, dtype=np.int64)
        #: ``log[t][p]`` is the draw sequence of process p in trial t,
        #: entries ("integers", high, value) / ("choice", high, size,
        #: values); None unless *record*.
        self.log: list[list[list[tuple]]] | None = (
            [[[] for _ in range(n)] for _ in seeds] if record else None
        )

    def bounded(self, ti, pi, high) -> np.ndarray:
        """One ``Generator.integers(high[i])`` draw (``1 <= high <= 2**32``,
        a scalar or one bound per row) for each (ti[i], pi[i]) — distinct
        generators — replayed on the prefetched words.

        numpy's draw is Lemire's: value ``(word * high) >> 32``, the word
        rejected while ``(word * high) & 0xFFFFFFFF < (2**32 - high) %
        high`` — rare (about ``high / 2**32``) but replayed exactly, one
        more pass over just those rows. ``high == 1`` is 0 and consumes
        no word.
        """
        high = np.asarray(high, dtype=np.uint64)
        if high.ndim == 0:
            high = np.full(ti.shape, high)
        values = np.zeros(ti.shape, dtype=np.int64)
        rows = np.flatnonzero(high > 1)
        while rows.size:
            t, p, h = ti[rows], pi[rows], high[rows]
            pos = self._pos[t, p]
            empty = np.flatnonzero(pos == 2 * self.BLOCK)
            if empty.size:
                te, pe = t[empty], p[empty]
                raw = np.array(
                    [
                        self.gens[i][j].bit_generator.random_raw(self.BLOCK)
                        for i, j in zip(te.tolist(), pe.tolist())
                    ]
                )
                # 32-bit draws take the low half of each output first.
                halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=2)
                self._buf[te, pe] = halves.reshape(empty.size, -1)
                pos[empty] = 0
            m = self._buf[t, p, pos] * h
            self._pos[t, p] = pos + 1
            values[rows] = m >> 32
            left = m & 0xFFFFFFFF
            again = np.flatnonzero(left < h)  # numpy's cheap bound on the threshold
            if again.size:
                h = h[again]
                again = again[left[again] < (2**32 - h) % h]
            rows = rows[again]
        if self.log is not None:
            for t, p, h, v in zip(
                ti.tolist(), pi.tolist(), high.tolist(), values.tolist()
            ):
                self.log[t][p].append(("integers", h, v))
        return values

    def sample(self, ti, pi, counts, widths) -> np.ndarray:
        """One ``Generator.choice(counts[i], size=widths[i], replace=False)``
        draw (``1 <= widths[i] <= counts[i]``) for each (ti[i], pi[i]) —
        distinct generators — as ``2 * widths[i] - 1`` :meth:`bounded`
        draws: numpy samples with Floyd's algorithm (for ``j`` from
        ``c - w`` to ``c - 1`` draw ``v < j + 1`` and take ``j`` if ``v``
        was already taken, else ``v``) and then shuffles the ``w`` picks
        (for ``i`` from ``w - 1`` down to 1 swap pick ``i`` with pick
        ``bounded(i + 1)``). Returns the picks in that final order, one
        row each, padded with -1 to the widest row.
        """
        log, self.log = self.log, None  # one "choice" entry, not its words
        picks = np.full((ti.size, int(widths.max(initial=0))), -1, dtype=np.int64)
        for k in range(picks.shape[1]):
            rows = np.flatnonzero(widths > k)
            j = counts[rows] - widths[rows] + k
            v = self.bounded(ti[rows], pi[rows], j + 1)
            taken = (picks[rows, :k] == v[:, None]).any(axis=1)
            picks[rows, k] = np.where(taken, j, v)
        for i in range(picks.shape[1] - 1, 0, -1):
            rows = np.flatnonzero(widths > i)
            other = self.bounded(ti[rows], pi[rows], i + 1)
            mine = picks[rows, i]
            picks[rows, i] = picks[rows, other]
            picks[rows, other] = mine
        self.log = log
        if log is not None:
            for t, p, c, w, row in zip(
                ti.tolist(), pi.tolist(), counts.tolist(), widths.tolist(),
                picks.tolist(),
            ):
                log[t][p].append(("choice", c, w, tuple(row[:w])))
        return picks

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


@functools.cache  # a pass is remembered, a mismatch raises every time
def check_stream_contract() -> None:
    """Compare :meth:`ReplayPlane.bounded` with ``Generator.integers`` on
    a throw-away generator across a refill: word order, scaling, the
    rejection rule (``3 * 2**30`` rejects a quarter of its words), the
    free ``high == 1``. Then, on the same generator, :meth:`ReplayPlane.
    sample` with ``Generator.choice``, an ``integers`` draw after each:
    Floyd's order, its collision rule (9-choose-8 collides on this
    stream), the shuffle pass, ``w == c``, the one-pick draw that is a
    plain ``integers``. ``Generator`` streams may change between numpy
    versions; a mismatch sends this process's batches to the scalar
    engine rather than produce different outcomes."""
    highs = [6, 1, 3 * 2**30, 2, 2**32, 1, 47, 2**31 + 1] * 5
    plane, reference = ReplayPlane([0], 1), ReplayPlane([0], 1).gens[0][0]
    at = np.zeros(1, dtype=np.int64)
    got = [int(plane.bounded(at, at, high)[0]) for high in highs]
    want = [int(reference.integers(high)) for high in highs]
    cases = [(9, 8), (5, 5), (220, 3), (1, 1), (12, 8), (7, 2)]
    for c, w in cases if got == want else ():  # sample stands on bounded
        got += plane.sample(at, at, np.array([c]), np.array([w]))[0].tolist()
        got.append(int(plane.bounded(at, at, 47)[0]))
        want += reference.choice(c, size=w, replace=False).tolist()
        want.append(int(reference.integers(47)))
    if got != want:
        raise SimulationError(
            f"numpy {np.__version__}: Generator.integers / Generator.choice do "
            "not draw the way the batch replay plane replays them (32-bit "
            "Lemire on PCG64 raw words, low half first; Floyd's sampling, "
            "then a shuffle)"
        )


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
