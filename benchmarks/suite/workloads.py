"""Seeded workload generator: the only place trial specs come from.

A *cell* is one (protocol, adversary, topology, N) with
``f = max(1, round(0.3 N))``; a *submission* is one ``run_trials`` call
on one cell's seed block; a *round* is every cell of the workload
submitted once per client. The cell lists and N grids are fixed (later
issues cite them); only seed counts scale. ``--seed`` moves the trial
seeds, the per-round cell order and the oracle sample — the program
only ever sees the generated ``TrialSpec`` lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.experiments.config import TrialSpec

__all__ = ["Cell", "Submission", "Workload", "WORKLOADS", "SMOKE_BLOCK"]

#: Seeds per submission at ``--smoke`` scale (results non-comparable).
SMOKE_BLOCK = 2

#: Warm-up trials use seeds from here up; workload seeds stay below.
_WARMUP_SEED = 1 << 31
_WARMUP_TRIALS = 2


@dataclass(frozen=True, slots=True)
class Cell:
    protocol: str
    adversary: str
    n: int
    topology: str | None = None
    #: Fraction of the workload's seed block this cell is given.
    share: float = 1.0

    @property
    def f(self) -> int:
        return max(1, round(0.3 * self.n))

    @property
    def kind(self) -> tuple[str, str, str | None]:
        return (self.protocol, self.adversary, self.topology)

    def block(self, block: int) -> int:
        return max(1, round(block * self.share))

    def specs(self, seeds) -> list[TrialSpec]:
        return [
            TrialSpec(
                protocol=self.protocol,
                adversary=self.adversary,
                n=self.n,
                f=self.f,
                seed=seed,
                topology=self.topology,
            )
            for seed in seeds
        ]


@dataclass(frozen=True, slots=True)
class Submission:
    #: ``r<round>.c<client>.<position>`` — shared by the submission's
    #: latency sample, its trace span and its layer replays.
    sid: str
    cell: Cell
    seeds: tuple[int, ...]

    def specs(self) -> list[TrialSpec]:
        return self.cell.specs(self.seeds)


def _grid(protocols, adversaries, ns, topology=None, share=1.0) -> list[Cell]:
    return [
        Cell(p, a, n, topology, share)
        for p in protocols
        for a in adversaries
        for n in ns
    ]


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    why: str
    cells: tuple[Cell, ...]
    #: Seeds per submission.
    block: int
    #: What one round takes on the sizing box; with ``--seconds`` it
    #: fixes how many rounds a run measures (see ``rounds_for``).
    round_seconds: float
    #: Rounds the timed phase never goes below (>=100 submissions) and
    #: rounds the traced phase runs.
    min_rounds: int = 1
    trace_rounds: int = 1
    #: ``cold``: local campaign, one client, fresh seeds every round.
    #: ``replay``: daemon, every round re-requests the primed seed block.
    #: ``shared``: daemon, two clients, fresh seeds, half of every cell shared.
    pattern: str = "cold"
    #: Local ``Campaign(workers=...)``; None keeps the library default.
    workers: int | None = None

    @property
    def service(self) -> bool:
        """Whether the workload runs against the daemon."""
        return self.pattern != "cold"

    @property
    def clients(self) -> int:
        return 2 if self.pattern == "shared" else 1

    def scaled(self, block: int) -> "Workload":
        return replace(self, block=block)

    def rounds_for(self, seconds: float) -> int:
        """Rounds a run of ``--seconds`` measures.

        Fixed by the arguments, not by the clock: the first round of a
        process pays first-touch costs per cell (~15 % on
        cold_batch_rand), so runs that fit one round and runs that fit
        two are not comparable, and a host that speeds up mid-series
        must not change which kind a run is.
        """
        return max(self.min_rounds, int(seconds / self.round_seconds))

    # -- generation ------------------------------------------------------------

    def _rng(self, seed: int, stream: str) -> random.Random:
        # str seeds hash through sha512: stable across runs and versions.
        return random.Random(f"{self.name}/{seed}/{stream}")

    def _base(self, seed: int) -> int:
        return self._rng(seed, "base").randrange(1 << 16, 1 << 30)

    def round(
        self, seed: int, r: int, block: int, only: "frozenset[Cell] | None" = None
    ) -> list[list[Submission]]:
        """Round *r* as one submission list per client, optionally
        restricted to the cells in *only*.

        Cell order is a seeded shuffle shared by the clients of a round,
        so on ``shared`` both walk the same cells at the same time and
        the daemon's in-flight dedup is exercised, not just its store.
        """
        order = [cell for cell in self.cells if only is None or cell in only]
        self._rng(seed, f"order{r}").shuffle(order)
        # In units of a cell's own block B: on ``shared`` client A takes
        # [0, 2B) and client B [B, 3B), so B of every 4B requested
        # trials are shared and the daemon's shared fraction is 1/4.
        starts = [(0, 1), (1, 2)] if self.pattern == "shared" else [(0,)]
        blocks_per_round = {"cold": 1, "replay": 0, "shared": 3}[self.pattern]
        base = self._base(seed)
        clients: list[list[Submission]] = []
        for c, client_starts in enumerate(starts):
            subs: list[Submission] = []
            for cell in order:
                b = cell.block(block)
                for start in client_starts:
                    lo = base + (r * blocks_per_round + start) * b
                    subs.append(
                        Submission(f"r{r}.c{c}.{len(subs)}", cell, tuple(range(lo, lo + b)))
                    )
            clients.append(subs)
        return clients

    def prime(self, seed: int, block: int) -> list[Submission]:
        """What the store holds before a ``replay`` workload starts."""
        if self.pattern != "replay":
            return []
        base = self._base(seed)
        return [
            Submission(f"prime.{i}", cell, tuple(range(base, base + cell.block(block))))
            for i, cell in enumerate(self.cells)
        ]

    def warmup(self) -> list[Submission]:
        """One small submission per cell kind at its smallest N, on
        seeds no round uses: imports, numpy and pool spawn happen here,
        so ``cold`` means cold store, not cold interpreter."""
        smallest: dict[tuple, Cell] = {}
        for cell in self.cells:
            seen = smallest.get(cell.kind)
            if seen is None or cell.n < seen.n:
                smallest[cell.kind] = cell
        seeds = tuple(range(_WARMUP_SEED, _WARMUP_SEED + _WARMUP_TRIALS))
        return [
            Submission(f"warmup.{i}", cell, seeds)
            for i, cell in enumerate(smallest.values())
        ]

    def spec_order(self, sub: Submission) -> tuple:
        """Sort key putting submissions in the cell list's order, so a
        digest does not depend on how a round was shuffled."""
        return (self.cells.index(sub.cell), sub.seeds)

    def sample(self, seed: int, items: list, k: int, stream: str) -> list:
        """A seeded sample of *k* items (all of them when fewer)."""
        if len(items) <= k:
            return list(items)
        return self._rng(seed, stream).sample(items, k)


_RAND = _grid(
    ("push", "pull", "push-pull", "ears"),
    ("none", "str-1", "ugf"),
    (10, 20, 30, 40, 50, 60, 70, 80, 100),
)
_DET = _grid(
    ("flood", "round-robin"),
    ("none", "str-1", "ugf", "oblivious", "omission"),
    range(20, 201, 20),
)
_SCALAR_NS = (20, 30, 40, 50, 60, 70, 80, 100)
_SCALAR = (
    _grid(("push-pull", "ears", "push", "pull"), ("informed", "greedy-oracle"), _SCALAR_NS)
    + _grid(("hedged-push-pull",), ("none", "ugf", "str-1"), _SCALAR_NS)
    + [
        cell
        for topology in ("ring:2", "random-regular:4", "expander")
        for cell in _grid(("push-pull",), ("ugf",), _SCALAR_NS, topology)
    ]
)
_WARM = _grid(
    ("flood", "round-robin", "push", "push-pull"), ("none", "str-1", "ugf"), (10, 20, 30)
)
# Coordinator trials cost ~15x a flood trial on the scalar engine; a
# tenth of the seed block keeps engine time under 40% of the wall, so
# the per-trial service machinery stays what this workload measures.
_SHARED = _grid(
    ("flood",), ("none", "str-1", "oblivious", "omission"), (10, 20, 30)
) + _grid(("coordinator",), ("none", "ugf"), (10, 20, 30), share=0.1)

# Seed counts are sized on a 2-core box so one round fits the 10 s run
# the contract allows (114 runs in 3420 s); see README.md for the
# anchors the issue measured at larger blocks.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cold_batch_rand",
            why="Figure-3 family cold through the randomized wave engine and RNG "
            "replay plane; scalar engine, pool and service do nothing.",
            cells=tuple(_RAND),
            block=5,
            round_seconds=8.0,
        ),
        Workload(
            name="cold_batch_det",
            why="Deterministic kernels (legacy.py) at N up to 200, where to_wire and "
            "store append are a visible share; bypasses the randomized engine.",
            cells=tuple(_DET),
            block=16,
            round_seconds=8.0,
        ),
        Workload(
            name="cold_scalar",
            why="Cells only the scalar engine can run (informed, greedy-oracle, "
            "hedged, off-clique) through the 2-worker pool; batch backend idle.",
            cells=tuple(_SCALAR),
            block=3,
            round_seconds=8.0,
            workers=2,
        ),
        Workload(
            name="svc_warm",
            why="Daemon over a primed sharded store larger than its memo: keys, "
            "framing, socket, seek-reads, stream-back, from_wire; no engine runs.",
            cells=tuple(_WARM),
            block=120,
            round_seconds=0.8,
            min_rounds=3,
            trace_rounds=2,
            pattern="replay",
        ),
        Workload(
            name="svc_cold_shared",
            why="Two clients, near-free trials, a quarter shared: admission, in-flight "
            "dedup, routing, to_wire, store append+fsync; the write side of svc_warm.",
            cells=tuple(_SHARED),
            block=50,
            round_seconds=1.0,
            min_rounds=2,
            trace_rounds=2,
            pattern="shared",
        ),
    )
}
