"""The harness's own contracts, one row of ``GATES`` each.

``PYTHONPATH=src python -m benchmarks.gates [NAME ...]`` measures the named
rows (no name: every row, what CI's ``bench-smoke`` job runs, ~2 min), prints
one line per row — reading, bound, verdict, what the bound protects — with
the readings that are reported but not gated indented beneath it, and exits 1
if any row fails.

Figure 3's grid and the Theorem 1 checks are affordable only while these
hold: the batch engine justifies re-implementing the simulation semantics
beside the scalar oracle *only* through its speedup; the sanitizer's
``counters`` preset, the metrics registry, the supervisor and the resilient
service client are meant to be left on for every long campaign, so each must
collapse to near-nothing on the happy path; a warm daemon hit that cost more
than a few dozen milliseconds would be slower than recomputing a small trial
locally. Each bound is a contract, not a curiosity.

Every reading is a ratio of two timings taken in one process on one machine
(or a latency two orders under its bound), so unlike the absolute rates the
repo benchmark records (``benchmarks/suite``) the bounds are portable across
hardware and hold on a loaded runner. Two statistics:

- *paired overhead* (the four ceilings in percent): time every setting in
  interleaved rounds and gate on the **minimum per-round ratio** to the
  first (baseline) setting. Settings alternate within each round so ambient
  load drift hits all of them; one scheduler-quiet round is enough to prove
  an overhead low, whereas a true regression inflates every round's ratio.
- *best of R* (the two speedup floors, the latency ceiling): the best rate
  or shortest round trip over R interleaved repeats, so one quiet repeat per
  side suffices; a floor gates the worst cell of its set.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
import tempfile
import time
from functools import partial
from typing import Callable

from repro.backends import BatchBackend, ScalarBackend, why_ineligible
from repro.campaign import Campaign
from repro.chaos.supervisor import Supervisor
from repro.core.registry import make_adversary
from repro.experiments.config import TrialSpec, f_fraction
from repro.obs import MetricsRegistry
from repro.protocols.registry import make_protocol
from repro.service import ServiceClient
from repro.service.client import DEFAULT_RETRY_POLICY
from repro.service.server import ServiceThread
from repro.sim.engine import simulate

#: What a row's ``measure`` returns: the gated number, then lines reported but not gated.
Reading = tuple[float, list[str]]

# ---- paired overhead: metrics, supervisor, sanitizer ----------------------------------------

#: One representative attacked trial (paper scale F = 0.3 N).
TRIAL = {"protocol": "push-pull", "adversary": "ugf", "n": 100, "f": 30}

#: Sanitizer setting -> ``sanitize=`` value. ``full`` adds an O(N) knowledge
#: scan per local step and is expected to be visibly slower: reported, not gated.
SANITIZE = {"off": None, "counters": "warn:counters", "full": "warn"}
#: Seeds per timing and rounds of the sanitizer row. Its true cost (+7...+10 %)
#: sits just under the 10 % bound, and one round's ratio scatters about 8
#: points around it on a shared 2-core box: at the other rows' 3 seeds (0.2 s a
#: timing) and 5 rounds the quietest round still read over the bound one run in
#: seven; at 12 seeds, one in thirty; at 12 seeds and 10 rounds, none in thirty.
SANITIZER_SEEDS, SANITIZER_ROUNDS = 12, 10


def measure_rounds(run_once, settings, seeds: int, repeats: int) -> "list[tuple[float, ...]]":
    """Wall time of ``run_once(setting, seeds)``, one column per setting, per round."""
    rounds = []
    for _ in range(repeats + 1):
        times = []
        for setting in settings:
            start = time.perf_counter()
            run_once(setting, seeds)
            times.append(time.perf_counter() - start)
        rounds.append(tuple(times))
    return rounds[1:]  # the first round pays imports and lazy set-up, mostly in the baseline


def paired_overhead_pct(rounds, column: int = 1) -> float:
    """The gated number: min over rounds of (setting / baseline - 1), as percent."""
    return 100.0 * (min(r[column] / r[0] for r in rounds) - 1.0)


def paired(run_once, settings, count: int = 3, repeats: int = 5) -> Reading:
    """Overhead of ``settings[1]`` over ``settings[0]`` running *count* units per timing."""
    rounds = measure_rounds(run_once, settings, count, repeats)
    notes = [
        f"{setting}: {min(r[column] for r in rounds) / count * 1e3:.2f} ms each, best of {repeats}"
        + (f"; {paired_overhead_pct(rounds, column):+.1f} %, reported not gated" if column > 1 else "")
        for column, setting in enumerate(settings)
    ]
    return paired_overhead_pct(rounds), notes


def _trial(seed: int, **engine) -> None:
    simulate(
        make_protocol(TRIAL["protocol"]),
        make_adversary(TRIAL["adversary"]),
        n=TRIAL["n"],
        f=TRIAL["f"],
        seed=seed,
        **engine,
    )


def run_metrics(setting: str, seeds: int) -> None:
    for seed in range(seeds):
        _trial(seed, metrics=MetricsRegistry() if setting == "on" else False)


def run_sanitizer(setting: str, seeds: int) -> None:
    for seed in range(seeds):
        _trial(seed, sanitize=SANITIZE[setting])


def run_supervisor(setting: str, seeds: int) -> None:
    # In-memory, cache-off, inline: every timing executes the same work, and
    # the only difference between settings is the supervisor wrapper itself.
    with Campaign(cache_dir=None, workers=1, use_cache=False) as campaign:
        specs = [TrialSpec(seed=seed, **TRIAL) for seed in range(seeds)]
        if setting == "supervised":
            run = Supervisor(campaign).run_trials(specs)
            assert run.verdict == "clean"
        else:
            results = campaign.run_trials(specs)
            assert all(r.ok for r in results)


# ---- speedup floors: batch-deterministic, batch-randomized ---------------------------------

#: Representative zero-draw cells: the per-step unicast worst case and the
#: one-burst flood best case, both at paper scale F = 0.3 N, each in unit
#: timing and retimed by UGF — every batch cell runs the one wave engine, so
#: the floor has to hold on both.
CELLS = (
    {"protocol": "round-robin", "adversary": "str-1", "n": 48},
    {"protocol": "flood", "adversary": "oblivious", "n": 64},
    {"protocol": "flood", "adversary": "ugf", "n": 64},
    {"protocol": "round-robin", "adversary": "ugf", "n": 48},
)

#: Representative randomized cells: uniform-push under a static and an
#: adaptive adversary, both relational kernels under the UGF / its hardest
#: probe (ears x ugf is the top cell of the repo benchmark's
#: `cold_batch_rand`), and the pull family under the UGF. The kernels that
#: draw pay for draw-exactness with T x N seeded generators and a replay of
#: every draw, so they cannot match the zero-draw kernels' floor and carry
#: their own.
RANDOMIZED_CELLS = (
    {"protocol": "push", "adversary": "str-1", "n": 48},
    {"protocol": "push", "adversary": "ugf", "n": 48},
    {"protocol": "sears", "adversary": "str-2.1.1", "n": 32},
    {"protocol": "ears", "adversary": "ugf", "n": 48},
    {"protocol": "pull", "adversary": "ugf", "n": 48},
    {"protocol": "push-pull", "adversary": "ugf", "n": 48},
    # The observer plans (mid-run hooks reading live state): the probe that
    # commits to 2.1.0 under the costliest kernel, and the per-step argmax.
    {"protocol": "ears", "adversary": "informed", "n": 48},
    {"protocol": "push-pull", "adversary": "greedy-oracle", "n": 48},
    # The candidate mask: a pull width sampled without replacement on raw
    # words, and an adjacency row ANDed into every candidate set.
    {"protocol": "hedged-push-pull", "adversary": "ugf", "n": 48},
    {"protocol": "push-pull", "adversary": "ugf", "n": 48, "topology": "expander"},
)


def specs_for(cell: dict, trials: int) -> list[TrialSpec]:
    return [TrialSpec(f=f_fraction(cell["n"], 0.3), seed=seed, **cell) for seed in range(trials)]


def measure_speedup(
    cell: dict, *, scalar_trials: int = 24, batch_trials: int = 256, repeats: int = 3
) -> "tuple[float, float, float]":
    """Best-of-*repeats* (scalar rate, batch rate, speedup) for *cell*.

    Rates are trials/second; the speedup divides the two best rates,
    so one scheduler-quiet round per backend suffices.
    """
    scalar, batch = ScalarBackend(), BatchBackend()
    scalar_specs = specs_for(cell, scalar_trials)
    batch_specs = specs_for(cell, batch_trials)
    for spec in batch_specs:
        reason = why_ineligible(spec)
        if reason is not None:
            raise RuntimeError(f"gated cell not batch-eligible: {reason}")
    best_scalar = best_batch = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        scalar.run_batch(scalar_specs)
        best_scalar = max(best_scalar, scalar_trials / (time.perf_counter() - t0))
        t0 = time.perf_counter()
        batch.run_batch(batch_specs)
        best_batch = max(best_batch, batch_trials / (time.perf_counter() - t0))
    return best_scalar, best_batch, best_batch / best_scalar


def worst_speedup(cells) -> Reading:
    """The smallest batch-vs-scalar speedup over *cells*; every cell's is reported."""
    measured = [measure_speedup(cell) for cell in cells]
    notes = [
        f"{cell['protocol']} vs {cell['adversary']} (N={cell['n']}{', ' + cell['topology'] if 'topology' in cell else ''}): "
        f"scalar {scalar:.1f}/s, batch {batch:.1f}/s, speedup {speedup:.1f}x"
        for cell, (scalar, batch, speedup) in zip(cells, measured)
    ]
    return min(speedup for _, _, speedup in measured), notes


# ---- the daemon: retry-policy (paired overhead), warm-hit (latency ceiling) -----------------

#: Cheap representative trials: the round trip, not the simulation, must
#: dominate a warm hit, so small cells keep the signal clean.
BATCH = 16
#: Warm hits per timing: one sub-millisecond round trip is too short to ratio.
TRIPS = 50


def _specs(count: int) -> list[TrialSpec]:
    return [TrialSpec(protocol="flood", adversary="none", n=8, f=2, seed=seed) for seed in range(count)]


def _seconds(call, *args) -> float:
    start = time.perf_counter()
    call(*args)
    return time.perf_counter() - start


@contextlib.contextmanager
def live_service():
    """A real daemon on a unix socket over a primed store, and the two
    clients the retry-policy row compares: ``plain`` has no retry loop at all,
    ``resilient`` is what every ServiceCampaign runs by default."""
    with tempfile.TemporaryDirectory(prefix="gates-service-") as root:
        campaign = Campaign(cache_dir=f"{root}/cache", workers=0)
        host = ServiceThread(campaign, unix_path=f"{root}/svc.sock")
        host.start()
        clients = {}
        try:
            clients["plain"] = ServiceClient(host.url, timeout=120).connect()
            clients["resilient"] = ServiceClient(
                host.url, timeout=120, retry_policy=DEFAULT_RETRY_POLICY
            ).connect()
            replies = clients["plain"].submit(_specs(BATCH))  # prime the store
            assert all(r.wire is not None for r in replies)
            yield clients
        finally:
            for client in clients.values():
                client.close()
            host.stop()


def warm_hits(clients, setting: str, trips: int = 1) -> None:
    """*trips* warm single-trial round trips through one of the two clients."""
    for _ in range(trips):
        (reply,) = clients[setting].submit(_specs(1))
        assert reply.status == "hit", reply.status


def warm_batch(clients) -> None:
    replies = clients["plain"].submit(_specs(BATCH))
    assert all(r.status == "hit" for r in replies)


def retry_policy() -> Reading:
    with live_service() as clients:
        return paired(partial(warm_hits, clients), ("plain", "resilient"), count=TRIPS, repeats=20)


def warm_hit(repeats: int = 20) -> Reading:
    """Shortest warm single-trial round trip in ms (client submit -> daemon
    store hit -> outcome frame back); a warm batch is reported beside it."""
    with live_service() as clients:
        singles, batches = [], []
        for _ in range(repeats):
            singles.append(_seconds(warm_hits, clients, "plain"))
            batches.append(_seconds(warm_batch, clients))
    batch_ms = min(batches) * 1e3
    return min(singles) * 1e3, [
        f"warm batch of {BATCH}: {batch_ms:.2f} ms ({batch_ms / BATCH:.2f} ms/trial), best of {repeats}"
    ]


# ---- the table ------------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Gate:
    name: str
    protects: str  #: what the harness may rely on while the bound holds
    measure: Callable[[], Reading]
    bound: float
    kind: str  #: which side of the bound fails: above a "ceiling", below a "floor"
    unit: str  #: format of a reading and of the bound


PCT, TIMES, MS = "{:+.1f} %", "{:.1f}x", "{:.2f} ms"

GATES = {
    row.name: row
    for row in (
        Gate("metrics", "a live metrics registry can stay on for a whole campaign (the engine on TRIAL)",
             partial(paired, run_metrics, ("off", "on")), 5.0, "ceiling", PCT),
        Gate("supervisor", "a Supervisor with no fault plan armed can wrap every campaign (TRIAL, inline)",
             partial(paired, run_supervisor, ("plain", "supervised")), 5.0, "ceiling", PCT),
        Gate("sanitizer", "the §II-model sanitizer's counters preset can stay on (TRIAL; full is reported)",
             partial(paired, run_sanitizer, tuple(SANITIZE), SANITIZER_SEEDS, SANITIZER_ROUNDS), 10.0, "ceiling", PCT),
        Gate("retry-policy", "the resilient client's reconnect loop is never a tax on a warm hit",
             retry_policy, 5.0, "ceiling", PCT),
        Gate("batch-deterministic", "the wave engine earns its copy of the semantics: worst zero-draw cell vs scalar",
             partial(worst_speedup, CELLS), 10.0, "floor", TIMES),
        Gate("batch-randomized", "the same for the kernels that replay every draw: worst cell vs scalar",
             partial(worst_speedup, RANDOMIZED_CELLS), 5.0, "floor", TIMES),
        Gate("warm-hit", "a warm daemon hit is cheaper than recomputing a small trial locally",
             warm_hit, 25.0, "ceiling", MS),
    )
}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.gates", description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help=f"rows to measure (default: all): {', '.join(GATES)}")
    names = parser.parse_args(argv).names or list(GATES)
    unknown = [name for name in names if name not in GATES]
    if unknown:
        parser.error(f"no such row: {', '.join(unknown)} (rows: {', '.join(GATES)})")
    failed = []
    for gate in map(GATES.get, names):
        reading, notes = gate.measure()
        fails = reading > gate.bound if gate.kind == "ceiling" else reading < gate.bound
        if fails:
            failed.append(gate.name)
        bound = f"{gate.kind} {gate.unit.format(gate.bound).lstrip('+')}"
        verdict = "FAIL" if fails else "ok"
        print(f"{gate.name:<20}{gate.unit.format(reading):>9}  {bound:<17}{verdict:<5} {gate.protects}", flush=True)
        for note in notes:
            print(f"    {note}")
    if failed:
        print(f"FAIL: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
