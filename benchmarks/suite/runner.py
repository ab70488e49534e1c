"""Run one workload: set-up, closed-loop rounds, output check, metrics.

Load is closed-loop from this one process: each client (a thread when
there are two) sends its next submission only after the previous one
returned. ``--seconds`` fixes how many whole rounds a run measures, so
every run of a workload does the same work on the same cell mix. Every
time is divided by the host's measured slowdown around it
(hostclock.py); raw values stay in the run's ``detail``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import tempfile
import threading
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from repro.campaign import Campaign, TrialStore, spec_fingerprint, trial_key
from repro.campaign.keys import KEY_VERSION
from repro.experiments.runner import run_trial
from repro.service import ServiceCampaign
from repro.sim.outcome import WIRE_VERSION

from benchmarks.suite import procs
from benchmarks.suite.hostclock import HostClock
from benchmarks.suite.procs import SuiteError
from benchmarks.suite.trace import Tracer
from benchmarks.suite.workloads import SMOKE_BLOCK, Submission, Workload

__all__ = ["E2E_UNITS", "REPORTED_UNITS", "ROOT", "SRC_DIR", "Round", "RunResult", "Sample", "Stage", "run_workload"]

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC_DIR = ROOT / "src"
_DIGESTS = pathlib.Path(__file__).with_name("digests.json")

#: Scratch lives inside the checkout (the contract forbids writing
#: anywhere else); .gitignore names it.
TMP_ROOT = ROOT / ".bench_tmp"

#: Specs per untraced run re-run through the scalar oracle.
ORACLE_SAMPLE = 16

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Reference-kernel ticks averaged at each end of a two-client round.
_ROUND_TICKS = 3

E2E_UNITS = {
    "kmsg_per_s": "kmsg/s",
    "submit_p50_ms": "ms",
    "cpu_s_per_mmsg": "s/Mmsg",
    "setup_s": "s",
}

#: Computed like the bounded ones and written to every results.json,
#: but too seed-dependent to carry a bound (see ``timings``; peak RSS
#: read 55-92 MB over twenty seeds of cold_batch_rand).
REPORTED_UNITS = {
    "trials_per_s": "trials/s",
    "cpu_s_per_ktrial": "s/ktrial",
    "submit_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass(slots=True)
class Sample:
    """One finished submission."""

    submission: Submission
    seconds: float
    results: list
    #: Host slowdown across the submission (1.0 = reference speed).
    host: float = 1.0
    span: int | None = None

    @property
    def host_seconds(self) -> float:
        return self.seconds / self.host


@dataclass(slots=True)
class Round:
    samples: list[Sample]
    #: Wall time the program was given, reference-kernel ticks excluded.
    wall: float
    host_wall: float

    @property
    def trials(self) -> int:
        return sum(len(s.results) for s in self.samples)


@dataclass(slots=True)
class RunResult:
    workload: str
    seed: int
    traced: bool
    smoke: bool
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict[str, Any]]
    detail: dict[str, Any] = field(default_factory=dict)

    def record(self) -> dict[str, Any]:
        return asdict(self)

    def contract_line(self) -> str:
        """The one JSON object the driver reads from the last stdout line."""
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in self.metrics.items()
                },
            }
        )


class Stage:
    """Everything a workload runs against: a local campaign, or a
    daemon subprocess plus one fresh ``ServiceCampaign`` per round."""

    def __init__(self, workload: Workload, seed: int, run_dir: pathlib.Path):
        self.workload = workload
        self.seed = seed
        self.block = workload.block
        self.run_dir = run_dir
        self.clock = HostClock()
        self.campaign: Campaign | None = None
        self.daemon: procs.Daemon | None = None
        self.fallback_warnings: list[str] = []
        self._primed: list[tuple] = []
        self._setups = 0

    # -- set-up ----------------------------------------------------------------

    def prepare(self) -> None:
        """One-off part of set-up: compute what a primed store holds."""
        subs = self.workload.prime(self.seed, self.block)
        if not subs:
            return
        specs = [spec for sub in subs for spec in sub.specs()]
        with Campaign(cache_dir=None, workers=0) as campaign:
            results = campaign.run_trials(specs)
        if not all(r.ok for r in results):
            raise SuiteError("priming trials failed")
        self._primed = [
            (trial_key(s), spec_fingerprint(s), r.outcome) for s, r in zip(specs, results)
        ]

    def setup(self) -> None:
        """Repeatable part: store, daemon or pool, warm-up."""
        tag = f"s{self._setups}"
        self._setups += 1
        w = self.workload
        if w.service:
            self.daemon = procs.Daemon(self.run_dir, SRC_DIR, tag)
            try:
                if self._primed:
                    with TrialStore(self.daemon.cache_dir, backend="sharded") as store:
                        store.put_many(self._primed)
                self.daemon.wait_ready()
            except BaseException:
                self.daemon.kill()
                raise
        else:
            self.campaign = Campaign(
                cache_dir=self.run_dir / f"{tag}-cache", backend="auto", workers=w.workers
            )
        with self._watch_fallbacks(), self.session() as campaign:
            for sub in w.warmup():
                if not all(r.ok for r in campaign.run_trials(sub.specs())):
                    raise SuiteError(f"warm-up failed on {sub.cell}")

    def teardown(self) -> None:
        if self.campaign is not None:
            self.campaign.close()
            self.campaign = None
        if self.daemon is not None:
            daemon, self.daemon = self.daemon, None
            daemon.stop()

    # -- clients ---------------------------------------------------------------

    @contextlib.contextmanager
    def _watch_fallbacks(self):
        """ServiceCampaign degrades to local execution with a single
        RuntimeWarning; that must count as failure, not vanish."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                yield
            finally:
                self.fallback_warnings += [
                    str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)
                ]

    def session(self):
        """What one client submits through for one round."""
        if self.daemon is not None:
            return ServiceCampaign(self.daemon.url, cache_dir=None, workers=0)
        return contextlib.nullcontext(self.campaign)

    def _mean_tick_factor(self) -> float:
        self.clock.sync()
        return statistics.fmean(self.clock.advance() for _ in range(_ROUND_TICKS))

    def run_round(
        self, r: int, tracer: Tracer | None = None, only: frozenset | None = None
    ) -> Round:
        """Round *r* (or just its cells in *only*), closed-loop.

        A lone client times the reference kernel after every submission;
        two clients would fight it for the interpreter lock, so their
        round is calibrated at its two ends instead.
        """
        clients = self.workload.round(self.seed, r, self.block, only)
        batches = [[(sub, sub.specs()) for sub in subs] for subs in clients]
        samples: list[list[Sample]] = [[] for _ in clients]
        errors: list[BaseException] = []
        alone = len(batches) == 1
        parent = None
        if tracer:
            parent = tracer.add("round", time.perf_counter(), None, submission=f"r{r}")

        def client(c: int) -> None:
            try:
                with self.session() as campaign:
                    if alone:
                        self.clock.sync()
                    for sub, specs in batches[c]:
                        t0 = time.perf_counter()
                        results = campaign.run_trials(specs)
                        t1 = time.perf_counter()
                        sample = Sample(sub, t1 - t0, results)
                        if alone:
                            sample.host = self.clock.advance()
                        if tracer:
                            sample.span = tracer.add(
                                "submit", t0, t1, parent=parent, submission=sub.sid, host=sample.host
                            )
                        samples[c].append(sample)
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)

        wall = host = 0.0
        with self._watch_fallbacks():
            if alone:
                client(0)
            else:
                before = self._mean_tick_factor()
                start = time.perf_counter()
                threads = [threading.Thread(target=client, args=(c,)) for c in range(len(batches))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                wall = time.perf_counter() - start
                host = (before + self._mean_tick_factor()) / 2
        if errors:
            raise errors[0]
        if self.daemon is not None:
            self.daemon.check_alive()
        flat = [s for per_client in samples for s in per_client]
        if alone:
            wall = sum(s.seconds for s in flat)
            host_wall = sum(s.host_seconds for s in flat)
        else:
            host_wall = wall / host
            for s in flat:
                s.host = host
                if tracer:
                    tracer.spans[s.span]["host"] = host
        if tracer:
            tracer.spans[parent]["end"] = time.perf_counter()
        return Round(flat, wall, host_wall)


# -- output check ----------------------------------------------------------------


def _wire_text(outcome) -> str:
    return json.dumps(outcome.to_wire())


def outcomes_digest(outcomes) -> str:
    """sha256 over outcome wires, one JSON line each."""
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(_wire_text(outcome).encode())
        h.update(b"\n")
    return h.hexdigest()


def pinned_key() -> str:
    return f"wire{WIRE_VERSION}.key{KEY_VERSION}"


def pinned_digests(workload: str, seed: int, block: int) -> dict[str, str] | None:
    """Pinned per-round digests, or None when nothing is pinned for
    this (wire version, key version, seed, block)."""
    try:
        pinned = json.loads(_DIGESTS.read_text())
    except OSError:
        return None
    entry = pinned.get(pinned_key(), {}).get(workload)
    if entry is None or entry["seed"] != seed or entry["block"] != block:
        return None
    return entry["rounds"]


def check_outputs(
    stage: Stage, rounds: list[Round], *, oracle_sample: int = ORACLE_SAMPLE, pinned: bool = True
) -> dict[str, Any]:
    """(a) every result ok (and cached on ``replay``), (b) a seeded
    sample re-run through the scalar oracle matches byte-for-byte,
    (c) per-round digests match the pinned ones where *pinned* rounds
    are what ran (the traced run's rounds are not)."""
    w = stage.workload
    flat = [result for round_ in rounds for s in round_.samples for result in s.results]
    no_outcome = sum(1 for r in flat if not r.ok)
    not_cached = (
        sum(1 for r in flat if r.ok and not r.cached) if w.pattern == "replay" else 0
    )
    oracle_mismatch = 0
    picked = w.sample(stage.seed, [r for r in flat if r.ok], oracle_sample, "oracle")
    for result in picked:
        if _wire_text(run_trial(result.spec)) != _wire_text(result.outcome):
            oracle_mismatch += 1
    digests = [
        None
        if no_outcome
        else outcomes_digest(
            r.outcome
            for s in sorted(round_.samples, key=lambda s: w.spec_order(s.submission))
            for r in s.results
        )
        for round_ in rounds
    ]
    wanted = pinned_digests(w.name, stage.seed, stage.block) if pinned else None
    verdicts = []
    for r, digest in enumerate(digests):
        # Every replay round asks for the same primed trials.
        want = None if wanted is None else wanted.get("0" if w.pattern == "replay" else str(r))
        verdicts.append("unpinned" if want is None else "ok" if want == digest else "MISMATCH")
    return {
        "no_outcome": no_outcome,
        "not_cached": not_cached,
        "oracle_checked": len(picked),
        "oracle_mismatch": oracle_mismatch,
        "digests": digests,
        "digest_verdicts": verdicts,
        "ok": not (no_outcome or not_cached or oracle_mismatch or "MISMATCH" in verdicts),
    }


# -- the run -----------------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    return float(np.quantile(values, q))


def timings(
    seconds: list[float], messages: int, wall: float, cpu: float, trials: int
) -> dict[str, float]:
    """Every time-derived figure of a run, from per-submission seconds
    and simulated messages.

    Rates are per simulated message, not per trial: how long a trial
    runs depends on the strategy UGF draws for its seed (x5 within one
    cell), so trials/s swings 12-27 % from seed to seed on
    cold_batch_rand while the messages explain 95 % of that swing. No
    tail percentile is bounded: the p90 of ~108 cells of very different
    size lands on the gap between the ugf x large-N cells and the rest
    and jumps across it (29 % spread over ten seeds, 7 % for repeats of
    one seed), and no smoothing of it was steady on every workload. The
    per-trial figures and the p90 are still reported.
    """
    return {
        "kmsg_per_s": messages / wall / 1e3,
        "submit_p50_ms": quantile(seconds, 0.5) * 1e3,
        "cpu_s_per_mmsg": cpu / messages * 1e6,
        "trials_per_s": trials / wall,
        "cpu_s_per_ktrial": cpu / trials * 1e3,
        "submit_p90_ms": quantile(seconds, 0.9) * 1e3,
    }


def _metric(value: float, unit: str, samples: int | None = None) -> dict[str, Any]:
    m: dict[str, Any] = {"value": value, "unit": unit}
    if samples is not None:
        m["samples"] = samples
    return m


def run_workload(
    workload: Workload,
    *,
    seed: int,
    seconds: float,
    traced: bool,
    smoke: bool = False,
    out_dir: pathlib.Path | None = None,
) -> RunResult:
    # Metrics and the sanitizer are instrumentation a user's shell may
    # have left on; the benchmark measures the program with both off.
    os.environ.pop("REPRO_METRICS", None)
    os.environ.pop("REPRO_SANITIZE", None)
    if not pathlib.Path("/proc/self/stat").exists():
        raise SuiteError("the suite needs Linux /proc for CPU accounting")
    if smoke:
        workload = workload.scaled(SMOKE_BLOCK)
    TMP_ROOT.mkdir(exist_ok=True)
    run_dir = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=TMP_ROOT))
    stage = Stage(workload, seed, run_dir)
    try:
        if traced:
            from benchmarks.suite.layers import run_traced

            result = run_traced(stage, smoke=smoke, out_dir=out_dir)
        else:
            result = _run_untraced(stage, seconds, smoke=smoke)
    finally:
        try:
            stage.teardown()
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    leaked = procs.descendants()
    if leaked:
        raise SuiteError(f"child processes survived the run: {leaked}")
    return result


def timed_setups(stage: Stage, count: int) -> tuple[float, dict[str, Any]]:
    """Set up *count* times, keep the last; returns ``setup_s`` — the
    one-off preparation plus the median repeatable set-up, host-
    normalised — and the raw times."""
    clock = stage.clock
    clock.sync()
    t0 = time.perf_counter()
    stage.prepare()
    prepare_s = time.perf_counter() - t0
    prepare_host = clock.advance()
    repeats, hosts = [], []
    for i in range(count):
        if i:
            stage.teardown()
            clock.sync()
        t0 = time.perf_counter()
        stage.setup()
        repeats.append(time.perf_counter() - t0)
        hosts.append(clock.advance())
    setup_s = prepare_s / prepare_host + statistics.median(
        raw / host for raw, host in zip(repeats, hosts)
    )
    return setup_s, {
        "prepare_s": prepare_s,
        "setup_repeats_s": repeats,
        "setup_host": [prepare_host, *hosts],
    }


def failures(stage: Stage, check: dict[str, Any], requested: int, served: dict | None) -> int:
    """Trials that count against the run: no outcome, refused busy,
    served by local fallback, or missing from the daemon's counter."""
    failed = check["no_outcome"]
    if served is not None:
        failed += max(0, requested - served["trials"]) + served["busy_rejections"]
    if stage.fallback_warnings:
        failed = max(failed, 1)
    return failed


def counter_delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {name: after[name] - before.get(name, 0) for name in after}


def _run_untraced(stage: Stage, seconds: float, *, smoke: bool) -> RunResult:
    w = stage.workload
    setup_s, setup_detail = timed_setups(stage, 1 if smoke else SETUPS)
    load_start = os.getloadavg()[0]

    stats0 = stage.daemon.stats() if stage.daemon else None
    cpu0 = procs.tree_cpu_seconds() - stage.clock.spent
    rounds = [stage.run_round(r) for r in range(1 if smoke else w.rounds_for(seconds))]
    cpu = procs.tree_cpu_seconds() - stage.clock.spent - cpu0
    served = counter_delta(stage.daemon.stats(), stats0) if stage.daemon else None

    stage.teardown()
    peak = procs.peak_rss_mb()  # before the oracle re-runs add their own
    check = check_outputs(stage, rounds)

    wall = sum(r.wall for r in rounds)
    host_wall = sum(r.host_wall for r in rounds)
    samples = [s for r in rounds for s in r.samples]
    messages = sum(int(r.outcome.sent.sum()) for s in samples for r in s.results if r.ok)
    requested = sum(r.trials for r in rounds)
    failed = failures(stage, check, requested, served)
    n = len(samples)
    host = timings(
        [s.host_seconds for s in samples], messages, host_wall, cpu * host_wall / wall, requested
    )
    raw = timings([s.seconds for s in samples], messages, wall, cpu, requested)
    measured = {**host, "peak_rss_mb": peak, "setup_s": setup_s}
    sample_counts = {"submit_p50_ms": n, "setup_s": len(setup_detail["setup_repeats_s"])}
    metrics = {
        name: _metric(measured[name], unit, sample_counts.get(name))
        for name, unit in E2E_UNITS.items()
    }
    detail = {
        "block": stage.block,
        "rounds": len(rounds),
        "submissions": n,
        "trials": requested,
        "messages": messages,
        "wall_s": wall,
        "host_slowdown": wall / host_wall,
        "reported": {name: _metric(measured[name], unit) for name, unit in REPORTED_UNITS.items()},
        "raw": raw,
        "failed_frac": failed / requested,
        "check": check,
        "server": served,
        "fallback_warnings": stage.fallback_warnings,
        "load_1min": [load_start, os.getloadavg()[0]],
        **setup_detail,
    }
    return RunResult(
        workload=w.name,
        seed=stage.seed,
        traced=False,
        smoke=smoke,
        correct=check["ok"] and failed == 0,
        attempted=requested,
        failed=failed,
        metrics=metrics,
        detail=detail,
    )
