"""The traced run: per-layer metrics by replay, measured from outside.

After a live traced phase (benchmark-side spans around every
submission), each layer's public entry point is fed a sample of the
workload's own specs and outcomes under a span whose parent is the
submission it came from. Layers marked *live* in README.md are timed
against the running daemon instead. A metric whose layer does not run
on a workload reads 0.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
from typing import Any

from repro.backends.batch import why_ineligible
from repro.backends.registry import get_backend
from repro.campaign import Campaign, TrialStore, WorkerPool, spec_fingerprint, trial_key
from repro.experiments.config import SweepSpec
from repro.experiments.runner import aggregate_sweep
from repro.obs.registry import MetricsRegistry
from repro.service import ServiceCampaign, ServiceClient
from repro.service.protocol import (
    PROTO_VERSION,
    decode_frame,
    encode_frame,
    spec_from_wire,
    spec_to_wire,
)
from repro.sim.outcome import Outcome

from benchmarks.suite.runner import (
    ROOT,
    SRC_DIR,
    RunResult,
    Sample,
    Stage,
    check_outputs,
    counter_delta,
    failures,
    quantile,
    timed_setups,
)
from benchmarks.suite.procs import SuiteError
from benchmarks.suite.trace import Tracer
from benchmarks.suite.workloads import Cell

__all__ = ["PER_LAYER_UNITS", "run_traced"]

PER_LAYER_UNITS = {
    "keys.us_per_spec": "us",
    "wire.encode_us": "us",
    "wire.decode_us": "us",
    "wire.bytes_per_outcome": "bytes",
    "proto.encode_us_per_spec": "us",
    "proto.decode_us_per_spec": "us",
    "proto.bytes_per_spec": "bytes",
    "client.rtt_ms": "ms",
    "client.submit_us_per_trial": "us",
    "server.cpu_us_per_trial": "us",
    "server.requests": "count",
    "server.hits": "count",
    "server.computed": "count",
    "server.dedup_inflight": "count",
    "server.shared_frac": "fraction",
    "server.busy_rejections": "count",
    "server.errors": "count",
    "store.sharded.put_us_per_trial": "us",
    "store.sharded.get_us_per_trial": "us",
    "store.sharded.load_s": "s",
    "store.sharded.bytes_per_trial": "bytes",
    "store.jsonl.put_us_per_trial": "us",
    "store.jsonl.get_us_per_trial": "us",
    "store.jsonl.load_s": "s",
    "store.jsonl.bytes_per_trial": "bytes",
    "store.put_calls": "count",
    "batch.us_per_trial": "us",
    "batch.ns_per_message": "ns",
    "batch.route_us_per_spec": "us",
    "batch.eligible_frac": "fraction",
    "scalar.us_per_trial": "us",
    "scalar.ns_per_message": "ns",
    "scalar.local_steps": "count",
    "scalar.messages": "count",
    "scalar.steps": "count",
    "pool.overhead_us_per_trial": "us",
    "pool.spawn_s": "s",
    "campaign.overhead_us_per_trial": "us",
    "campaign.memo_us_per_trial": "us",
    "aggregate.us_per_trial": "us",
    "cli.sweep_overhead_s": "s",
    "trace.coverage": "fraction",
    "trace.engine_share": "fraction",
    "trace.overhead_frac": "fraction",
}

#: Mirrors the campaign's store flush cadence: one put_many per this
#: many executed trials, plus one at the end of each submission.
_STORE_FLUSH = 32

#: One in this many traced submissions is replayed (all on ``shared``).
_REPLAY_SHARE = 2

#: The untraced run checks 16; the traced run has less time to spare.
_ORACLE_SAMPLE = 4

_RTT_SAMPLES = 200
_CLI_CELL = Cell("flood", "none", 10)
_CLI_SEEDS = 20


def _specs(sample: Sample) -> list:
    return [r.spec for r in sample.results]


def _outcomes(sample: Sample) -> list[Outcome]:
    return [r.outcome for r in sample.results]


class Replay:
    """Layer replays over one sample of traced submissions."""

    def __init__(self, stage: Stage, tracer: Tracer, samples: list[Sample]) -> None:
        self.stage = stage
        self.tracer = tracer
        self.clock = stage.clock
        self.samples = samples
        self.trials = sum(len(s.results) for s in samples)
        #: Above 1, the workload's scalar cells ran through a worker pool.
        self.workers = stage.workload.workers or 0
        self.metrics: dict[str, float] = dict.fromkeys(PER_LAYER_UNITS, 0.0)

    @contextlib.contextmanager
    def _span(self, name: str, sample: Sample | None = None):
        """A replay span, stamped with the host's slowdown across it;
        the interval opens at the previous span's closing tick."""
        parent = sample.span if sample else None
        submission = sample.submission.sid if sample else None
        with self.tracer.span(name, parent=parent, submission=submission) as sid:
            yield sid
        self.tracer.spans[sid]["host"] = self.clock.advance()

    def _duration(self, sid: int) -> float:
        span = self.tracer.spans[sid]
        return (span["end"] - span["start"]) / span["host"]

    def _per_trial_us(self, name: str, trials: int | None = None) -> float:
        trials = self.trials if trials is None else trials
        return self.tracer.busy(name) / trials * 1e6 if trials else 0.0

    # -- pure layers: run on every workload ------------------------------------

    def keys(self) -> None:
        self.clock.sync()
        for sample in self.samples:
            specs = _specs(sample)
            with self._span("campaign.keys", sample):
                for spec in specs:
                    trial_key(spec)
                    spec_fingerprint(spec)
        self.metrics["keys.us_per_spec"] = self._per_trial_us("campaign.keys")

    def wire(self) -> None:
        self.clock.sync()
        size = 0
        for sample in self.samples:
            outcomes = _outcomes(sample)
            with self._span("sim.outcome.encode", sample):
                texts = [json.dumps(o.to_wire()) for o in outcomes]
            with self._span("sim.outcome.decode", sample):
                for text in texts:
                    Outcome.from_wire(json.loads(text))
            size += sum(map(len, texts))
        self.metrics["wire.encode_us"] = self._per_trial_us("sim.outcome.encode")
        self.metrics["wire.decode_us"] = self._per_trial_us("sim.outcome.decode")
        self.metrics["wire.bytes_per_outcome"] = size / self.trials

    def proto(self) -> None:
        self.clock.sync()
        size = 0
        for i, sample in enumerate(self.samples):
            specs = _specs(sample)
            with self._span("service.protocol.encode", sample):
                frame = encode_frame(
                    {
                        "v": PROTO_VERSION,
                        "op": "submit",
                        "id": i,
                        "trials": [spec_to_wire(spec) for spec in specs],
                    }
                )
            with self._span("service.protocol.decode", sample):
                for wire in decode_frame(frame)["trials"]:
                    spec_from_wire(wire)
            size += len(frame)
        self.metrics["proto.encode_us_per_spec"] = self._per_trial_us("service.protocol.encode")
        self.metrics["proto.decode_us_per_spec"] = self._per_trial_us("service.protocol.decode")
        self.metrics["proto.bytes_per_spec"] = size / self.trials

    def store(self, backend: str) -> None:
        root = self.stage.run_dir / f"replay-{backend}"
        prefix = f"store.{backend}"
        keyed = [
            (s, [(trial_key(r.spec), spec_fingerprint(r.spec), r.outcome) for r in s.results])
            for s in self.samples
        ]
        calls = 0
        self.clock.sync()
        with TrialStore(root, backend=backend) as store:
            for sample, items in keyed:
                with self._span(f"{prefix}.put", sample):
                    for i in range(0, len(items), _STORE_FLUSH):
                        store.put_many(items[i : i + _STORE_FLUSH])
                        calls += 1
            size = sum(p.stat().st_size for p in store.store_files() if p.exists())
        with TrialStore(root, backend=backend) as store:
            with self._span(f"{prefix}.load"):
                loaded = len(store)
            distinct = len({key for _, items in keyed for key, _, _ in items})
            if loaded != distinct:
                raise SuiteError(f"{backend} store replay loaded {loaded}/{distinct}")
            for sample, items in keyed:
                with self._span(f"{prefix}.get", sample):
                    for key, _fingerprint, _outcome in items:
                        store.get(key)
        self.metrics[f"{prefix}.put_us_per_trial"] = self._per_trial_us(f"{prefix}.put")
        self.metrics[f"{prefix}.get_us_per_trial"] = self._per_trial_us(f"{prefix}.get")
        self.metrics[f"{prefix}.load_s"] = self.tracer.busy(f"{prefix}.load")
        self.metrics[f"{prefix}.bytes_per_trial"] = size / self.trials
        self.metrics["store.put_calls"] = float(calls)

    def aggregate(self) -> None:
        self.clock.sync()
        for sample in self.samples:
            cell = sample.submission.cell
            sweep = SweepSpec(
                protocol=cell.protocol,
                adversary=cell.adversary,
                n_values=(cell.n,),
                seeds=sample.submission.seeds,
                topology=cell.topology,
            )
            outcomes = _outcomes(sample)
            with self._span("experiments.runner.aggregate", sample):
                aggregate_sweep(sweep, outcomes)
        self.metrics["aggregate.us_per_trial"] = self._per_trial_us("experiments.runner.aggregate")

    # -- engines ---------------------------------------------------------------

    def engines(self, samples: list[Sample], *, campaign_layer: bool) -> None:
        """Route, then re-execute *samples* through the layer that ran
        them live: the batch backend, or the scalar engine (inline and,
        when the workload has one, through a worker pool)."""
        batch_samples, scalar_samples = [], []
        routed = 0
        why_ineligible(self.stage.workload.warmup()[0].specs()[0])  # import cost is not routing
        self.clock.sync()
        for sample in samples:
            specs = _specs(sample)
            with self._span("backends.batch.route", sample):
                reasons = [why_ineligible(spec) for spec in specs]
            routed += len(specs)
            (scalar_samples if any(reasons) else batch_samples).append(sample)
        batch_trials = sum(len(s.results) for s in batch_samples)
        scalar_trials = sum(len(s.results) for s in scalar_samples)
        self.metrics["batch.route_us_per_spec"] = self._per_trial_us("backends.batch.route", routed)
        self.metrics["batch.eligible_frac"] = batch_trials / routed

        batch = get_backend("batch")
        messages = 0
        for sample in batch_samples:
            with self._span("backends.batch.run", sample):
                outcomes = batch.run_batch(_specs(sample))
            messages += sum(int(o.sent.sum()) for o in outcomes)
        if batch_trials:
            busy = self.tracer.busy("backends.batch.run")
            self.metrics["batch.us_per_trial"] = busy / batch_trials * 1e6
            self.metrics["batch.ns_per_message"] = busy / max(messages, 1) * 1e9

        if scalar_trials:
            registry = MetricsRegistry()
            scalar = get_backend("scalar")
            for sample in scalar_samples:
                with self._span("backends.scalar.run", sample):
                    scalar.run_batch(_specs(sample), metrics=registry)
            busy = self.tracer.busy("backends.scalar.run")
            sent = registry.counter_value("engine.messages_sent")
            self.metrics["scalar.us_per_trial"] = busy / scalar_trials * 1e6
            self.metrics["scalar.ns_per_message"] = busy / max(sent, 1) * 1e9
            self.metrics["scalar.local_steps"] = float(registry.counter_value("engine.local_steps"))
            self.metrics["scalar.messages"] = float(sent)
            self.metrics["scalar.steps"] = float(registry.counter_value("engine.steps_simulated"))

        if scalar_trials and self.workers > 1:
            self._pool(scalar_samples, scalar_trials)
        if campaign_layer:
            self._campaign(samples)

    def _pool(self, samples: list[Sample], trials: int) -> None:
        workers = self.workers
        # Per-trial seconds come back only with a registry attached.
        with WorkerPool(workers, metrics=MetricsRegistry()) as pool:
            warm = self.stage.workload.warmup()[0].specs()
            self.clock.sync()
            with self._span("campaign.pool.spawn"):
                pool.execute(warm)
            inside = 0.0
            for sample in samples:
                with self._span("campaign.pool.execute", sample) as sid:
                    done = pool.execute(_specs(sample))
                inside += sum(r.seconds or 0.0 for r in done) / self.tracer.spans[sid]["host"]
        wall = self.tracer.busy("campaign.pool.execute")
        self.metrics["pool.overhead_us_per_trial"] = (wall * workers - inside) / trials * 1e6
        self.metrics["pool.spawn_s"] = self.tracer.busy("campaign.pool.spawn")

    def _campaign(self, samples: list[Sample]) -> None:
        trials = sum(len(s.results) for s in samples)
        with Campaign(cache_dir=None, backend="auto", workers=self.workers) as campaign:
            campaign.run_trials(self.stage.workload.warmup()[0].specs())
            self.clock.sync()
            for sample in samples:
                specs = _specs(sample)
                with self._span("campaign.campaign.run_trials", sample):
                    campaign.run_trials(specs)
                with self._span("campaign.campaign.memo", sample):
                    campaign.run_trials(specs)
        engine = self.engine_busy()
        total = self.tracer.busy("campaign.campaign.run_trials")
        self.metrics["campaign.overhead_us_per_trial"] = (total - engine) / trials * 1e6
        self.metrics["campaign.memo_us_per_trial"] = self._per_trial_us(
            "campaign.campaign.memo", trials
        )

    def engine_busy(self) -> float:
        """Blocking time of whichever execution layer ran live."""
        scalar = "campaign.pool.execute" if self.workers > 1 else "backends.scalar.run"
        return self.tracer.busy("backends.batch.run") + self.tracer.busy(scalar)

    # -- live service layers ---------------------------------------------------

    def client(self, url: str, *, rtt_samples: int) -> None:
        specs = _specs(self.samples[0])
        with ServiceClient(url, timeout=60.0) as client:
            client.submit(specs)  # make sure the daemon has them
            self.clock.sync()
            rtts = []
            for _ in range(rtt_samples):
                with self._span("service.client.rtt") as sid:
                    (reply,) = client.submit(specs[:1])
                if reply.status != "hit":
                    raise SuiteError(f"rtt probe was not a hit: {reply.status}")
                rtts.append(self._duration(sid))
            for _ in range(5):
                with self._span("service.client.submit"):
                    client.submit(specs)
        self.metrics["client.rtt_ms"] = quantile(rtts, 0.5) * 1e3
        self.metrics["client.submit_us_per_trial"] = (
            self.tracer.busy("service.client.submit") / (5 * len(specs)) * 1e6
        )

    def cli(self, url: str) -> None:
        """``sweep --cache-url`` as a subprocess against the same warm
        cell through ``ServiceCampaign`` in-process."""
        seeds = tuple(range(_CLI_SEEDS))
        sweep = SweepSpec(_CLI_CELL.protocol, _CLI_CELL.adversary, (_CLI_CELL.n,), seeds=seeds)
        with ServiceCampaign(url, cache_dir=None, workers=0) as campaign:
            campaign.run_sweep(sweep)  # first touch computes the cell
        self.clock.sync()
        with ServiceCampaign(url, cache_dir=None, workers=0) as campaign:
            with self._span("cli.sweep_inprocess"):
                campaign.run_sweep(sweep)
        command = [
            sys.executable, "-m", "repro", "sweep",
            "--protocol", _CLI_CELL.protocol,
            "--adversary", _CLI_CELL.adversary,
            "--n", str(_CLI_CELL.n),
            "--seeds", str(_CLI_SEEDS),
            "--workers", "1",
            "--cache-url", url,
            "--cache-dir", str(self.stage.run_dir / "cli-cache"),
        ]
        with self._span("cli.sweep"):
            done = subprocess.run(
                command,
                env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
                capture_output=True,
                text=True,
                timeout=120,
            )
        if done.returncode != 0 or "falling back" in done.stderr:
            raise SuiteError(f"cli sweep failed ({done.returncode}): {done.stderr[-400:]}")
        self.metrics["cli.sweep_overhead_s"] = self.tracer.busy("cli.sweep") - self.tracer.busy(
            "cli.sweep_inprocess"
        )


def _coverage(replay: Replay, stage: Stage, live_wall: float, served: dict | None) -> float:
    """Replayed busy time of the blocking leaf layers over the live
    wall of the same submissions (see README.md, "trace bookkeeping")."""
    w = stage.workload
    busy = replay.tracer.busy
    if not w.service:
        leaf = (
            busy("campaign.keys")
            + busy("backends.batch.route")
            + replay.engine_busy()
            + busy("store.jsonl.put")
        )
        return leaf / live_wall
    # Both ends of the socket derive keys; the client encodes specs and
    # decodes outcomes, the daemon decodes specs and encodes outcomes.
    both_ends = (
        2 * busy("campaign.keys")
        + busy("service.protocol.encode")
        + busy("service.protocol.decode")
        + busy("sim.outcome.encode")
        + busy("sim.outcome.decode")
    )
    if w.pattern == "replay":
        return (both_ends + busy("store.sharded.get")) / live_wall
    # Engines replayed each distinct spec once, as the daemon ran them;
    # the store replay wrote every requested trial, the daemon only
    # the computed ones.
    executed = replay.engine_busy() + busy("backends.batch.route")
    written = busy("store.sharded.put") * served["computed"] / served["trials"]
    return (both_ends + executed + written) / live_wall


def _unique_specs(samples: list[Sample]) -> list[Sample]:
    """*samples* with every repeated spec dropped: shared trials
    execute once, so the engines replay each distinct spec once."""
    seen: set[str] = set()
    unique = []
    for sample in samples:
        fresh = []
        for result in sample.results:
            key = trial_key(result.spec)
            if key not in seen:
                seen.add(key)
                fresh.append(result)
        if fresh:
            unique.append(dataclasses.replace(sample, results=fresh))
    return unique


def run_traced(stage: Stage, *, smoke: bool, out_dir: pathlib.Path | None) -> RunResult:
    w = stage.workload
    tracer = Tracer(w.name)
    _setup_s, setup_detail = timed_setups(stage, 1)
    load_start = os.getloadavg()[0]

    # The traced phase runs a seeded half of the cells, so a traced run
    # fits the same budget as an untraced one.
    k = 1 if smoke else w.trace_rounds
    cells = list(w.cells) if smoke else w.sample(stage.seed, list(w.cells), len(w.cells) // 2, "traced")
    stats0 = stage.daemon.stats() if stage.daemon else None
    cpu0 = stage.daemon.cpu_seconds() if stage.daemon else 0.0
    rounds = [stage.run_round(r, tracer, only=frozenset(cells)) for r in range(k)]
    served = None
    daemon_cpu = 0.0
    if stage.daemon:
        served = counter_delta(stage.daemon.stats(), stats0)
        daemon_cpu = stage.daemon.cpu_seconds() - cpu0
    traced_wall = sum(r.host_wall for r in rounds)
    raw_wall = sum(r.wall for r in rounds)
    traced_samples = [s for r in rounds for s in r.samples]

    check = check_outputs(stage, rounds, oracle_sample=_ORACLE_SAMPLE, pinned=False)
    requested = sum(r.trials for r in rounds)
    del rounds  # replays should not pay GC for results nobody reads again

    # The shared workload's clients overlap, so its layers are set
    # against the round's wall and every submission is replayed; the
    # sequential workloads re-execute a sample and compare like for like.
    if smoke or w.pattern == "shared":
        sample = traced_samples
    else:
        sample = w.sample(
            stage.seed, traced_samples, len(traced_samples) // _REPLAY_SHARE, "replay"
        )
    del traced_samples
    replay = Replay(stage, tracer, sample)
    replay.keys()
    replay.wire()
    replay.proto()
    replay.store("sharded")
    replay.store("jsonl")
    replay.aggregate()
    if w.pattern == "shared":
        replay.engines(_unique_specs(sample), campaign_layer=False)
    elif w.pattern == "cold":
        replay.engines(sample, campaign_layer=True)
    m = replay.metrics
    if stage.daemon:
        replay.client(stage.daemon.url, rtt_samples=20 if smoke else _RTT_SAMPLES)
        if w.pattern == "replay":
            replay.cli(stage.daemon.url)
        trials = served["trials"]
        m["server.cpu_us_per_trial"] = daemon_cpu / trials * 1e6
        for name in ("requests", "hits", "computed", "dedup_inflight", "busy_rejections", "errors"):
            m[f"server.{name}"] = float(served[name])
        m["server.shared_frac"] = (served["hits"] + served["dedup_inflight"]) / trials

    live_wall = traced_wall if w.pattern == "shared" else sum(s.host_seconds for s in sample)
    m["trace.coverage"] = _coverage(replay, stage, live_wall, served)
    m["trace.engine_share"] = replay.engine_busy() / live_wall
    # Tracing here is one span record per submission, taken after the
    # submission's clock stopped; its cost is timed directly because a
    # traced-vs-untraced pair of runs differs by +-15 % on this class of
    # host whatever is being compared.
    m["trace.overhead_frac"] = tracer.seconds / (raw_wall - tracer.seconds)

    stage.teardown()
    failed = failures(stage, check, requested, served)
    trace_path = (out_dir or ROOT / ".bench_out") / f"trace_{w.name}.json"
    tracer.write(trace_path)
    metrics = {
        name: {"value": m[name], "unit": unit, "samples": replay.trials}
        for name, unit in PER_LAYER_UNITS.items()
    }
    detail: dict[str, Any] = {
        "block": stage.block,
        "rounds": k,
        "trials": requested,
        "replayed_submissions": len(sample),
        "traced_wall_s": traced_wall,
        "trace_file": str(trace_path),
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
        traced=True,
        smoke=smoke,
        correct=check["ok"] and failed == 0,
        attempted=requested,
        failed=failed,
        metrics=metrics,
        detail=detail,
    )
