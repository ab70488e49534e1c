"""The campaign session: cached, pooled, resumable trial execution.

A :class:`Campaign` is the single execution path every experiment
module routes through. It owns

- an in-session **memo** (trial key → outcome) so identical trials
  are computed exactly once per session — Figure 3a and 3c both need
  the push-pull "no-adversary" curve, and now share it;
- an optional on-disk :class:`~repro.campaign.store.TrialStore`, which
  extends that guarantee across sessions and makes interrupted runs
  resumable (completed trials replay from the store, only missing
  ones execute);
- a shared :class:`~repro.campaign.pool.WorkerPool`, created lazily
  and reused by every sweep of the session;
- :class:`~repro.campaign.progress.CampaignStats` counters plus a
  pluggable per-trial progress callback.

Results keep submission order regardless of cache hits or worker
scheduling, and failures are captured per trial.
"""

from __future__ import annotations

import os
import pathlib
import time
import warnings
from dataclasses import dataclass, replace

from repro.campaign.keys import spec_fingerprint, trial_key
from repro.campaign.pool import WorkerPool
from repro.campaign.progress import CampaignStats, ProgressCallback, ProgressEvent
from repro.campaign.store import TrialStore
from repro.errors import CampaignError
from repro.experiments.config import SweepSpec, TrialSpec
from repro.sim.outcome import Outcome

#: Longest error string carried into a telemetry record; full worker
#: tracebacks stay on the TrialResult, telemetry only needs the gist.
_TELEMETRY_ERROR_CHARS = 240

__all__ = ["Campaign", "TrialResult", "default_cache_dir", "ENV_CACHE_DIR"]

#: Environment variable overriding the default cache location.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Executed outcomes buffered between store appends. Each flush is one
#: lock/write/fsync (see TrialStore.put_many); an interrupt loses at
#: most this many finished trials to the resume path, never corrupts.
_STORE_FLUSH_EVERY = 32


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro-ugf``, else
    ``~/.cache/repro-ugf``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro-ugf"


@dataclass(frozen=True, slots=True)
class TrialResult:
    """One requested trial: its outcome or its captured error."""

    spec: TrialSpec
    outcome: Outcome | None
    error: str | None = None
    #: True when served without executing (memo or store hit).
    cached: bool = False
    #: Which execution backend produced the outcome (``"scalar"`` /
    #: ``"batch"``); None for cached and failed results.
    backend: str | None = None

    @property
    def ok(self) -> bool:
        return self.outcome is not None


class Campaign:
    """One experiment-execution session.

    Parameters
    ----------
    cache_dir:
        Directory for the persistent trial store. ``None`` keeps the
        campaign purely in-memory (still deduplicated within the
        session).
    workers:
        Worker-pool size; ``None`` = CPU count - 1, ``<= 1`` inline.
    use_cache:
        ``False`` disables all deduplication — every requested trial
        executes (the CLI's ``--no-cache``).
    fresh:
        Ignore *persisted* results on read but still write them (the
        CLI's ``--fresh``): distrusts stale artifacts without losing
        intra-session dedup or repopulating the store.
    progress:
        Default per-trial callback; overridable per batch.
    trial_timeout:
        Per-trial wall-clock bound in seconds (None = unbounded): a
        divergent trial is killed and reported as a failure instead of
        hanging the whole sweep. See
        :class:`~repro.campaign.pool.WorkerPool`.
    sanitize:
        Execution-model sanitizer spec (``"warn"``, ``"strict:counters"``,
        ...) applied to every trial that does not pin its own. The
        sanitizer is instrumentation, not trial identity: cache keys
        ignore it, so cached outcomes (sanitized or not) are still
        served — only trials that actually *execute* run under the
        monitors, and their reports are persisted with the outcome.
    metrics:
        Observability switch (docs/OBSERVABILITY.md): ``True``/``"on"``
        enables the session :class:`~repro.obs.registry.MetricsRegistry`
        (engine spans, cache counters, store I/O spans, worker
        registries merged per chunk) plus — when the campaign has a
        cache dir — a structured ``telemetry.jsonl`` stream alongside
        the trial store. ``None`` defers to ``$REPRO_METRICS``; off by
        default. Like the sanitizer, metrics are instrumentation, not
        trial identity: outcomes and cache keys are byte-identical
        either way.
    memo_limit:
        Cap on in-session memo entries (None = unbounded, the
        default). When set, the oldest memo entries are evicted past
        the cap — dedup correctness is unaffected (evicted keys are
        still served by the store), only the resident-memory bound
        changes. Long-lived processes such as the campaign service
        daemon set this; batch sessions never need it.
    backend:
        Execution-backend routing mode (docs/BACKENDS.md). ``"auto"``
        — the default — sends batch-eligible cache misses to the
        vectorized engine in cell groups and everything else to the
        scalar pool; ``"scalar"`` forces the reference engine;
        ``"batch"`` forces the vectorized engine and *fails* trials it
        cannot express instead of silently falling back. Routing is
        per-spec, deterministic, and counted in the metrics registry
        (``campaign.backend_*``). A ``fault_plan`` arming a
        ``trial.*`` or ``worker.*`` site pins the whole campaign to
        the scalar path — those faults inject at per-trial sites the
        batch kernel does not have; store and service sites leave the
        mode alone. Backends are wire-equivalent by contract, so the
        mode never changes outcomes or cache keys.
    fault_plan:
        Armed chaos :class:`~repro.chaos.plan.FaultPlan` — fault
        injection for robustness testing (docs/ROBUSTNESS.md). The
        plan is stamped with this process's pid (worker-only faults
        never fire in the owning process) and armed on the pool (trial
        faults, in workers and inline) and the store (fsync failures,
        torn tails). ``None`` — the default — constructs no injector
        at all: the chaos plane costs nothing when off.
    """

    #: Who answers this campaign's cache misses when it is not this
    #: process (a :class:`~repro.service.client.ServiceCampaign`'s
    #: daemon): its caches then stand in for the local store, which
    #: :meth:`_lookup` skips. None for a local campaign.
    _via: str | None = None

    def __init__(
        self,
        *,
        cache_dir: str | os.PathLike | None = None,
        workers: int | None = None,
        use_cache: bool = True,
        fresh: bool = False,
        progress: ProgressCallback | None = None,
        trial_timeout: float | None = None,
        sanitize: str | None = None,
        metrics=None,
        fault_plan=None,
        backend: str = "auto",
        memo_limit: int | None = None,
    ) -> None:
        from repro.backends.registry import BACKEND_MODES
        from repro.obs.registry import resolve_metrics

        if backend not in BACKEND_MODES:
            raise CampaignError(
                f"unknown backend mode {backend!r} (expected one of {BACKEND_MODES})"
            )
        self.use_cache = use_cache
        self.fresh = fresh
        self.progress = progress
        self.sanitize = sanitize
        self.backend = backend
        self.metrics = resolve_metrics(metrics)
        self.fault_plan = (
            fault_plan.with_origin(os.getpid()) if fault_plan is not None else None
        )
        self._injector = None
        if self.fault_plan is not None:
            from repro.chaos.inject import FaultInjector

            self._injector = FaultInjector(self.fault_plan)
        self.store = (
            TrialStore(cache_dir, metrics=self.metrics, injector=self._injector)
            if (cache_dir is not None and use_cache)
            else None
        )
        self.pool = WorkerPool(
            workers,
            trial_timeout=trial_timeout,
            metrics=self.metrics,
            fault_plan=self.fault_plan,
        )
        self.stats = CampaignStats()
        self.memo_limit = memo_limit
        self._memo: dict[str, Outcome] = {}
        self._warned_batch_error = False
        self.telemetry = None
        if self.metrics is not None and cache_dir is not None:
            from repro.obs.telemetry import TelemetrySink, telemetry_path

            self.telemetry = TelemetrySink(telemetry_path(cache_dir))

    # -- lookup ------------------------------------------------------------------

    def _memoize(self, key: str, outcome: Outcome) -> None:
        memo = self._memo
        memo[key] = outcome
        if self.memo_limit is not None:
            # dicts iterate in insertion order: drop the oldest entries.
            while len(memo) > self.memo_limit:
                del memo[next(iter(memo))]

    def _lookup(self, key: str | None) -> Outcome | None:
        if key is None:
            return None
        m = self.metrics
        hit = self._memo.get(key)
        if hit is not None:
            if m is not None:
                m.count("campaign.memo_hits")
            return hit
        if self._via is not None:
            return None  # the daemon's caches answer the rest
        if self.store is not None and not self.fresh:
            if m is not None:
                lookup_t0 = time.perf_counter()
                outcome = self.store.get(key)
                m.observe_span("campaign.cache_lookup", time.perf_counter() - lookup_t0)
                m.count("campaign.store_hits" if outcome is not None else "campaign.cache_misses")
            else:
                outcome = self.store.get(key)
            if outcome is not None:
                self._memoize(key, outcome)
            return outcome
        if m is not None:
            m.count("campaign.cache_misses")
        return None

    # -- execution ---------------------------------------------------------------

    def run_trials(
        self,
        specs,
        *,
        progress: ProgressCallback | None = None,
        keys: list[str] | None = None,
    ) -> list[TrialResult]:
        """Satisfy every spec — from cache where possible — in order.

        *keys*, when given, are the specs' :func:`trial_key` values a
        caller already holds (the daemon's claims); they are ignored
        when not caching. Keys ignore ``sanitize``, so they hold across
        the substitution in :meth:`_run_keyed`."""
        specs = list(specs)
        if not self.use_cache:
            keys = [None] * len(specs)
        elif keys is None:
            keys = [trial_key(s) for s in specs]
        return self._run_keyed(specs, keys, progress=progress)

    def _run_keyed(
        self,
        specs: list[TrialSpec],
        keys: list[str | None],
        *,
        progress: ProgressCallback | None = None,
    ) -> list[TrialResult]:
        """The one campaign loop: memo/store hits and in-batch
        duplicates here, cache misses through :meth:`_execute`, and the
        stats, telemetry, progress, memo and store bookkeeping for all
        of them."""
        callback = progress if progress is not None else self.progress
        total = len(specs)
        done = 0
        batch_counts = {"executed": 0, "cached": 0, "failed": 0}
        batch_t0 = time.perf_counter() if self.metrics is not None else 0.0

        def emit(
            kind: str,
            spec: TrialSpec,
            error: str | None = None,
            outcome: Outcome | None = None,
            seconds: float | None = None,
            backend: str | None = None,
            via: str | None = None,
        ) -> None:
            nonlocal done
            done += 1
            self.stats.count(kind)
            batch_counts[kind] += 1
            if self.metrics is not None:
                self.metrics.count(f"campaign.trials_{kind}")
            if self.telemetry is not None:
                record = {
                    "status": kind,
                    "via": via,
                    "protocol": spec.protocol,
                    "adversary": spec.adversary,
                    "n": spec.n,
                    "f": spec.f,
                    "seed": spec.seed,
                }
                if record["via"] is None:
                    del record["via"]
                if seconds is not None:
                    record["seconds"] = round(seconds, 6)
                if backend is not None:
                    record["backend"] = backend
                if outcome is not None:
                    record["completed"] = outcome.completed
                    record["t_end"] = int(outcome.t_end)
                    record["messages"] = int(outcome.sent.sum())
                if error is not None:
                    record["error"] = error[:_TELEMETRY_ERROR_CHARS]
                self.telemetry.emit("trial", **record)
            if callback is not None:
                callback(
                    ProgressEvent(
                        kind=kind, spec=spec, done=done, total=total, error=error
                    )
                )

        results: list[TrialResult | None] = [None] * total
        pending: list[tuple[int, TrialSpec, str | None]] = []
        first_pending: dict[str, int] = {}
        duplicates: list[tuple[int, int]] = []  # (index, primary index)
        via_of: dict[int, str | None] = {}  # pending index -> its executor

        for i, (spec, key) in enumerate(zip(specs, keys)):
            if self.sanitize is not None and spec.sanitize is None:
                spec = replace(spec, sanitize=self.sanitize)
                specs[i] = spec
            outcome = self._lookup(key)
            if outcome is not None:
                results[i] = TrialResult(spec=spec, outcome=outcome, cached=True)
                emit("cached", spec, outcome=outcome, via=self._via)
            elif key is not None and key in first_pending:
                duplicates.append((i, first_pending[key]))
            else:
                if key is not None:
                    first_pending[key] = i
                pending.append((i, spec, key))

        # Executed outcomes are persisted in batches: one fsync per
        # _STORE_FLUSH_EVERY trials instead of per trial. The finally
        # clause keeps interrupts resumable — everything that finished
        # is flushed before the exception propagates.
        to_persist: list[tuple[str, dict, Outcome]] = []

        def flush_store() -> None:
            if to_persist and self.store is not None:
                self.store.put_many(to_persist)
            to_persist.clear()

        try:
            for (i, spec, key), result, seconds, via in self._execute(pending):
                results[i] = result
                via_of[i] = via
                outcome = result.outcome
                if outcome is None:
                    emit("failed", spec, result.error, via=via)
                    continue
                if key is not None:
                    self._memoize(key, outcome)
                    # Only this process's executions are new to its store.
                    if self.store is not None and via is None and not result.cached:
                        to_persist.append((key, spec_fingerprint(spec), outcome))
                        if len(to_persist) >= _STORE_FLUSH_EVERY:
                            flush_store()
                emit(
                    "cached" if result.cached else "executed",
                    spec,
                    outcome=outcome,
                    seconds=seconds,
                    backend=result.backend,
                    via=via,
                )
        finally:
            flush_store()

        # Duplicate specs within the batch share their primary's result.
        for i, primary_index in duplicates:
            primary = results[primary_index]
            assert primary is not None
            via = via_of[primary_index]
            if primary.outcome is not None:
                results[i] = TrialResult(
                    spec=primary.spec, outcome=primary.outcome, cached=True
                )
                emit("cached", primary.spec, outcome=primary.outcome, via=via)
            else:
                results[i] = TrialResult(
                    spec=primary.spec, outcome=None, error=primary.error
                )
                emit("failed", primary.spec, primary.error, via=via)

        assert all(r is not None for r in results)
        if self.metrics is not None:
            batch_seconds = time.perf_counter() - batch_t0
            self.metrics.observe_span("campaign.run_trials", batch_seconds)
            if self.telemetry is not None:
                self.telemetry.emit(
                    "phase",
                    trials=total,
                    seconds=round(batch_seconds, 6),
                    **batch_counts,
                )
        return results  # type: ignore[return-value]

    def _execute(self, pending: list[tuple[int, TrialSpec, str | None]]):
        """Run the cache misses *pending* (``(index, spec, key)``) and
        yield ``(item, TrialResult, seconds, via)`` for each as it
        finishes.

        The executor seam: this process's batch engine and worker pool
        here, the daemon in :class:`~repro.service.client.ServiceCampaign`.
        *seconds* is the trial's own execution time, None when unknown;
        *via* names the executor that answered when it is not this
        process (None here), and only ``via=None`` executions are
        persisted to the local store.
        """
        # ---- backend routing (docs/BACKENDS.md) ----
        # route() partitions the cache misses per spec: the batch engine
        # takes its share as cell groups, the scalar pool the rest.
        # Chaos arms per-trial fault sites that only exist on the scalar
        # path, so a plan arming one pins the mode; store and service
        # sites never fire inside trial execution.
        from repro.backends.registry import get_backend, route

        mode = (
            "scalar"
            if self._injector is not None and self._injector.arms_trials
            else self.backend
        )
        batch_items: list[tuple[int, TrialSpec, str | None]] = []
        scalar_items: list[tuple[int, TrialSpec, str | None]] = []
        for item in pending:
            engine, reason = route(item[1], mode, metrics=self.metrics)
            if engine == "batch":
                batch_items.append(item)
            elif engine is None:
                error = f"batch backend ineligible — {reason}"
                yield item, TrialResult(item[1], None, error), None, None
            else:
                scalar_items.append(item)
                if reason is not None and self.metrics is not None:
                    self.metrics.count("campaign.backend_fallbacks")
        if self.metrics is not None and pending:
            self.metrics.count("campaign.backend_batch", len(batch_items))
            self.metrics.count("campaign.backend_scalar", len(scalar_items))

        if batch_items:
            exec_t0 = time.perf_counter()
            try:
                outcomes = get_backend("batch").run_batch(
                    [spec for _, spec, _ in batch_items], metrics=self.metrics
                )
            except Exception as exc:  # fall back rather than fail the sweep
                if self.metrics is not None:
                    self.metrics.count(
                        "campaign.backend_batch_errors", len(batch_items)
                    )
                self._warn_batch_error(
                    [spec for _, spec, _ in batch_items], exc, mode
                )
                if mode == "batch":
                    error = f"batch backend error: {exc}"
                    for item in batch_items:
                        yield item, TrialResult(item[1], None, error), None, None
                else:
                    scalar_items = sorted(scalar_items + batch_items)
            else:
                per_trial = (time.perf_counter() - exec_t0) / len(batch_items)
                for item, outcome in zip(batch_items, outcomes):
                    result = TrialResult(item[1], outcome, backend="batch")
                    yield item, result, per_trial, None

        executions = self.pool.iter_execute([spec for _, spec, _ in scalar_items])
        for item, run in zip(scalar_items, executions):
            backend = "scalar" if run.outcome is not None else None
            result = TrialResult(item[1], run.outcome, run.error, backend=backend)
            yield item, result, run.seconds, None

    def _warn_batch_error(
        self, specs: list[TrialSpec], exc: Exception, mode: str
    ) -> None:
        """One RuntimeWarning per session: a raising batch backend must
        not degrade a sweep to scalar speed (or fail it) unannounced."""
        if self._warned_batch_error:
            return
        self._warned_batch_error = True
        cells = sorted({f"{s.protocol} x {s.adversary} N={s.n} F={s.f}" for s in specs})
        named = ", ".join(cells[:3]) + (", ..." if len(cells) > 3 else "")
        then = (
            "failing their trials"
            if mode == "batch"
            else "re-running them on the scalar backend (same outcomes, "
            "several times slower)"
        )
        warnings.warn(
            f"batch backend raised {type(exc).__name__}: {exc} while running "
            f"{named}; {then}. Later batch errors in this session are only "
            f"counted (campaign.backend_batch_errors).",
            RuntimeWarning,
            stacklevel=4,
        )

    def run_trial(self, spec: TrialSpec) -> Outcome:
        """One trial through the cache; raises on failure."""
        result = self.run_trials([spec])[0]
        if result.outcome is None:
            raise CampaignError(f"trial failed: {result.error} (spec: {spec})")
        return result.outcome

    def run_sweep(self, spec: SweepSpec, *, allow_truncated: bool = True):
        """Every trial of *spec*, aggregated per (N, F) cell
        (:func:`repro.experiments.runner.run_sweep` in this session)."""
        from repro.experiments.runner import run_sweep

        return run_sweep(spec, allow_truncated=allow_truncated, campaign=self)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        self.pool.close()
        if self.store is not None:
            self.store.close()
            if self._injector is not None:
                # store.tear fires here, where a real kill -9 would
                # leave its damage: after the final append, before the
                # next session reads the store back.
                torn = self._injector.maybe_tear(self.store.path)
                if torn and self.metrics is not None:
                    self.metrics.count("chaos.torn_bytes", torn)
        if self.telemetry is not None:
            # The session's merged registry goes last so `stats` can
            # reconstruct the whole run from the telemetry stream alone.
            if self.metrics is not None and len(self.metrics):
                self.telemetry.emit("registry", metrics=self.metrics.to_wire())
            self.telemetry.close()

    def __enter__(self) -> "Campaign":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
