"""Shared worker pool with chunked batch dispatch.

One :class:`WorkerPool` lives for a whole campaign session: the
``ProcessPoolExecutor`` is created lazily on the first batch that
actually needs parallelism and then reused by every subsequent sweep,
eliminating the per-sweep fork/teardown churn the old
``run_sweep``-owns-a-pool design paid.

Dispatch is *chunked*: trials are grouped into batches and each batch
crosses the process boundary as one :func:`run_trial_batch` task. For
Fig.-3-style sweeps — thousands of short trials — this amortises the
per-task costs that otherwise dominate (a future, a pickle of the
spec, an IPC round trip, a pickle of the outcome *per trial*) down to
once per chunk, and the outcome travels back in the compact
:meth:`~repro.sim.outcome.Outcome.to_wire` encoding instead of as
pickled ndarrays. Chunk size is auto-tuned from the batch length and
the worker count (several waves per worker, so stragglers still load
balance); there is no knob to pin it.

Three more robustness properties:

- **Warm workers**: each worker runs an initializer that pre-imports
  the protocol/adversary registries and the simulation kernel, so the
  first chunk of a sweep does not pay interpreter warmup per worker
  mid-measurement.
- **Bounded in-flight window**: :meth:`WorkerPool.iter_execute`
  submits at most a few chunks per worker at a time and streams
  results as the oldest chunk completes, so a million-trial campaign
  never materialises a million futures (or their specs) at once.
- **Crash containment**: a trial that raises yields an error string
  (the *full worker-side traceback*) in its slot; a worker process
  that dies (OOM kill, segfault) breaks the pool, which is caught —
  the lost chunk re-runs inline in this process, the executor is
  rebuilt lazily for the remaining chunks, and the campaign continues
  instead of being poisoned.

A per-trial ``trial_timeout`` (seconds) bounds each simulation via
``SIGALRM`` where available (POSIX main thread — which is exactly
where pool workers run their tasks), so one divergent trial cannot
hang a whole sweep; elsewhere the knob degrades to a no-op rather
than failing.
"""

from __future__ import annotations

import os
import threading
import traceback
import warnings
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

try:  # POSIX-only; the timeout knob degrades gracefully elsewhere.
    import signal
except ImportError:  # pragma: no cover - non-POSIX platforms
    signal = None  # type: ignore[assignment]

from repro.experiments.config import TrialSpec
from repro.sim.outcome import Outcome

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.inject import FaultInjector
    from repro.chaos.plan import FaultPlan

__all__ = [
    "WorkerPool",
    "ExecutionResult",
    "TrialTimeout",
    "default_workers",
    "run_trial_batch",
]

#: Target number of chunk "waves" per worker: small enough to amortise
#: dispatch, large enough that one slow chunk cannot idle the pool.
_WAVES_PER_WORKER = 4

#: Hard cap on the auto-tuned chunk size (keeps per-chunk result
#: pickles and the inline recovery path bounded).
_MAX_CHUNK = 64

#: In-flight chunk futures per worker in the streaming window.
_WINDOW_PER_WORKER = 2


def default_workers() -> int:
    cpus = os.cpu_count() or 1
    return max(1, cpus - 1)


class TrialTimeout(Exception):
    """A trial exceeded the pool's per-trial timeout."""


@dataclass(frozen=True, slots=True)
class ExecutionResult:
    """What one submitted trial produced: an outcome or an error.

    ``error`` carries the full traceback of the failing trial — worker
    side included — not just the exception repr, so a failure deep in
    a protocol surfaces with its stack instead of a one-liner.
    """

    spec: TrialSpec
    outcome: Outcome | None
    error: str | None = None
    #: Wall-clock execution time, measured only when metrics are on
    #: (None otherwise, and always None for cache-served trials).
    seconds: float | None = None

    @property
    def ok(self) -> bool:
        return self.outcome is not None


#: One warning per process when the timeout knob cannot be honoured;
#: the *counter* (``pool.timeout_unavailable``) still ticks per trial.
_timeout_warned = False


def _note_timeout_unavailable(reason: str, metrics) -> None:
    global _timeout_warned
    if metrics is not None:
        metrics.count("pool.timeout_unavailable")
    if not _timeout_warned:
        _timeout_warned = True
        warnings.warn(
            f"trial_timeout is unavailable {reason}: trials run unbounded "
            "(the timeout relies on SIGALRM in a POSIX main thread)",
            RuntimeWarning,
            stacklevel=3,
        )


@contextmanager
def _deadline(seconds: float | None, metrics=None):
    """Raise :class:`TrialTimeout` if the body runs longer than *seconds*.

    Implemented with ``SIGALRM``/``setitimer``: cheap, interrupts pure
    Python loops (the divergent-trial failure mode), and available in
    exactly the context pool workers execute in (POSIX main thread).
    Anywhere else — Windows, a caller running campaigns from a side
    thread — the timeout degrades to "no timeout", but no longer
    silently: the degradation warns once per process and counts every
    affected trial as ``pool.timeout_unavailable``.
    """
    if not seconds:
        yield
        return
    if signal is None:
        _note_timeout_unavailable("on this platform", metrics)
        yield
        return
    if threading.current_thread() is not threading.main_thread():
        _note_timeout_unavailable("off the main thread", metrics)
        yield
        return

    def _on_alarm(signum, frame):  # pragma: no cover - exercised via raise
        raise TrialTimeout(f"trial exceeded the per-trial timeout of {seconds}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute_one(
    spec: TrialSpec,
    trial_timeout: float | None,
    metrics=None,
    injector: "FaultInjector | None" = None,
) -> ExecutionResult:
    """Run one trial, capturing any failure as a full traceback string.

    With a *metrics* registry the trial is additionally timed
    (``campaign.trial`` span) — the registry is write-only, so the
    outcome is bit-identical with or without it. An armed *injector*
    fires its trial-targeted faults inside the deadline/error-capture
    scope, so injected failures surface exactly like organic ones.
    """
    import time

    from repro.experiments.runner import run_trial

    t0 = time.perf_counter() if metrics is not None else 0.0
    try:
        with _deadline(trial_timeout, metrics):
            if injector is not None:
                injector.before_trial(spec)
            outcome = run_trial(spec, metrics=metrics)
    except Exception:
        if metrics is not None:
            metrics.count("campaign.trial_failures")
        return ExecutionResult(
            spec=spec, outcome=None, error=traceback.format_exc()
        )
    seconds = None
    if metrics is not None:
        seconds = time.perf_counter() - t0
        metrics.observe_span("campaign.trial", seconds)
    return ExecutionResult(spec=spec, outcome=outcome, seconds=seconds)


def run_trial_batch(
    specs: list[TrialSpec],
    trial_timeout: float | None = None,
    collect_metrics: bool = False,
    fault_plan: "FaultPlan | None" = None,
) -> "tuple[list[tuple[str, Any]], list[float | None], Any]":
    """Worker entry point: run a chunk of trials in submission order.

    Returns ``(results, seconds, registry)``: one ``("ok", wire)`` or
    ``("error", traceback)`` pair per spec — the compact wire encoding
    keeps the result pickle small and skips ndarray reconstruction on
    the worker side of the boundary — plus per-trial wall times and the
    chunk's :class:`~repro.obs.registry.MetricsRegistry` wire, for the
    dispatching campaign to merge. Without ``collect_metrics`` the
    times and the registry are None.
    """
    metrics = None
    if collect_metrics:
        from repro.obs.registry import MetricsRegistry

        metrics = MetricsRegistry()
    injector = None
    if fault_plan is not None:
        from repro.chaos.inject import FaultInjector

        injector = FaultInjector(fault_plan)
    results: list[tuple[str, Any]] = []
    seconds: list[float | None] = []
    for spec in specs:
        result = _execute_one(spec, trial_timeout, metrics, injector)
        seconds.append(result.seconds)
        if result.outcome is not None:
            results.append(("ok", result.outcome.to_wire()))
        else:
            results.append(("error", result.error))
    return results, seconds, (None if metrics is None else metrics.to_wire())


def _warm_worker() -> None:
    """Per-worker initializer: import the hot modules exactly once.

    Registries, the engine, and the sanitizer config all import lazily
    somewhere on the trial path; doing it here moves that cost out of
    the first chunk each worker executes.
    """
    import repro.check.sanitizer  # noqa: F401
    import repro.core.registry  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.protocols.registry  # noqa: F401
    import repro.sim.engine  # noqa: F401
    import repro.sim.environment  # noqa: F401


class WorkerPool:
    """Lazily created, session-lifetime process pool.

    ``workers <= 1`` runs trials inline in this process — the mode
    tests and debuggers want — with identical result semantics
    (including ``trial_timeout`` and full-traceback error capture).
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        trial_timeout: float | None = None,
        metrics=None,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        self.workers = default_workers() if workers is None else max(0, workers)
        self.trial_timeout = trial_timeout
        #: Session MetricsRegistry (or None = metrics off). Inline
        #: trials write into it directly; parallel chunks return a
        #: per-chunk registry in the chunk wire format which is merged
        #: here as each chunk completes.
        self.metrics = metrics
        #: Armed chaos plan (or None = chaos off, the default). The
        #: plan crosses the process boundary with each chunk; workers
        #: rebuild their injector from it, so injection decisions stay
        #: the pure (seed, site, trial, attempt) function the plan
        #: defines. The supervisor swaps this per retry wave.
        self.fault_plan = fault_plan
        self._executor: ProcessPoolExecutor | None = None

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_warm_worker
            )
        return self._executor

    def _chunk_for(self, total: int) -> int:
        """Chunk size for a batch of *total* specs.

        Auto-tune: split the batch into ``_WAVES_PER_WORKER`` waves per
        worker (load balancing against straggler chunks) but never
        above ``_MAX_CHUNK`` trials per task, so result pickles and the
        inline recovery path stay bounded.
        """
        waves = max(1, self.workers * _WAVES_PER_WORKER)
        return max(1, min(_MAX_CHUNK, -(-total // waves)))

    def iter_execute(self, specs: list[TrialSpec]) -> Iterator[ExecutionResult]:
        """Run *specs*, yielding each result as soon as it is ready.

        Results arrive in submission order (deterministic), so a
        caller persisting them incrementally produces a reproducible
        artifact stream regardless of worker scheduling.
        """
        specs = list(specs)
        collect = self.metrics is not None
        plan = self.fault_plan
        injector = None
        if plan is not None:
            from repro.chaos.inject import FaultInjector

            if plan.origin_pid is None:
                # Stamp the owning process so worker-only faults (kill,
                # starve) can never fire inline — a retry or a recovery
                # on the inline path must always terminate.
                plan = plan.with_origin(os.getpid())
            injector = FaultInjector(plan)

        def inline(batch: list[TrialSpec]) -> Iterator[ExecutionResult]:
            for spec in batch:
                yield _execute_one(spec, self.trial_timeout, self.metrics, injector)

        if not self.parallel or len(specs) <= 1:
            yield from inline(specs)
            return

        chunk = self._chunk_for(len(specs))
        chunks = [specs[i : i + chunk] for i in range(0, len(specs), chunk)]
        window: deque[tuple[list[TrialSpec], ProcessPoolExecutor, Any]] = deque()
        pending = iter(chunks)
        max_window = max(2, self.workers * _WINDOW_PER_WORKER)

        def submit_next() -> bool:
            batch = next(pending, None)
            if batch is None:
                return False
            executor = self._ensure_executor()
            try:
                future = executor.submit(
                    run_trial_batch, batch, self.trial_timeout, collect, plan
                )
            except BrokenProcessPool as exc:  # broke since the last submit
                future = Future()
                future.set_exception(exc)
            window.append((batch, executor, future))
            return True

        while len(window) < max_window and submit_next():
            pass
        while window:
            batch, executor, future = window.popleft()
            try:
                outcomes, seconds, wire = future.result()
            except BrokenProcessPool:
                # A worker died (OOM kill, hard crash). Rebuild the
                # executor lazily and recover this chunk inline rather
                # than failing the whole campaign; sibling in-flight
                # chunks recover the same way as their futures fail,
                # and never drop the executor that replaced theirs.
                if self._executor is executor:
                    executor.shutdown(wait=False)
                    self._executor = None
                if self.metrics is not None:
                    self.metrics.count("pool.broken_pool_recoveries")
                results = list(inline(batch))
            else:
                if wire is not None:  # metrics on: merge the worker registry
                    from repro.obs.registry import MetricsRegistry

                    self.metrics.merge(MetricsRegistry.from_wire(wire))
                results = [
                    ExecutionResult(spec, Outcome.from_wire(result), seconds=secs)
                    if tag == "ok"
                    else ExecutionResult(spec, None, error=result)
                    for spec, (tag, result), secs in zip(batch, outcomes, seconds)
                ]
            submit_next()
            yield from results

    def execute(self, specs: list[TrialSpec]) -> list[ExecutionResult]:
        """Run *specs*, returning results in submission order."""
        return list(self.iter_execute(specs))

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
