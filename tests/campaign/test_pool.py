"""Unit tests for the chunked worker pool."""

import json
import threading
import warnings
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

from repro.campaign import pool as pool_mod
from repro.campaign.pool import WorkerPool, run_trial_batch
from repro.experiments.config import TrialSpec
from repro.sim.outcome import Outcome


def trial(seed: int = 0, **overrides) -> TrialSpec:
    base = dict(protocol="flood", adversary="none", n=8, f=0, seed=seed)
    base.update(overrides)
    return TrialSpec(**base)


def wires(results):
    return [json.dumps(r.outcome.to_wire()) for r in results]


# -- chunk auto-tuning -----------------------------------------------------------


def test_chunk_size_auto_tunes_to_waves_per_worker():
    pool = WorkerPool(4)
    # 4 workers * 4 waves = 16 target chunks.
    assert pool._chunk_for(16) == 1
    assert pool._chunk_for(160) == 10
    # ...but never above the hard cap.
    assert pool._chunk_for(100_000) == 64


# -- result semantics ------------------------------------------------------------


def test_inline_pool_preserves_submission_order():
    specs = [trial(seed) for seed in range(5)]
    with WorkerPool(1) as pool:
        results = pool.execute(specs)
    assert [r.spec for r in results] == specs
    assert all(r.ok for r in results)


def test_parallel_chunked_matches_inline():
    specs = [trial(seed) for seed in range(6)]
    with WorkerPool(1) as inline_pool:
        inline = inline_pool.execute(specs)
    with WorkerPool(2) as pool:
        chunked = pool.execute(specs)
    assert [r.spec for r in chunked] == specs
    assert wires(chunked) == wires(inline)


def test_error_carries_the_full_worker_traceback():
    specs = [trial(0), trial(0, adversary="no-such-adversary"), trial(1)]
    with WorkerPool(1) as pool:
        ok1, failed, ok2 = pool.execute(specs)
    assert ok1.ok and ok2.ok and not failed.ok
    assert "Traceback (most recent call last)" in failed.error
    assert "no-such-adversary" in failed.error


def test_run_trial_batch_returns_tagged_wire_pairs():
    specs = [trial(0), trial(0, protocol="no-such-protocol")]
    # One chunk shape whether metrics are on or off: (results, seconds,
    # registry wire); only the timings and the registry differ.
    for collect in (False, True):
        results, seconds, registry = run_trial_batch(specs, None, collect)
        assert [tag for tag, _ in results] == ["ok", "error"]
        outcome = Outcome.from_wire(results[0][1])
        assert outcome.n == 8 and outcome.completed
        assert "Traceback" in results[1][1]
        assert len(seconds) == len(specs)
        if collect:
            assert seconds[0] > 0 and registry is not None
        else:
            assert seconds == [None, None] and registry is None


def test_trial_timeout_fails_the_trial_not_the_batch():
    # A 50-process trial takes milliseconds; a microsecond budget
    # must trip while the spec stays otherwise valid.
    specs = [trial(0), trial(1, n=50, f=15, adversary="ugf")]
    with WorkerPool(1, trial_timeout=1e-6) as pool:
        results = pool.execute(specs)
    assert all(not r.ok for r in results)
    assert all("TrialTimeout" in r.error for r in results)
    with WorkerPool(1, trial_timeout=60.0) as pool:
        assert all(r.ok for r in pool.execute(specs))


# -- broken-pool recovery --------------------------------------------------------


class _BrokenExecutor:
    """Stub executor whose every future dies like an OOM-killed worker."""

    def __init__(self):
        self.submitted = 0

    def submit(self, fn, *args, **kwargs):
        self.submitted += 1
        future = Future()
        future.set_exception(BrokenProcessPool("a worker died abruptly"))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_broken_pool_recovers_chunks_inline():
    specs = [trial(seed) for seed in range(8)]
    with WorkerPool(1) as inline_pool:
        expected = wires(inline_pool.execute(specs))
    pool = WorkerPool(2)
    broken = _BrokenExecutor()
    pool._executor = broken
    try:
        results = pool.execute(specs)
    finally:
        pool.close()
    # Auto-tuned chunks of 1 (2 workers x 4 waves over 8 trials): the
    # dead executor got the in-flight window of 4, which re-ran inline;
    # the rest went to the rebuilt executor. Results are complete,
    # correct, and still in submission order.
    assert broken.submitted == 4
    assert [r.spec for r in results] == specs
    assert wires(results) == expected


class _DyingExecutor:
    """Stub executor whose worker dies once its first chunk is accepted:
    that chunk completes, every later submit is refused — what a real
    executor does once it knows it is broken."""

    def __init__(self):
        self.submitted = 0

    def submit(self, fn, *args, **kwargs):
        self.submitted += 1
        if self.submitted > 1:
            raise BrokenProcessPool("a worker died abruptly")
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_submit_to_a_broken_pool_recovers_inline():
    # A worker can die between two submits: the refused chunks recover
    # inline like lost ones, and the chunks still in flight on the dead
    # executor never drop the one rebuilt after it.
    specs = [trial(seed) for seed in range(8)]
    with WorkerPool(1) as inline_pool:
        expected = wires(inline_pool.execute(specs))
    pool = WorkerPool(2)
    pool._executor = _DyingExecutor()
    try:
        results = pool.execute(specs)
    finally:
        pool.close()
    assert [r.spec for r in results] == specs
    assert wires(results) == expected


def test_sigkilled_worker_mid_chunk_recovers_and_pool_survives():
    # Not a stub: an armed worker.kill plan SIGKILLs the live worker
    # process while it executes seed 1, mid-chunk. The resulting
    # BrokenProcessPool must be recovered inline (where the pid guard
    # disarms the kill) with no result lost, and the pool must come
    # back for the next batch.
    from repro.chaos.plan import FaultPlan, FaultRule
    from repro.obs.registry import MetricsRegistry

    plan = FaultPlan(
        seed=1, rules=(FaultRule(site="worker.kill", rate=1.0, seeds=(1,)),)
    )
    specs = [trial(seed) for seed in range(6)]
    with WorkerPool(1) as inline_pool:
        expected = wires(inline_pool.execute(specs))
    metrics = MetricsRegistry()
    with WorkerPool(2, metrics=metrics, fault_plan=plan) as pool:
        results = pool.execute(specs)
        # The kill really happened — recovery ran, results are whole.
        assert metrics.counters["pool.broken_pool_recoveries"] >= 1
        assert [r.spec for r in results] == specs
        assert all(r.ok for r in results)
        # The executor was rebuilt: a second batch (not targeting the
        # killed seed) runs in fresh workers without incident.
        survivors = [trial(seed) for seed in (2, 3, 4, 5)]
        assert all(r.ok for r in pool.execute(survivors))


# -- timeout degradation ---------------------------------------------------------


def test_deadline_off_main_thread_warns_once_and_counts(monkeypatch):
    from repro.obs.registry import MetricsRegistry

    monkeypatch.setattr(pool_mod, "_timeout_warned", False)
    metrics = MetricsRegistry()
    caught: list[warnings.WarningMessage] = []

    def body() -> None:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pool_mod._deadline(0.1, metrics):
                pass
            with pool_mod._deadline(0.1, metrics):
                pass
            caught.extend(seen)

    thread = threading.Thread(target=body)
    thread.start()
    thread.join()
    # Every affected trial is counted; the warning fires exactly once.
    assert metrics.counters["pool.timeout_unavailable"] == 2
    degradations = [
        w for w in caught if issubclass(w.category, RuntimeWarning)
    ]
    assert len(degradations) == 1
    assert "off the main thread" in str(degradations[0].message)


def test_deadline_without_signal_support_warns(monkeypatch):
    from repro.obs.registry import MetricsRegistry

    monkeypatch.setattr(pool_mod, "signal", None)
    monkeypatch.setattr(pool_mod, "_timeout_warned", False)
    metrics = MetricsRegistry()
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pool_mod._deadline(1.0, metrics):
            pass
    assert metrics.counters["pool.timeout_unavailable"] == 1
    assert any("on this platform" in str(w.message) for w in seen)
