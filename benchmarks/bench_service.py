"""Campaign-service latency: what does a warm cache hit cost over a socket?

Two faces:

- ``pytest benchmarks/bench_service.py --benchmark-only`` measures the
  warm-hit round trip (client submit -> daemon store hit -> outcome
  frame back) as classic pytest-benchmark groups, single-trial and
  batched;
- ``python benchmarks/bench_service.py`` is the self-contained smoke
  check CI runs: it stands up a real daemon on a unix socket, primes
  the sharded store, times warm-hit round trips (best-of-R to damp
  scheduler noise), and exits non-zero when the single-trial warm hit
  exceeds its acceptance bound. The service's pitch is that a fleet
  of clients shares one cache *cheaply* — a warm hit that costs more
  than a few dozen milliseconds would be slower than just recomputing
  small trials locally, so the latency is a contract, not a curiosity.

The CI stage also gates the *retry-policy overhead*: the resilient
client (bounded reconnect loop, ISSUE 10) must cost within 5% of the
plain single-shot client on the same warm hit (interleaved rounds, min
paired ratio: ``overhead_gate.py``) — the failure handling is
bookkeeping around the happy path, never a tax on it.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

import pytest

from repro.campaign import Campaign
from repro.experiments.config import TrialSpec
from repro.service import ServiceClient
from repro.service.client import DEFAULT_RETRY_POLICY
from repro.service.server import ServiceThread

try:
    from benchmarks import overhead_gate
except ModuleNotFoundError:  # run as a script: benchmarks/ itself is sys.path[0]
    import overhead_gate

#: Cheap representative trials: the round trip, not the simulation,
#: must dominate a warm hit, so small cells keep the signal clean.
BATCH = 16

#: The two clients the retry-policy gate compares, the baseline first.
SETTINGS = ("plain", "resilient")
#: Warm hits per timing: one sub-millisecond round trip is too short to ratio.
TRIPS = 50


def specs(count: int = BATCH) -> list[TrialSpec]:
    return [
        TrialSpec(protocol="flood", adversary="none", n=8, f=2, seed=seed)
        for seed in range(count)
    ]


class _LiveService:
    """A primed daemon + connected client, torn down deterministically."""

    def __enter__(self) -> "_LiveService":
        self._dir = tempfile.TemporaryDirectory(prefix="bench-service-")
        root = self._dir.name
        campaign = Campaign(
            cache_dir=f"{root}/cache", workers=0, store_backend="sharded"
        )
        self.host = ServiceThread(campaign, unix_path=f"{root}/svc.sock")
        self.host.start()
        #: The PR-7 single-shot client: no retry loop at all.
        self.client = ServiceClient(self.host.url, timeout=120).connect()
        #: The resilient client every ServiceCampaign runs by default.
        self.resilient = ServiceClient(
            self.host.url, timeout=120, retry_policy=DEFAULT_RETRY_POLICY
        ).connect()
        self.cold_seconds = self._timed_submit()  # prime the store
        return self

    def _timed_submit(self, count: int = BATCH) -> float:
        start = time.perf_counter()
        replies = self.client.submit(specs(count))
        elapsed = time.perf_counter() - start
        assert all(r.wire is not None for r in replies)
        return elapsed

    def run_once(self, setting: str, trips: int = 1) -> None:
        """*trips* warm single-trial round trips through one of SETTINGS."""
        client = self.client if setting == "plain" else self.resilient
        for _ in range(trips):
            (reply,) = client.submit(specs(1))
            assert reply.status == "hit", reply.status

    def warm_batch(self) -> None:
        replies = self.client.submit(specs())
        assert all(r.status == "hit" for r in replies)

    def __exit__(self, *exc: object) -> None:
        self.client.close()
        self.resilient.close()
        self.host.stop()
        self._dir.cleanup()


@pytest.fixture(scope="module")
def live():
    with _LiveService() as service:
        yield service


@pytest.mark.benchmark(group="service-warm-hit")
def test_warm_hit_round_trip(benchmark, live):
    benchmark(live.run_once, "plain")


@pytest.mark.benchmark(group="service-warm-hit")
def test_warm_hit_batch_round_trip(benchmark, live):
    benchmark(live.warm_batch)


@pytest.mark.benchmark(group="service-warm-hit")
def test_warm_hit_resilient_round_trip(benchmark, live):
    benchmark(live.run_once, "resilient")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=20, help="round trips (best wins)"
    )
    parser.add_argument(
        "--fail-over-ms",
        type=float,
        default=25.0,
        metavar="MS",
        help="exit 1 if the best warm single-trial round trip costs "
        "more than MS milliseconds (<= 0 disables the gate)",
    )
    parser.add_argument(
        "--fail-overhead",
        type=float,
        default=1.05,
        metavar="RATIO",
        help="exit 1 if the resilient client's warm hits cost more than "
        "RATIO x the plain client's in every paired round (<= 0 disables "
        "the gate)",
    )
    args = parser.parse_args(argv)

    with _LiveService() as service:
        singles, batches = [], []
        for _ in range(args.repeats):
            start = time.perf_counter()
            service.run_once("plain")
            singles.append(time.perf_counter() - start)
            start = time.perf_counter()
            service.warm_batch()
            batches.append(time.perf_counter() - start)
        rounds = overhead_gate.measure_rounds(
            service.run_once, SETTINGS, TRIPS, args.repeats
        )
        cold = service.cold_seconds

    best_single = min(singles) * 1000.0
    best_batch = min(batches) * 1000.0
    best_resilient = min(r[1] for r in rounds) / TRIPS * 1000.0
    overhead = overhead_gate.paired_overhead_pct(rounds)
    print(f"campaign service warm-hit round trip ({service.host.url}):")
    print(f"  cold batch of {BATCH}   {cold * 1000.0:8.1f} ms")
    print(f"  warm single (best of {args.repeats})  {best_single:8.2f} ms")
    print(
        f"  warm batch of {BATCH} (best)  {best_batch:8.2f} ms "
        f"({best_batch / BATCH:.2f} ms/trial)"
    )
    print(
        f"  warm single, resilient client  {best_resilient:8.2f} ms "
        f"({overhead:+.1f}% vs plain, best paired round of {TRIPS} hits)"
    )

    failed = False
    if args.fail_over_ms > 0 and best_single > args.fail_over_ms:
        print(
            f"FAIL: warm hit costs {best_single:.2f} ms, "
            f"over the {args.fail_over_ms:.0f} ms bound",
            file=sys.stderr,
        )
        failed = True
    if args.fail_overhead > 0 and overhead > (args.fail_overhead - 1.0) * 100.0:
        print(
            f"FAIL: resilient client costs {overhead:+.1f}% over plain — over "
            f"the {args.fail_overhead:.2f}x retry-policy overhead bound",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
