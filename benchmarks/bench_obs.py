"""Observability overhead: what does `--metrics` cost per trial?

Two faces:

- ``pytest benchmarks/bench_obs.py --benchmark-only`` measures the
  same trial with metrics off / on as classic pytest-benchmark groups;
- ``python benchmarks/bench_obs.py`` is the self-contained smoke
  check CI runs: it times metrics-off and metrics-on on one
  representative attacked trial (interleaved rounds, min paired ratio:
  ``overhead_gate.py``), prints the overhead percentage, and exits
  non-zero when the metrics-on run exceeds its acceptance bound (5%
  over off by default). Metrics are the always-on candidate for long
  campaigns, so the overhead is a contract, not a curiosity — the
  engine inlines its span timing (one ``perf_counter`` pair per step,
  no context manager allocation) specifically to stay under this gate.
"""

from __future__ import annotations

import pytest

from repro.core.registry import make_adversary
from repro.obs import MetricsRegistry
from repro.protocols.registry import make_protocol
from repro.sim.engine import simulate

try:
    from benchmarks import overhead_gate
except ModuleNotFoundError:  # run as a script: benchmarks/ itself is sys.path[0]
    import overhead_gate

#: One representative attacked trial (paper scale F = 0.3 N).
TRIAL = {"protocol": "push-pull", "adversary": "ugf", "n": 100, "f": 30}

SETTINGS = ("off", "on")


def run_once(setting: str, seeds: int = 1) -> None:
    for seed in range(seeds):
        simulate(
            make_protocol(TRIAL["protocol"]),
            make_adversary(TRIAL["adversary"]),
            n=TRIAL["n"],
            f=TRIAL["f"],
            seed=seed,
            metrics=MetricsRegistry() if setting == "on" else False,
        )


@pytest.mark.benchmark(group="metrics")
@pytest.mark.parametrize("setting", SETTINGS, ids=SETTINGS)
def test_metrics_overhead(benchmark, setting):
    benchmark(run_once, setting)


def main(argv: "list[str] | None" = None) -> int:
    return overhead_gate.main(
        argv, doc=__doc__, trial=TRIAL, settings=SETTINGS, run_once=run_once,
        gated="on", bound=5.0, what="metrics",
    )


if __name__ == "__main__":
    raise SystemExit(main())
