"""Sanitizer overhead: what does `--sanitize` cost per trial?

Two faces:

- ``pytest benchmarks/bench_check.py --benchmark-only`` measures the
  same trial at each sanitizer setting as classic pytest-benchmark
  groups;
- ``python benchmarks/bench_check.py`` is the self-contained smoke
  check CI runs: it times off / counters / full on one representative
  attacked trial (interleaved rounds, min paired ratio:
  ``overhead_gate.py``), prints the overhead percentages, and exits
  non-zero if the ``counters`` preset exceeds its acceptance bound (10%
  over off by default) — the ``counters`` preset is the always-on
  candidate, so its overhead is a contract, not a curiosity. The
  ``full`` preset adds an O(N) knowledge scan per local step and is
  expected to be visibly slower; it is reported but not gated.
"""

from __future__ import annotations

import pytest

from repro.core.registry import make_adversary
from repro.protocols.registry import make_protocol
from repro.sim.engine import simulate

try:
    from benchmarks import overhead_gate
except ModuleNotFoundError:  # run as a script: benchmarks/ itself is sys.path[0]
    import overhead_gate

#: One representative attacked trial (paper scale F = 0.3 N).
TRIAL = {"protocol": "push-pull", "adversary": "ugf", "n": 100, "f": 30}

#: Label -> ``sanitize=`` value.
SETTINGS = {"off": None, "counters": "warn:counters", "full": "warn"}


def run_once(setting: str, seeds: int = 1) -> None:
    for seed in range(seeds):
        simulate(
            make_protocol(TRIAL["protocol"]),
            make_adversary(TRIAL["adversary"]),
            n=TRIAL["n"],
            f=TRIAL["f"],
            seed=seed,
            sanitize=SETTINGS[setting],
        )


@pytest.mark.benchmark(group="sanitizer")
@pytest.mark.parametrize("setting", SETTINGS, ids=list(SETTINGS))
def test_sanitizer_overhead(benchmark, setting):
    benchmark(run_once, setting)


def main(argv: "list[str] | None" = None) -> int:
    return overhead_gate.main(
        argv, doc=__doc__, trial=TRIAL, settings=SETTINGS, run_once=run_once,
        gated="counters", bound=10.0, what="counters preset",
    )


if __name__ == "__main__":
    raise SystemExit(main())
