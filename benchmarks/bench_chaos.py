"""Supervisor overhead: what does fault-tolerant execution cost when
nothing faults?

Two faces:

- ``pytest benchmarks/bench_chaos.py --benchmark-only`` measures the
  same batch of trials run plain vs supervised as classic
  pytest-benchmark groups;
- ``python benchmarks/bench_chaos.py`` is the self-contained smoke
  check CI runs: it times a fault-free batch through
  ``Campaign.run_trials`` and through a :class:`Supervisor` with no
  fault plan armed (interleaved rounds, min paired ratio:
  ``overhead_gate.py``), prints the overhead percentage, and exits
  non-zero when the supervised run exceeds its acceptance bound (5%
  over plain by default). The supervisor is meant to wrap *every* long
  campaign — classification, the quarantine ledger and the degradation
  ladder must all collapse to near-nothing on the happy path, so the
  overhead is a contract, not a curiosity.
"""

from __future__ import annotations

import pytest

from repro.campaign import Campaign
from repro.chaos.supervisor import Supervisor
from repro.experiments.config import TrialSpec

try:
    from benchmarks import overhead_gate
except ModuleNotFoundError:  # run as a script: benchmarks/ itself is sys.path[0]
    import overhead_gate

#: One representative attacked trial (paper scale F = 0.3 N).
TRIAL = {"protocol": "push-pull", "adversary": "ugf", "n": 100, "f": 30}

SETTINGS = ("plain", "supervised")


def run_once(setting: str, seeds: int = 1) -> None:
    # In-memory, cache-off, inline: every timing executes the same
    # work, and the only difference between settings is the supervisor
    # wrapper itself.
    with Campaign(cache_dir=None, workers=1, use_cache=False) as campaign:
        specs = [TrialSpec(seed=seed, **TRIAL) for seed in range(seeds)]
        if setting == "supervised":
            run = Supervisor(campaign).run_trials(specs)
            assert run.verdict == "clean"
        else:
            results = campaign.run_trials(specs)
            assert all(r.ok for r in results)


@pytest.mark.benchmark(group="supervisor")
@pytest.mark.parametrize("setting", SETTINGS, ids=SETTINGS)
def test_supervisor_overhead(benchmark, setting):
    benchmark(run_once, setting)


def main(argv: "list[str] | None" = None) -> int:
    return overhead_gate.main(
        argv, doc=__doc__, trial=TRIAL, settings=SETTINGS, run_once=run_once,
        gated="supervised", bound=5.0, what="supervisor",
    )


if __name__ == "__main__":
    raise SystemExit(main())
