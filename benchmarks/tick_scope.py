"""Which program files a PR must leave alone to keep the suite's host clock.

``python -m benchmarks.tick_scope <workload>`` (PYTHONPATH=src) runs one
smoke round in-process with ``hostclock.tick`` wrapped to snapshot
``sys.modules`` at every call, and prints the source files of the ``repro.*``
modules present at the **last** tick: editing one changes what is allocated
before the reference kernel last runs, which can re-roll host-normalised
``cold_scalar`` / ``svc_cold_shared`` by 15-25 % (docs/PERFORMANCE.md, "What
a PR may touch until the tick is fixed"). ``--diff REV`` exits 1 if ``git
diff --name-only REV`` names one of them. One workload per process:
``sys.modules`` is process-global, so a second run would count what the first
imported after its measurement. Delete with ROADMAP item 3.
"""

from __future__ import annotations

import argparse
import pathlib
import subprocess
import sys

from benchmarks.suite import hostclock
from benchmarks.suite.runner import run_workload
from benchmarks.suite.workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--diff", metavar="REV", help="exit 1 if the diff to REV is in scope")
    args = parser.parse_args(argv)

    real_tick, at_last_tick = hostclock.tick, set()

    def spying_tick() -> float:
        at_last_tick.clear()
        at_last_tick.update(m for m in sys.modules if m.partition(".")[0] == "repro")
        return real_tick()

    hostclock.tick = spying_tick
    try:
        run_workload(WORKLOADS[args.workload], seed=0, seconds=0, traced=False, smoke=True)
    finally:
        hostclock.tick = real_tick
    files = {str(pathlib.Path(sys.modules[m].__file__).relative_to(ROOT)) for m in at_last_tick}
    print("\n".join(sorted(files)))
    if args.diff is None:
        return 0
    diff = subprocess.run(
        ["git", "diff", "--name-only", args.diff], cwd=ROOT, check=True, capture_output=True, text=True
    )
    hits = sorted(files & set(diff.stdout.split()))
    print(f"{len(files)} tick-relevant files; changed since {args.diff}: {hits or 'none'}", file=sys.stderr)
    return 1 if hits else 0


if __name__ == "__main__":
    raise SystemExit(main())
