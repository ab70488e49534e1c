"""One point of the repo's performance trajectory.

``PYTHONPATH=src python -m benchmarks.trajectory <results-dir> [...]``
summarises every ``results.json`` under each directory (an ``--out`` of
``python -m benchmarks.suite run``) and writes ``BENCH_<UTC stamp>.json``
at the repo root: one set per directory, labelled by the directory's
name (``parent``, ``change``), so two directories of one name are an
error, not a point that silently keeps the second. Layout:
docs/PERFORMANCE.md.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

from benchmarks.suite.compare import load_set, summarize
from repro.bench.harness import environment_fingerprint

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _summaries(directory: pathlib.Path) -> dict:
    found = {key: summarize(values) for key, values in sorted(load_set(directory).items())}
    return {f"{w}/{m}": {"median": s.median, "q1": s.q1, "q3": s.q3, "n": s.n} for (w, m), s in found.items()}


def main(argv: list[str]) -> None:
    if not argv:
        raise SystemExit(__doc__)
    directories = [pathlib.Path(arg) for arg in argv]
    labels = [directory.name for directory in directories]
    if len(set(labels)) < len(labels):
        raise SystemExit(f"trajectory: two directories share a label (their last component): {labels}")
    env = environment_fingerprint()
    sets = {directory.name: _summaries(directory) for directory in directories}
    point = {"schema": 2, "instrument": "benchmarks/suite", "git": env["git"], "environment": env, "sets": sets}
    path = ROOT / f"BENCH_{time.strftime('%Y%m%dT%H%M%SZ', time.gmtime())}.json"
    path.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
