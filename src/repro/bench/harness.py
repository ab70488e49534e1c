"""Environment fingerprint for benchmark results.

All that is left of the pre-suite throughput harness and its ``bench``
subcommand; measuring now lives in ``benchmarks/suite/`` alone
(docs/PERFORMANCE.md). The fingerprint stays at this import path because
``benchmarks/suite/__main__.py`` imports it from here for every
``results.json``, and that directory is frozen by ``BENCHMARK.json`` —
move it only in a change that may also repoint that import.
"""

from __future__ import annotations

import os
import pathlib
import platform
import subprocess
from typing import Any

__all__ = ["environment_fingerprint"]


def _git_revision(repo_root: pathlib.Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _repo_root() -> pathlib.Path:
    # src/repro/bench/harness.py -> repo root is three parents up from
    # the package dir (harness.py -> bench -> repro -> src -> root).
    return pathlib.Path(__file__).resolve().parents[3]


def environment_fingerprint() -> dict[str, Any]:
    """Where a result came from — enough to judge comparability."""
    import numpy as np

    from repro.campaign.keys import KEY_VERSION
    from repro.sim.outcome import WIRE_VERSION

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "git": _git_revision(_repo_root()),
        "wire_version": WIRE_VERSION,
        "key_version": KEY_VERSION,
    }
