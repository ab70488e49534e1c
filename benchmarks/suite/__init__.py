"""The repo benchmark: five sweep workloads, one command.

``python3 benchmarks/suite/run.py --workload W --seed S --seconds T
--trace 0|1`` is the entry ``BENCHMARK.json`` names (one workload, one
JSON result line); ``PYTHONPATH=src python -m benchmarks.suite run`` /
``compare`` is the same instrument for people. See README.md here for
why each workload exists and what every metric means.

Nothing under ``src/`` knows about this package: layers are measured
from outside, through their public entry points only.
"""

#: The seed the pinned digests in digests.json belong to.
DEFAULT_SEED = 0

#: Matches ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 10.0
