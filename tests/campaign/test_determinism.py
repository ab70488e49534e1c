"""Execution-path determinism: every route to an outcome is byte-identical.

The campaign layer offers three ways to satisfy the same specs —
inline execution, chunked parallel dispatch through the worker pool,
and replay from a persisted cache. The paper's experiments assume the
route is irrelevant; these tests pin that down at the strongest
available granularity: the JSON-serialised wire encoding of every
outcome must be identical byte for byte.
"""

import json

from repro.campaign import Campaign
from repro.experiments.config import SweepSpec

SWEEP = SweepSpec(
    protocol="push-pull",
    adversary="ugf",
    n_values=(10, 14),
    seeds=(0, 1, 2),
)


def wire_bytes(results):
    return [
        json.dumps(r.outcome.to_wire(), separators=(",", ":"))
        for r in results
    ]


def test_inline_parallel_and_resumed_runs_are_byte_identical(tmp_path):
    specs = list(SWEEP.trials())

    with Campaign(workers=1) as campaign:
        inline = campaign.run_trials(specs)
    assert all(r.ok for r in inline)

    with Campaign(workers=2, cache_dir=tmp_path) as campaign:
        parallel = campaign.run_trials(specs)
    assert all(r.ok for r in parallel)
    assert not any(r.cached for r in parallel)

    with Campaign(workers=2, cache_dir=tmp_path) as campaign:
        resumed = campaign.run_trials(specs)
    assert all(r.cached for r in resumed)

    assert (
        wire_bytes(inline) == wire_bytes(parallel) == wire_bytes(resumed)
    )
