"""Campaign layer: unified experiment execution.

Every experiment module (Figure 3 panels, ablations, decomposition,
the trade-off frontier and the full report) runs its trials through a
:class:`Campaign`, which provides

- a **content-addressed trial cache** (:func:`trial_key` over the
  spec, persisted as append-only JSONL by :class:`TrialStore`) so
  identical trials are computed exactly once — within a session and,
  with a cache dir, across sessions;
- a **shared worker pool** (:class:`WorkerPool`) created lazily once
  per session instead of once per sweep;
- **resumability** — an interrupted run restarts and replays completed
  trials from the store — and per-trial **progress telemetry**
  (:class:`ProgressEvent` / :class:`CampaignStats`).

See docs/CAMPAIGN.md for the cache layout and hashing contract.
"""

from repro.campaign.campaign import (
    ENV_CACHE_DIR,
    Campaign,
    TrialResult,
    default_cache_dir,
)
from repro.campaign.keys import KEY_VERSION, spec_fingerprint, trial_key
from repro.campaign.pool import (
    ExecutionResult,
    TrialTimeout,
    WorkerPool,
    default_workers,
    run_trial_batch,
)
from repro.campaign.progress import CampaignStats, ProgressCallback, ProgressEvent
from repro.campaign.store import CompactionReport, TrialStore

__all__ = [
    "Campaign",
    "TrialResult",
    "default_cache_dir",
    "ENV_CACHE_DIR",
    "KEY_VERSION",
    "trial_key",
    "spec_fingerprint",
    "WorkerPool",
    "ExecutionResult",
    "TrialTimeout",
    "default_workers",
    "run_trial_batch",
    "CampaignStats",
    "ProgressCallback",
    "ProgressEvent",
    "TrialStore",
    "CompactionReport",
]
