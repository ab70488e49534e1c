"""Observability: process-local metrics and structured run telemetry.

``repro.obs`` is the zero-dependency instrumentation layer of the
reproduction:

- :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges and
  fixed-bucket histograms plus lightweight span timers, mergeable
  across worker processes through a schema-versioned wire encoding;
- :class:`~repro.obs.telemetry.TelemetrySink` — a structured
  ``telemetry.jsonl`` stream of per-trial and per-phase records
  written alongside the campaign trial store (tolerant reader: bad
  lines are skipped and counted);
- :mod:`repro.obs.stats` — the aggregation and ASCII rendering behind
  ``repro-ugf stats <run-dir>``.

Everything here is off by default and guarded by ``None`` checks on
the hot paths: a metrics-off run executes exactly the same
instructions as before this layer existed, and a metrics-on run is
guaranteed (by the differential test battery in ``tests/obs``) to
produce byte-identical outcome wire encodings — instrumentation
observes the simulation, it never participates in it.

Enable with ``--metrics`` on the CLI or ``REPRO_METRICS=1`` in the
environment. See docs/OBSERVABILITY.md.
"""

from repro.obs.registry import (
    ENV_METRICS,
    METRICS_WIRE_VERSION,
    Histogram,
    MetricsRegistry,
    resolve_metrics,
)
from repro.obs.stats import load_run_stats, render_registry, render_run_stats
from repro.obs.telemetry import (
    TELEMETRY_FILENAME,
    TELEMETRY_VERSION,
    TelemetryRecord,
    TelemetrySink,
    read_telemetry,
    telemetry_path,
)

__all__ = [
    "ENV_METRICS",
    "METRICS_WIRE_VERSION",
    "Histogram",
    "MetricsRegistry",
    "resolve_metrics",
    "TELEMETRY_FILENAME",
    "TELEMETRY_VERSION",
    "TelemetryRecord",
    "TelemetrySink",
    "read_telemetry",
    "telemetry_path",
    "load_run_stats",
    "render_registry",
    "render_run_stats",
]
