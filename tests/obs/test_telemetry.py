"""Telemetry sink/reader unit tests plus campaign integration."""

from __future__ import annotations

import json

from repro.campaign import Campaign
from repro.experiments.config import TrialSpec
from repro.obs import (
    TELEMETRY_FILENAME,
    TELEMETRY_VERSION,
    TelemetrySink,
    read_telemetry,
    telemetry_path,
)
from repro.obs.telemetry import records_of_kind


def _specs(seeds=(0, 1)):
    return [
        TrialSpec(protocol="push-pull", adversary="ugf", n=16, f=4, seed=s)
        for s in seeds
    ]


class TestTelemetryPath:
    def test_directory_gets_filename_appended(self, tmp_path):
        assert telemetry_path(tmp_path) == tmp_path / TELEMETRY_FILENAME

    def test_jsonl_path_passes_through(self, tmp_path):
        explicit = tmp_path / "telemetry.jsonl"
        assert telemetry_path(explicit) == explicit


class TestTelemetrySink:
    def test_emit_writes_versioned_lines(self, tmp_path):
        path = tmp_path / TELEMETRY_FILENAME
        with TelemetrySink(path) as sink:
            sink.emit("trial", status="executed", seed=3)
            sink.emit("phase", trials=1)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["v"] == TELEMETRY_VERSION
        assert first["kind"] == "trial"
        assert first["seed"] == 3
        assert sink.records_written == 2

    def test_lazy_open_leaves_no_empty_file(self, tmp_path):
        path = tmp_path / TELEMETRY_FILENAME
        with TelemetrySink(path):
            pass
        assert not path.exists()

    def test_io_failure_is_swallowed(self, tmp_path):
        # Parent "directory" is a file: open() fails, emit must not raise.
        bad_parent = tmp_path / "not-a-dir"
        bad_parent.write_text("x")
        sink = TelemetrySink(bad_parent / TELEMETRY_FILENAME)
        sink.emit("trial", status="executed")
        assert sink.records_written == 0

    def test_appends_across_sessions(self, tmp_path):
        path = tmp_path / TELEMETRY_FILENAME
        with TelemetrySink(path) as sink:
            sink.emit("trial")
        with TelemetrySink(path) as sink:
            sink.emit("trial")
        records, skipped = read_telemetry(path)
        assert len(records) == 2
        assert skipped == 0


class TestReadTelemetry:
    def test_missing_file_is_empty_not_error(self, tmp_path):
        records, skipped = read_telemetry(tmp_path)
        assert records == []
        assert skipped == 0

    def test_corrupt_and_truncated_lines_are_skipped_and_counted(self, tmp_path):
        path = tmp_path / TELEMETRY_FILENAME
        path.write_text(
            '{"v":1,"kind":"trial","seed":0}\n'
            "not json at all\n"
            '{"v":1,"kind":"phase",\n'  # truncated by a crash
            "[1,2,3]\n"  # valid JSON, not an object
            '{"v":"x","kind":"trial"}\n'  # non-int version
            '{"v":1,"kind":"trial","seed":1}\n'
        )
        records, skipped = read_telemetry(path)
        assert [r.data.get("seed") for r in records] == [0, 1]
        assert skipped == 4

    def test_unversioned_records_are_skipped_and_counted(self, tmp_path):
        path = tmp_path / TELEMETRY_FILENAME
        path.write_text(
            '{"kind":"trial","status":"executed"}\n'
            '{"v":1,"kind":"trial","status":"cached"}\n'
        )
        records, skipped = read_telemetry(path)
        assert skipped == 1
        assert [(r.version, r.data["status"]) for r in records] == [(1, "cached")]

    def test_missing_kind_loads_as_unknown(self, tmp_path):
        path = tmp_path / TELEMETRY_FILENAME
        path.write_text('{"v":1,"payload":42}\n')
        records, _ = read_telemetry(path)
        assert records[0].kind == "unknown"
        assert records[0].data == {"payload": 42}

    def test_newer_versions_pass_through(self, tmp_path):
        path = tmp_path / TELEMETRY_FILENAME
        path.write_text('{"v":99,"kind":"hologram","x":1}\n')
        records, skipped = read_telemetry(path)
        assert skipped == 0
        assert records[0].version == 99
        assert records[0].kind == "hologram"

    def test_records_of_kind_filters(self, tmp_path):
        path = tmp_path / TELEMETRY_FILENAME
        with TelemetrySink(path) as sink:
            sink.emit("trial", seed=0)
            sink.emit("phase", trials=1)
            sink.emit("trial", seed=1)
        records, _ = read_telemetry(path)
        assert len(records_of_kind(records, "trial")) == 2
        assert len(records_of_kind(records, "phase")) == 1


class TestCampaignTelemetry:
    def test_metrics_campaign_streams_trial_phase_registry(self, tmp_path):
        # Scalar-only cell (coordinator has no vectorized kernel):
        # the registry assertion below reads the scalar engine's
        # engine.trials counter, which a batch-routed sweep won't bump.
        specs = [
            TrialSpec(protocol="coordinator", adversary="ugf", n=16, f=4, seed=s)
            for s in (0, 1)
        ]
        with Campaign(cache_dir=tmp_path, workers=0, metrics=True) as campaign:
            results = campaign.run_trials(specs)
        assert all(r.ok for r in results)
        records, skipped = read_telemetry(tmp_path)
        assert skipped == 0
        trials = records_of_kind(records, "trial")
        assert len(trials) == 2
        assert {t.data["status"] for t in trials} == {"executed"}
        assert all(t.data["seconds"] > 0 for t in trials)
        assert all(t.data["protocol"] == "coordinator" for t in trials)
        phases = records_of_kind(records, "phase")
        assert len(phases) == 1
        assert phases[0].data["trials"] == 2
        assert phases[0].data["executed"] == 2
        registries = records_of_kind(records, "registry")
        assert len(registries) == 1
        from repro.obs import MetricsRegistry

        merged = MetricsRegistry.from_wire(registries[0].data["metrics"])
        assert merged.counter_value("engine.trials") == 2

    def test_cached_trials_are_recorded_as_cached(self, tmp_path):
        with Campaign(cache_dir=tmp_path, workers=0, metrics=True) as campaign:
            campaign.run_trials(_specs())
        with Campaign(cache_dir=tmp_path, workers=0, metrics=True) as campaign:
            campaign.run_trials(_specs())
        records, _ = read_telemetry(tmp_path)
        statuses = [r.data["status"] for r in records_of_kind(records, "trial")]
        assert statuses.count("executed") == 2
        assert statuses.count("cached") == 2

    def test_failed_trials_carry_truncated_error(self, tmp_path):
        bad = TrialSpec(
            protocol="push-pull", adversary="ugf", n=10, f=20, seed=0
        )  # F > N: rejected at simulator construction
        # backend="scalar": under auto the batch backend rejects the spec
        # first and the demotion to scalar is (rightly) a RuntimeWarning.
        with Campaign(
            cache_dir=tmp_path, workers=0, metrics=True, backend="scalar"
        ) as campaign:
            results = campaign.run_trials([bad])
        assert not results[0].ok
        records, _ = read_telemetry(tmp_path)
        failed = records_of_kind(records, "trial")[0]
        assert failed.data["status"] == "failed"
        assert failed.data["error"]

    def test_metrics_off_campaign_writes_no_telemetry(self, tmp_path):
        with Campaign(cache_dir=tmp_path, workers=0) as campaign:
            campaign.run_trials(_specs())
        assert not telemetry_path(tmp_path).exists()
