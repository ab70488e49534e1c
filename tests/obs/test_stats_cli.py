"""CLI surface: `repro-ugf stats`, `run --metrics`, the sweep telemetry note."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import telemetry_path


@pytest.fixture
def metrics_run(tmp_path):
    """A tiny real campaign executed with --metrics; returns its dir.

    Uses a scalar-only protocol (no vectorized coordinator
    kernel): the assertions below read scalar-engine spans
    (engine.step, engine.trials), which a batch-routed cell would not
    emit.
    """
    run_dir = tmp_path / "run"
    rc = main(
        [
            "sweep",
            "--protocol",
            "coordinator",
            "--n",
            "12",
            "--seeds",
            "2",
            "--metrics",
            "--cache-dir",
            str(run_dir),
        ]
    )
    assert rc == 0
    assert telemetry_path(run_dir).exists()
    return run_dir


class TestStatsCommand:
    def test_renders_real_telemetry(self, metrics_run, capsys):
        assert main(["stats", str(metrics_run)]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert "top" in out and "spans by total time" in out
        assert "engine.step" in out
        assert "counters" in out
        assert "engine.trials" in out

    def test_accepts_the_jsonl_path_itself(self, metrics_run, capsys):
        target = telemetry_path(metrics_run)
        assert main(["stats", str(target)]) == 0
        assert "engine.trials" in capsys.readouterr().out

    def test_json_mode_is_machine_readable(self, metrics_run, capsys):
        assert main(["stats", str(metrics_run), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trials"]["by_status"] == {"executed": 2}
        assert doc["registry_records"] == 1
        assert doc["metrics"]["counters"]["engine.trials"] == 2
        assert any(s["name"] == "engine.step" for s in doc["top_spans"])

    def test_top_limits_the_span_table(self, metrics_run, capsys):
        assert main(["stats", str(metrics_run), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "top 2 spans by total time" in out

    def test_missing_telemetry_exits_nonzero_with_hint(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "empty")]) == 1
        err = capsys.readouterr().err
        assert "no telemetry" in err
        assert "--metrics" in err

    def test_defaults_to_the_default_cache_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cachedir"))
        assert main(["stats"]) == 1  # nothing written there yet
        assert "cachedir" in capsys.readouterr().err


class TestRunMetricsFlag:
    def test_run_metrics_prints_registry_tables(self, capsys):
        # Scalar-only protocol: the engine.run span only exists on the
        # scalar path, and push-pull vs ugf now routes batch.
        rc = main(
            [
                "run",
                "--protocol",
                "coordinator",
                "--adversary",
                "ugf",
                "-n",
                "20",
                "-f",
                "6",
                "--metrics",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "spans by total time" in out
        assert "engine.run" in out

    def test_run_without_metrics_prints_no_tables(self, capsys):
        rc = main(
            ["run", "--protocol", "push-pull", "-n", "20", "-f", "6"]
        )
        assert rc == 0
        assert "spans by total time" not in capsys.readouterr().out


class TestSweepTelemetryNote:
    def test_sweep_metrics_notes_telemetry_on_stderr(self, tmp_path, capsys):
        rc = main(
            [
                "sweep",
                "--protocol",
                "push-pull",
                "--n",
                "12",
                "--seeds",
                "1",
                "--metrics",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "telemetry:" in err
        assert "repro-ugf stats" in err

    def test_sweep_without_metrics_stays_silent(self, tmp_path, capsys):
        rc = main(
            [
                "sweep",
                "--protocol",
                "push-pull",
                "--n",
                "12",
                "--seeds",
                "1",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert "telemetry:" not in capsys.readouterr().err
