"""End-to-end tests for the command-line interface."""

import argparse
import pathlib
import re

import pytest

from repro.cli import build_parser, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "push-pull" in out
    assert "ugf" in out


def test_run_command(capsys):
    code = main(
        ["run", "--protocol", "round-robin", "--adversary", "none", "-n", "10", "-f", "0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "M(O) = 90" in out
    assert "T(O)" in out


def test_run_with_ugf(capsys):
    assert (
        main(["run", "--protocol", "flood", "--adversary", "ugf", "-n", "12", "-f", "4"])
        == 0
    )
    assert "flood vs ugf" in capsys.readouterr().out


def test_figure_command_tiny(capsys, monkeypatch):
    import repro.experiments.figure3 as figure3

    monkeypatch.setattr(figure3, "DEFAULT_N_GRID", (8, 12))
    monkeypatch.setattr(figure3, "DEFAULT_SEEDS", (0, 1))
    assert main(["figure", "3a", "--seeds", "2", "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3a" in out
    assert "Growth-model fits" in out


def test_figure_writes_csv(tmp_path, capsys, monkeypatch):
    import repro.experiments.figure3 as figure3

    monkeypatch.setattr(figure3, "DEFAULT_N_GRID", (8,))
    assert (
        main(
            [
                "figure",
                "3c",
                "--seeds",
                "2",
                "--workers",
                "1",
                "--csv",
                str(tmp_path),
            ]
        )
        == 0
    )
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == [
        "figure3c_max-ugf.csv",
        "figure3c_no-adversary.csv",
        "figure3c_ugf.csv",
    ]


def test_sweep_outputs_csv(capsys):
    assert (
        main(
            [
                "sweep",
                "--protocol",
                "flood",
                "--adversary",
                "none",
                "--n",
                "6",
                "10",
                "--seeds",
                "2",
                "--workers",
                "1",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.startswith("protocol,")
    assert out.count("\n") == 3  # header + two N rows


def _sweep_args(*extra):
    return [
        "sweep", "--protocol", "flood", "--adversary", "none",
        "--n", "6", "10", "--seeds", "2", "--workers", "1", *extra,
    ]


def test_sweep_cache_dir_persists_and_resumes(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(_sweep_args("--cache-dir", str(cache))) == 0
    first = capsys.readouterr()
    assert "4 trials: 4 executed, 0 cached" in first.err
    assert (cache / "trials.jsonl").exists()

    assert main(_sweep_args("--cache-dir", str(cache))) == 0
    second = capsys.readouterr()
    assert "4 trials: 0 executed, 4 cached" in second.err
    assert second.out == first.out


def test_sweep_fresh_ignores_cache_reads(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(_sweep_args("--cache-dir", str(cache))) == 0
    capsys.readouterr()
    assert main(_sweep_args("--cache-dir", str(cache), "--fresh")) == 0
    assert "4 executed, 0 cached" in capsys.readouterr().err


def test_sweep_no_cache_writes_nothing(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(_sweep_args("--cache-dir", str(cache), "--no-cache")) == 0
    assert "4 executed" in capsys.readouterr().err
    assert not cache.exists()


def test_report_resumes_from_cache(tmp_path, capsys, monkeypatch):
    import repro.experiments.full_report as full_report
    from repro.experiments.full_report import ReproductionScale

    tiny = ReproductionScale(
        label="tiny",
        n_values=(8, 12, 16),
        seeds=(0,),
        ablation_n=8,
        ablation_seeds=(0,),
        decomposition_seeds=(0, 1),
        tradeoff={"n": 8, "f": 2, "tau": 2, "k_values": (1,), "seeds": (0,)},
    )
    monkeypatch.setitem(full_report.SCALES, "smoke", tiny)
    cache = tmp_path / "cache"
    args = [
        "report", "--scale", "smoke", "--workers", "1",
        "--out", str(tmp_path / "r.md"), "--cache-dir", str(cache),
    ]
    main(args)
    first = capsys.readouterr().out
    # Cold cache: trials execute (panels sharing curves still dedup).
    assert "0 failed" in first
    assert ": 0 executed" not in first
    main(args)
    second = capsys.readouterr().out
    assert ": 0 executed" in second  # warm cache: nothing simulated


def test_tradeoff_command(capsys):
    assert (
        main(
            [
                "tradeoff",
                "--protocol",
                "round-robin",
                "-n",
                "10",
                "-f",
                "4",
                "--tau",
                "2",
                "--k",
                "1",
                "--seeds",
                "2",
            ]
        )
        == 0
    )
    assert "alpha" in capsys.readouterr().out


def test_ablate_adversaries(capsys):
    assert (
        main(
            [
                "ablate",
                "adversaries",
                "--protocol",
                "flood",
                "-n",
                "10",
                "--seeds",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "oblivious" in out and "ugf" in out


def test_figure_json_then_plot(tmp_path, capsys, monkeypatch):
    import repro.experiments.figure3 as figure3

    monkeypatch.setattr(figure3, "DEFAULT_N_GRID", (8, 12))
    json_path = tmp_path / "fig.json"
    assert (
        main(
            [
                "figure",
                "3a",
                "--seeds",
                "2",
                "--workers",
                "1",
                "--json",
                str(json_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert json_path.exists()
    assert main(["plot", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "Figure 3a" in out
    assert "max-ugf" in out


def test_figure_plot_inline(capsys, monkeypatch):
    import repro.experiments.figure3 as figure3

    monkeypatch.setattr(figure3, "DEFAULT_N_GRID", (8, 12))
    assert main(["figure", "3c", "--seeds", "2", "--workers", "1", "--plot"]) == 0
    out = capsys.readouterr().out
    assert "log10 y" in out  # message panels plot on a log axis


def test_plot_sweep_json(tmp_path, capsys):
    from repro.experiments.config import SweepSpec
    from repro.experiments.runner import run_sweep
    from repro.experiments.serialization import dumps

    result = run_sweep(
        SweepSpec(protocol="flood", adversary="none", n_values=(6, 10, 14), seeds=(0,)),
        workers=1,
    )
    path = tmp_path / "sweep.json"
    path.write_text(dumps(result))
    assert main(["plot", str(path), "--width", "40", "--height", "8"]) == 0
    out = capsys.readouterr().out
    assert "flood vs none: messages" in out
    assert "flood vs none: time" in out


def test_run_with_environment(capsys):
    assert (
        main(
            [
                "run",
                "--protocol",
                "flood",
                "--adversary",
                "none",
                "-n",
                "10",
                "-f",
                "0",
                "--environment",
                "jitter:3,3",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "delta" in out


def test_inspect_command(capsys):
    assert (
        main(
            [
                "inspect",
                "--protocol",
                "push-pull",
                "--adversary",
                "str-2.1.1",
                "-n",
                "20",
                "-f",
                "6",
                "--rows",
                "8",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "awake" in out
    assert "quiet gap" in out  # the delay attack fast-forwards dead air


def test_decompose_command(capsys):
    assert (
        main(["decompose", "--protocol", "flood", "-n", "12", "--seeds", "6"]) == 0
    )
    out = capsys.readouterr().out
    assert "max-UGF for time" in out
    assert "str-" in out


def test_report_command_tiny(tmp_path, capsys, monkeypatch):
    import repro.experiments.full_report as full_report

    tiny = full_report.ReproductionScale(
        label="tiny",
        n_values=(8, 12, 16),
        seeds=(0,),
        ablation_n=10,
        ablation_seeds=(0,),
        decomposition_seeds=(0, 1, 2),
        tradeoff={"n": 8, "f": 2, "tau": 2, "k_values": (1,), "seeds": (0,)},
    )
    monkeypatch.setitem(full_report.SCALES, "smoke", tiny)
    out_path = tmp_path / "report.md"
    code = main(["report", "--scale", "smoke", "--out", str(out_path), "--workers", "1"])
    out = capsys.readouterr().out
    assert code in (0, 1)  # verdict-dependent on a 2-point grid
    assert out_path.exists()
    assert "# Reproduction report" in out_path.read_text()
    assert "wrote" in out


def test_sweep_with_environment(capsys):
    assert (
        main(
            [
                "sweep",
                "--protocol",
                "flood",
                "--adversary",
                "none",
                "--n",
                "6",
                "--seeds",
                "2",
                "--workers",
                "1",
                "--environment",
                "jitter:2,2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.startswith("protocol,")


def test_parser_rejects_unknown_protocol():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--protocol", "bogus", "-n", "5", "-f", "1"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_sweep_accepts_trial_timeout(capsys):
    code = main(
        ["sweep", "--protocol", "flood", "--adversary", "none",
         "--n", "8", "--seeds", "2", "--workers", "1",
         "--no-cache", "--trial-timeout", "60"]
    )
    assert code == 0
    assert "n,f," in capsys.readouterr().out


def test_every_documented_command_exists():
    # A subcommand removed from the parser must leave no `repro-ugf <cmd>`
    # behind in the user-facing docs (or the reverse: a typo'd example).
    import repro.cli

    root = pathlib.Path(__file__).resolve().parents[1]
    texts = {"src/repro/cli.py": repro.cli.__doc__}
    for path in [root / "README.md", *sorted((root / "docs").glob("*.md"))]:
        texts[str(path.relative_to(root))] = path.read_text()
    named = {
        (cmd, where)
        for where, text in texts.items()
        for cmd in re.findall(r"(?<![/\w-])repro-ugf\s+([a-z][a-z0-9-]*)", text)
    }
    assert len({cmd for cmd, _ in named}) >= 15  # the scan still finds them
    (sub,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    unknown = sorted((c, w) for c, w in named if c not in sub.choices)
    assert not unknown, f"docs name commands the parser lacks: {unknown}"


def test_environment_fingerprint_keeps_the_fields_the_suite_records():
    # Its only consumer, benchmarks/suite/__main__.py, is frozen by
    # BENCHMARK.json: a rename here must fail in tier-1, not in a
    # benchmark run.
    from repro.bench.harness import environment_fingerprint

    env = environment_fingerprint()
    assert {"python", "numpy", "git", "cpu_count", "wire_version", "key_version"} <= set(env)
    assert env["cpu_count"] >= 1
