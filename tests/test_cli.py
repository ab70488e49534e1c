"""End-to-end tests for the command-line interface."""

import argparse
import json
import pathlib
import re

import pytest

from repro.cli import build_parser, main

ROOT = pathlib.Path(__file__).resolve().parents[1]
SURFACE = ROOT / "tests" / "data" / "cli_surface.json"


def _subcommands(parser):
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _surface(parser):
    """Everything about every subcommand's arguments except help text, as
    plain data: {command: {flag: {dest, default, type, ...}}}. Regenerate
    the pinned copy with ``python tests/test_cli.py`` (PYTHONPATH=src)."""

    def kind(type_):
        if type_ is None:
            return None
        return type_.__name__ if type_ in (int, float, pathlib.Path) else "validator"

    def plain(value):
        return str(value) if isinstance(value, pathlib.Path) else value

    return {
        command: {
            (a.option_strings[0] if a.option_strings else a.dest): {
                "dest": a.dest,
                "default": plain(a.default),
                "type": kind(a.type),
                "choices": None if a.choices is None else list(a.choices),
                "nargs": a.nargs,
                "required": a.required,
                "const": a.const,
                "metavar": a.metavar,
            }
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for command, sub in _subcommands(parser).items()
    }


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


@pytest.mark.parametrize("rows", [1, 4, 5])
def test_inspect_rows_caps_the_timeline(rows, capsys):
    # `--rows 1` used to slice rows[-0:], every step, after the ellipsis.
    cell = ["--protocol", "push-pull", "--adversary", "ugf", "-n", "30", "-f", "9"]
    assert main(["inspect", *cell, "--rows", str(rows)]) == 0
    summary, header, rule, *shown = capsys.readouterr().out.split("\n\n")[0].splitlines()
    assert len(shown) == rows + 1 and sum("..." in line for line in shown) == 1


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
    # A subcommand or flag removed from the parser must leave no
    # `repro-ugf <cmd> ... --flag` behind in the user-facing docs or CI
    # (or the reverse: a typo'd example).
    import repro.cli

    texts = {"src/repro/cli.py": repro.cli.__doc__}
    for path in [
        ROOT / "README.md",
        *sorted((ROOT / "docs").glob("*.md")),
        ROOT / "CONTRIBUTING.md",
        ROOT / ".github" / "workflows" / "ci.yml",
    ]:
        texts[str(path.relative_to(ROOT))] = path.read_text()
    # An invocation runs to the end of its (backslash-continued) line or to
    # the first character that ends a shell word list or a markdown span.
    invocation = re.compile(
        r"(?<![/\w-])(?:repro-ugf|python -m repro)[ \t]+([a-z][a-z0-9-]*)([^\n`|;&)]*)"
    )
    named = [
        (where, match.group(1), match.group(2))
        for where, text in texts.items()
        for match in invocation.finditer(re.sub(r"\\\n\s*", " ", text))
    ]
    commands = _subcommands(build_parser())
    assert len({cmd for _, cmd, _ in named}) >= 15  # the scan still finds them
    unknown = sorted({(cmd, where) for where, cmd, _ in named if cmd not in commands})
    assert not unknown, f"docs name commands the parser lacks: {unknown}"
    flags = [
        (cmd, flag, where)
        for where, cmd, rest in named
        for flag in re.findall(r"(?<![\w-])(--[a-z][a-z-]*|-[nf])(?![\w-])", rest)
    ]
    assert len(flags) >= 50  # ditto
    stale = sorted(
        {
            (cmd, flag, where)
            for cmd, flag, where in flags
            if all(flag not in a.option_strings for a in commands[cmd]._actions)
        }
    )
    assert not stale, f"docs pass flags the subcommand lacks: {stale}"


def test_every_documented_path_exists():
    # A file deleted or moved must leave no pointer behind in the docs, CI
    # or packaging config (`benchmarks/bench_*.py` style globs must match).
    top = "README.md DESIGN.md EXPERIMENTS.md CONTRIBUTING.md pyproject.toml"
    sources = [
        *(ROOT / name for name in top.split()),
        *sorted((ROOT / "docs").glob("*.md")),
        ROOT / ".github" / "workflows" / "ci.yml",
    ]
    named = re.compile(
        r"(?<![\w/.*-])((?:src|tests|benchmarks|examples|docs)/[\w./*-]*)"
    )
    paths = {
        (match.group(1).rstrip(".,/"), source.name)
        for source in sources
        for match in named.finditer(source.read_text())
    }
    assert len(paths) >= 100  # the scan still finds them
    stale = sorted(pair for pair in paths if not any(ROOT.glob(pair[0])))
    assert not stale, f"docs point at files that do not exist: {stale}"


def test_ci_runs_every_row_of_the_gates_table():
    # The gates are one table with one entry point; CI must reach every row
    # (no name = all of them) and no gate may live in a script beside it.
    from benchmarks.gates import GATES

    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert not re.search(r"bench_\w*\.py", ci)
    runs = re.findall(r"python -m benchmarks\.gates\b([^\n|;&]*)", ci)
    assert runs, "ci.yml never invokes benchmarks.gates"
    named = [run.split() for run in runs]
    reached = set(GATES) if [] in named else {name for names in named for name in names}
    assert reached == set(GATES)


def test_trajectory_refuses_two_directories_of_one_label(tmp_path):
    # `trajectory s1/parent s2/parent` used to keep only the second set.
    from benchmarks import trajectory

    with pytest.raises(SystemExit, match="share a label"):
        trajectory.main([str(tmp_path / "s1" / "parent"), str(tmp_path / "s2" / "parent")])


def test_environment_fingerprint_keeps_the_fields_the_suite_records():
    # Its only consumer, benchmarks/suite/__main__.py, is frozen by
    # BENCHMARK.json: a rename here must fail in tier-1, not in a
    # benchmark run.
    from repro.bench.harness import environment_fingerprint

    env = environment_fingerprint()
    assert {"python", "numpy", "git", "cpu_count", "wire_version", "key_version"} <= set(env)
    assert env["cpu_count"] >= 1


def test_option_surface_is_pinned():
    # "Same CLI" as a diff, not a claim: a flag added, dropped, or given
    # another default / type / choices must show up as an edit to the
    # pinned file (help text is free to change).
    assert _surface(build_parser()) == json.loads(SURFACE.read_text())


CELL = ["--protocol", "round-robin", "--n", "6", "--seeds", "2", "--workers", "1"]
CLEAN = [*CELL, "--adversary", "none", "--no-cache"]
ONE = ["--protocol", "round-robin", "-n", "8", "-f", "2"]


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["sweep", *CLEAN, "--topology", "ring:2"], "round-robin,none,6,2,"),
        (["run", *ONE, "--topology", "ring:2"], "OUT-OF-MODEL"),
        (["sweep", *CLEAN, "--supervise", "--max-retries", "0"], "round-robin,none,6,2,"),
        (["run", *ONE, "--seed", "1", "--max-steps", "3"], "TRUNCATED"),
    ],
)
def test_flag_reaches_its_layer(argv, needle, capsys):
    assert main(argv) == 0
    assert needle in capsys.readouterr().out


def test_sweep_backends_print_identical_csv(capsys):
    csv = {}
    for backend in ("scalar", "batch"):
        # Forced batch declines a sanitized trial; CI reruns this file
        # under REPRO_SANITIZE=strict.
        assert main(["sweep", *CLEAN, "--backend", backend, "--sanitize", "off"]) == 0
        csv[backend] = capsys.readouterr().out
    assert csv["scalar"].count("\n") == 2
    assert csv["scalar"] == csv["batch"]


@pytest.mark.parametrize(
    "cell,engine,needle",
    [
        (["--protocol", "flood", "--adversary", "str-1", "-n", "64", "-f", "20"],
         "batch", None),
        (["--protocol", "coordinator", "--adversary", "none", "-n", "8", "-f", "0"],
         "scalar", "no vectorized kernel"),
        (["--protocol", "flood", "--adversary", "ugf", "--sanitize", "strict"],
         "scalar", "sanitizer 'strict'"),
    ],
)
def test_backends_explains_the_routing_a_campaign_takes(
    cell, engine, needle, capsys, monkeypatch
):
    from repro.campaign import Campaign
    from repro.cli import _cell_spec

    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert main(["backends", *cell]) == 0
    out = capsys.readouterr().out
    assert out.endswith(f"auto routing: {engine}\n")
    if needle is None:
        assert "  batch: ok\n" in out
    else:
        assert "  batch: ineligible — " in out and needle in out
    spec = _cell_spec(build_parser().parse_args(["backends", *cell]))
    with Campaign(workers=1, use_cache=False) as campaign:
        (result,) = campaign.run_trials([spec])
    assert result.ok and result.backend == engine


def test_sweep_recomputes_a_pre_wire_record_once(tmp_path, capsys):
    cache = tmp_path / "c"
    args = ["sweep", *CELL, "--adversary", "none", "--cache-dir", str(cache)]
    assert main(args) == 0
    assert "2 executed, 0 cached" in capsys.readouterr().err
    # Leave the second trial in the pre-wire shape (an outcome dict, no
    # wire), beside an empty shard file of the retired sharded layout.
    path = cache / "trials.jsonl"
    first, second = path.read_text().splitlines()
    record = json.loads(second)
    record["outcome"] = {"n": record["spec"]["n"]}
    del record["wire"]
    path.write_text(f"{first}\n{json.dumps(record)}\n")
    (cache / "trials-00.jsonl").write_text("")
    assert main(["doctor", str(cache)]) == 0
    captured = capsys.readouterr()
    assert "foreign-record" in captured.err and "trials-00.jsonl" in captured.err
    assert main(["doctor", str(cache), "--repair"]) == 0
    capsys.readouterr()
    assert main(args) == 0
    assert "1 executed, 1 cached" in capsys.readouterr().err
    assert main(args) == 0
    assert "0 executed, 2 cached" in capsys.readouterr().err


def test_supervised_sweep_counts_each_trial_once(tmp_path, capsys):
    # A retried trial is one trial: the stats line reads each trial's
    # final attempt, not every attempt of every retry wave.
    from repro.chaos.plan import shipped_plans

    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(shipped_plans()["transient-exception"].to_dict()))
    argv = ["sweep", "--protocol", "flood", "--adversary", "none", "--n", "8",
            "--seeds", "3", "--workers", "1", "--no-cache", "--supervise",
            "--fault-plan", str(plan)]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert "1 retry" in err and "verdict: clean" in err
    assert "3 trials: 3 executed, 0 cached, 0 failed" in err


def test_plot_refuses_an_outcome_record(tmp_path, capsys):
    # The "outcome" record kind is retired: plot names it as bad input.
    outcome = {"n": 8, "f": 2, "seed": 0, "protocol_name": "flood", "adversary_name": "ugf"}
    path = tmp_path / "outcome.json"
    path.write_text(json.dumps({**outcome, "version": 1, "kind": "outcome"}))
    assert main(["plot", str(path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("repro-ugf plot: error: ")
    assert "unknown record kind 'outcome'" in line


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--protocol", "flood", "-n", "0", "-f", "0"],
        ["run", *ONE, "--environment", "bogus"],
        ["sweep", *CELL, "--no-cache", "--adversary", "nope"],
        ["sweep", *CLEAN, "--f-fraction", "1.5"],
        ["sweep", *CLEAN, "--fault-plan", "/nonexistent.json"],
        ["sweep", *CLEAN, "--supervise", "--max-retries", "-1"],
        ["plot", "/nonexistent.json"],
        ["tradeoff", *ONE, "--k", "0"],
        ["check", "/nonexistent-cache"],
        ["run", "--protocol", "coordinator", "--adversary", "none", "-n", "8",
         "-f", "0", "--backend", "batch"],
    ],
)
def test_bad_input_is_one_line_and_exit_2(argv, capsys):
    # ConfigurationError is the program's "parameter outside its domain":
    # reported like an argparse usage error, never as a traceback.
    try:
        code = main(argv)
    except SystemExit as rejected_at_parse_time:  # argparse prints its usage first
        code = rejected_at_parse_time.code
    assert code == 2
    *usage, error = capsys.readouterr().err.splitlines()
    assert error.startswith(f"repro-ugf {argv[0]}: error: ")
    assert all(line.startswith(("usage: ", " ")) for line in usage)


@pytest.mark.parametrize(
    "argv",
    [
        ["figure", "3a"],
        ["sweep", *CLEAN],
        ["tradeoff", *ONE],
        ["decompose", "--protocol", "flood"],
        ["ablate", "f", "--protocol", "flood"],
    ],
)
def test_zero_seeds_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--seeds", "0"])
    assert exit_.value.code == 2
    assert "--seeds: must be >= 1" in capsys.readouterr().err


def test_table_commands_print_what_the_report_embeds(capsys, monkeypatch):
    import repro.cli
    from repro.experiments.full_report import (
        ReproductionScale,
        render_markdown,
        run_full_reproduction,
    )

    scale = ReproductionScale(
        label="tiny",
        n_values=(8, 12, 16),
        seeds=(0,),
        ablation_n=10,
        ablation_seeds=(0,),
        decomposition_seeds=(0, 1, 2),
        tradeoff={"n": 8, "f": 2, "tau": 2, "k_values": (1,), "seeds": (0,)},
    )
    report = run_full_reproduction(scale)
    text = render_markdown(report)
    # The report compares seven adversaries where the command defaults to
    # three: hand 'ablate' the report's own cells.
    monkeypatch.setattr(
        repro.cli,
        "run_adversary_comparison",
        lambda *args, **kwargs: report.evidence["oblivious/ears"],
    )
    ears = ["--protocol", "ears"]
    for argv in (
        ["tradeoff", *ears, "-n", "8", "-f", "2", "--tau", "2", "--k", "1", "--seeds", "1"],
        ["decompose", *ears, "-n", "10", "--seeds", "3"],
        ["ablate", "adversaries", *ears, "-n", "10", "--seeds", "1"],
    ):
        assert main(argv) == 0
        table = capsys.readouterr().out.split("\n\n")[0].rstrip("\n")
        assert table.count("\n") >= 2 and table in text, argv


if __name__ == "__main__":  # regenerate the pinned surface, one flag per line
    SURFACE.parent.mkdir(exist_ok=True)
    blocks = [
        f" {json.dumps(command)}: {{\n"
        + ",\n".join(
            f"  {json.dumps(flag)}: {json.dumps(spec, sort_keys=True)}"
            for flag, spec in sorted(flags.items())
        )
        + "\n }"
        for command, flags in sorted(_surface(build_parser()).items())
    ]
    SURFACE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
