"""Command-line interface.

Examples::

    repro-ugf list
    repro-ugf run --protocol push-pull --adversary ugf -n 100 -f 30 --seed 7
    repro-ugf figure 3a
    repro-ugf figure 3d --full --csv out/
    repro-ugf sweep --protocol ears --adversary str-2.1.1 --n 10 20 50 --seeds 5
    repro-ugf tradeoff --protocol ears -n 40 -f 12 --tau 3 --k 1 2
    repro-ugf ablate f --protocol push-pull -n 100
    repro-ugf sweep --protocol ears --n 10 20 --seeds 3 --sanitize strict
    repro-ugf check ~/.cache/repro-ugf
    repro-ugf doctor ~/.cache/repro-ugf --repair
    repro-ugf sweep --protocol flood --n 8 --seeds 3 --supervise --fault-plan plan.json
    repro-ugf backends --protocol flood --adversary str-1 -n 64 -f 20
    repro-ugf sweep --protocol round-robin --adversary none --n 50 100 --backend batch
    repro-ugf serve --cache-dir /shared/cache --port 7341
    repro-ugf sweep --protocol flood --n 50 --cache-url tcp://127.0.0.1:7341

The experiment commands (``sweep``, ``figure``, ``report``) execute
through the campaign layer's content-addressed trial cache: identical
trials are computed once ever, and an interrupted ``report`` resumes
where it stopped (``--cache-dir`` / ``--fresh`` / ``--no-cache``,
docs/CAMPAIGN.md). ``serve`` turns that cache into a shared daemon and
``--cache-url`` points any experiment command at it (docs/SERVICE.md).

``--sanitize`` runs trials under the execution-model sanitizer
(docs/SANITIZER.md) and ``check`` audits a trial cache offline —
content addresses, sanitized replay, and Theorem 1 cell verdicts.

``doctor`` scans a run directory for crash damage (torn store tails,
bad content addresses) and ``--repair`` heals what is reversible;
``--fault-plan`` / ``--supervise`` belong to the chaos harness
(docs/ROBUSTNESS.md): inject faults deterministically and run the
sweep under retry/quarantine supervision.

Every option is declared once, as an argparse ``parents=`` group;
``build_parser`` is the one list of which command composes which.
``_flag_groups`` holds the shared ones, a flag each (``adversary``,
``seed``, ``max-steps``, ``environment``, ``topology``, ``sanitize``,
``metrics``, ``backend``) except ``service`` (``--cache-url
--service-timeout``: run, figure, sweep, report), ``campaign``
(``--cache-dir --workers --fault-plan``: figure, sweep, report, serve),
``cache`` (``--no-cache --fresh --trial-timeout``:
figure, sweep, report) and ``run-dir`` (doctor, stats); ``_protocol``,
``_size`` (``-n -f``), ``_seeds`` build those whose defaults differ per
command. A ``ConfigurationError`` from a handler is bad input: exit 2.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import pathlib
import sys
from typing import Sequence

from repro.backends.registry import BACKEND_MODES, get_backend, route
from repro.core.registry import available_adversaries, make_adversary
from repro.errors import ConfigurationError
from repro.experiments.ablation import (
    run_adversary_comparison,
    run_f_sweep,
    run_q_grid,
)
from repro.experiments.config import SweepSpec, TrialSpec, f_fraction
from repro.experiments.figure3 import PANELS, run_figure3_panel
from repro.experiments.report import (
    format_table,
    panel_csv,
    panel_table,
    shape_summary,
    sweep_csv,
)
from repro.experiments.runner import run_trial
from repro.experiments.tradeoff import run_tradeoff
from repro.protocols.registry import available_protocols

__all__ = ["main", "build_parser"]

_CACHE_DEFAULT = "(default: $REPRO_CACHE_DIR or ~/.cache/repro-ugf)"


def _validated(module: str, check: str):
    """argparse ``type=`` that rejects a bad spec at parse time: runs
    ``module.check`` (imported on first use) on the string and keeps it."""

    def validate(spec: str) -> str:
        try:
            getattr(importlib.import_module(module), check)(spec)
        except ConfigurationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        return spec

    return validate


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _flag_groups() -> dict[str, argparse.ArgumentParser]:
    """Every option whose declaration is the same on each command that
    takes it, declared once. Values are ``parents=`` parsers; options
    that always travel together share one."""
    g = collections.defaultdict(lambda: argparse.ArgumentParser(add_help=False))
    g["adversary"].add_argument("--adversary", default="ugf", help="see 'list'")
    g["seed"].add_argument("--seed", type=int, default=0)
    g["max-steps"].add_argument("--max-steps", type=int, default=5_000_000)
    g["environment"].add_argument(
        "--environment",
        help="baseline timing environment: 'homogeneous' (default) or "
        "'jitter[:<max_delta>,<max_d>]'",
    )
    g["topology"].add_argument(
        "--topology",
        type=_validated("repro.sim.topology", "canonical_topology"),
        metavar="SPEC",
        help="contact graph (docs/TOPOLOGY.md): 'complete' (default), "
        "'ring[:k]', 'random-regular:d', 'expander', or "
        "'dynamic:<base>:<rate>'; anything but the clique is outside "
        "Theorem 1's model and checks report OUT-OF-MODEL",
    )
    g["sanitize"].add_argument(
        "--sanitize",
        type=_validated("repro.check.config", "resolve_config"),
        metavar="MODE[:PRESET]",
        help="execution-model sanitizer: mode off/warn/strict, optional monitor "
        "preset 'counters' or 'full' (default: $REPRO_SANITIZE or off)",
    )
    g["metrics"].add_argument(
        "--metrics",
        action="store_const",
        const="on",
        help="collect metrics and run telemetry (docs/OBSERVABILITY.md); "
        "default: $REPRO_METRICS or off",
    )
    g["backend"].add_argument(
        "--backend",
        default="auto",
        choices=BACKEND_MODES,
        help="execution backend (docs/BACKENDS.md): 'auto' routes batch-"
        "eligible cells to the vectorized engine, 'scalar' forces the "
        "reference engine, 'batch' forces the vectorized engine and fails "
        "ineligible trials (default: auto)",
    )
    g["service"].add_argument(
        "--cache-url",
        metavar="tcp://HOST:PORT|unix:///PATH",
        help="execute through a shared campaign-service daemon "
        "(docs/SERVICE.md, start one with 'repro-ugf serve'); transport "
        "failures retry with backoff, then fall back to local execution",
    )
    g["service"].add_argument(
        "--service-timeout",
        type=float,
        metavar="SECONDS",
        help="per-reply read deadline when talking to a --cache-url "
        "daemon, so a wedged daemon can never hang the run (default: "
        "120; 0 or negative waits forever)",
    )
    g["campaign"].add_argument(
        "--cache-dir",
        type=pathlib.Path,
        help="trial-cache directory; on 'serve', where the shared store "
        f"lives {_CACHE_DEFAULT}",
    )
    g["campaign"].add_argument(
        "--workers",
        type=int,
        help="worker-pool size (default: CPU count - 1; <= 1 runs inline); "
        "on 'serve', the pool that computes misses",
    )
    g["campaign"].add_argument(
        "--fault-plan",
        type=pathlib.Path,
        metavar="PLAN.json",
        help="arm the chaos fault-injection plane (on 'serve', its daemon-"
        "side sites) from a JSON fault plan (docs/ROBUSTNESS.md) — for "
        "robustness testing of the harness itself",
    )
    g["cache"].add_argument(
        "--no-cache",
        action="store_true",
        help="disable the trial cache entirely (every trial executes)",
    )
    g["cache"].add_argument(
        "--fresh",
        action="store_true",
        help="ignore previously cached results on read but still record new ones",
    )
    g["cache"].add_argument(
        "--trial-timeout",
        type=float,
        metavar="SECONDS",
        help="kill any single trial exceeding this wall-clock budget "
        "(reported as a failure; default: unbounded)",
    )
    g["run-dir"].add_argument(
        "run_dir",
        type=pathlib.Path,
        nargs="?",
        help=f"run/cache directory {_CACHE_DEFAULT}; 'stats' also takes a "
        "telemetry.jsonl path",
    )
    return dict(g)


def _protocol(required: bool = True) -> argparse.ArgumentParser:
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument("--protocol", required=required, choices=available_protocols())
    return group


def _size(n: int | None = None, f: int | None = None) -> argparse.ArgumentParser:
    """``-n`` / ``-f``: both required unless the command has a default N,
    and then an absent F means the paper's 0.3 N (:func:`_crash_budget`)."""
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument(
        "-n", type=int, required=n is None, default=n, help="number of processes N"
    )
    group.add_argument(
        "-f",
        type=int,
        required=n is None,
        default=f,
        help="crash budget F (where optional: 0.3 N; 'backends': 3)",
    )
    return group


def _seeds(default: int | None) -> argparse.ArgumentParser:
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument(
        "--seeds", type=_positive_int, default=default, help="seeds per point (>= 1)"
    )
    return group


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ugf",
        description="Reproduction of 'The Universal Gossip Fighter' (IPDPS 2022).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    g = _flag_groups()

    def command(name: str, handler, groups: list[argparse.ArgumentParser], help: str):
        """One subcommand: the handler ``main`` dispatches to, its flag groups."""
        p = sub.add_parser(name, parents=groups, help=help)
        p.set_defaults(handler=handler)
        return p

    command("list", _cmd_list, [], "list available protocols and adversaries")

    command(
        "run",
        _cmd_run,
        [_protocol(), g["adversary"], _size(), g["seed"], g["max-steps"],
         g["environment"], g["topology"], g["sanitize"], g["metrics"], g["backend"],
         g["service"]],
        "run one simulation",
    )

    p = command(
        "backends",
        _cmd_backends,
        [_protocol(required=False), g["adversary"], _size(n=10, f=3), g["seed"],
         g["max-steps"], g["environment"], g["topology"], g["sanitize"]],
        "list execution backends; with cell arguments, explain "
        "which backend the cell routes to and why",
    )
    p.add_argument(
        "--grid",
        action="store_true",
        help="print the full protocol x adversary eligibility matrix "
        "(batch-routed vs scalar-fallback cells, with reasons)",
    )

    p = command(
        "figure",
        _cmd_figure,
        [_seeds(None), g["topology"], g["campaign"], g["cache"], g["service"],
         g["backend"], g["sanitize"], g["metrics"]],
        "regenerate a Figure 3 panel",
    )
    p.add_argument("panel", choices=sorted(PANELS))
    p.add_argument("--full", action="store_true", help="use the paper's full grid")
    p.add_argument("--csv", type=pathlib.Path, help="write CSVs here")
    p.add_argument("--json", type=pathlib.Path, help="write result JSON here")
    p.add_argument("--plot", action="store_true", help="render an ASCII chart")

    p = command(
        "sweep",
        _cmd_sweep,
        [_protocol(), g["adversary"], _seeds(10), g["environment"], g["topology"],
         g["campaign"], g["cache"], g["service"], g["backend"], g["sanitize"],
         g["metrics"]],
        "run a custom sweep",
    )
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--f-fraction", type=float, default=0.3)
    p.add_argument(
        "--supervise",
        action="store_true",
        help="run under the chaos supervisor: transient failures retry with "
        "backoff, inline in this process, deterministic ones land in "
        "quarantine.jsonl and the sweep completes degraded (exit 3) instead "
        "of aborting",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="retry budget per trial under --supervise (default: 3)",
    )

    p = command(
        "tradeoff",
        _cmd_tradeoff,
        [_protocol(), _size(), _seeds(5)],
        "Theorem 1 trade-off frontier",
    )
    p.add_argument("--tau", type=int, default=3)
    p.add_argument("--k", type=_positive_int, nargs="+", default=[1, 2, 3])

    p = command(
        "report",
        _cmd_report,
        [g["campaign"], g["cache"], g["service"], g["sanitize"], g["metrics"]],
        "measure and judge every paper claim, write a markdown report "
        "(exit 1 unless every claim reproduces)",
    )
    p.add_argument("--scale", default="laptop", choices=["smoke", "laptop", "paper"])
    p.add_argument("--out", type=pathlib.Path, default=pathlib.Path("report.md"))

    p = command(
        "check",
        _cmd_check,
        [],
        "audit a trial cache: content addresses, sanitized replay, Theorem 1",
    )
    p.add_argument(
        "cache_dir",
        type=pathlib.Path,
        nargs="?",
        help=f"cache directory {_CACHE_DEFAULT}",
    )
    p.add_argument(
        "--no-replay",
        action="store_true",
        help="structural checks only; skip re-executing cached trials",
    )
    p.add_argument("--max-records", type=int, help="audit at most K records")
    p.add_argument("--alpha", type=int, default=1, help="Theorem 1 alpha parameter")

    p = command(
        "doctor",
        _cmd_doctor,
        [g["run-dir"]],
        "scan a run directory for store damage — torn tails, bad "
        "content addresses, undecodable payloads; --repair heals what is "
        "reversible",
    )
    p.add_argument(
        "--repair",
        action="store_true",
        help="heal the tail, compact away every line no reader serves, then "
        "rescan (needs exclusive ownership of the directory)",
    )

    p = command(
        "stats",
        _cmd_stats,
        [g["run-dir"]],
        "summarise a run's metrics and telemetry (written by --metrics)",
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable JSON instead of tables"
    )
    p.add_argument(
        "--top", type=int, default=10, help="spans shown in the hot-spot table"
    )

    p = command(
        "inspect",
        _cmd_inspect,
        [_protocol(), g["adversary"], _size(), g["seed"]],
        "run one trial and show its activity timeline",
    )
    p.add_argument("--rows", type=_positive_int, default=20, help="max timeline rows shown")

    command(
        "decompose",
        _cmd_decompose,
        [_protocol(), _size(n=60), _seeds(30)],
        "group UGF runs by drawn strategy (how 'max UGF' is found)",
    )

    p = command("plot", _cmd_plot, [], "render a saved result JSON as an ASCII chart")
    p.add_argument("file", type=pathlib.Path, help="JSON written by 'figure --json'")
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=16)

    p = command(
        "serve",
        _cmd_serve,
        [g["campaign"], g["sanitize"], g["metrics"], g["backend"]],
        "run the campaign-service daemon: a shared trial cache many "
        "clients execute against (docs/SERVICE.md)",
    )
    p.add_argument(
        "--host",
        default="127.0.0.1",
        help="TCP bind address (default: 127.0.0.1 — loopback only; the "
        "protocol is unauthenticated, widen deliberately)",
    )
    p.add_argument(
        "--port",
        type=int,
        metavar="PORT",
        help="TCP port (default: 7341 when no --unix socket is given; "
        "0 binds an ephemeral port)",
    )
    p.add_argument(
        "--unix",
        type=pathlib.Path,
        metavar="PATH.sock",
        help="also (or only) listen on a unix socket at this path",
    )
    p.add_argument(
        "--max-pending",
        type=int,
        metavar="TRIALS",
        help="admission control: most trials allowed in the pending "
        "queue before submits are refused with a 'busy' frame "
        "(default: 4096)",
    )
    p.add_argument(
        "--idle-timeout",
        type=float,
        default=900.0,
        metavar="SECONDS",
        help="close connections idle this long with no submit stream "
        "running (default: 900; 0 or negative disables)",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="on SIGTERM, how long the graceful drain waits for "
        "in-flight waves before exiting anyway (default: 30)",
    )

    p = command(
        "ablate",
        _cmd_ablate,
        [_protocol(), _size(n=100), _seeds(10)],
        "ablation experiments",
    )
    p.add_argument("which", choices=["f", "q", "adversaries"])

    return parser


def _crash_budget(args: argparse.Namespace) -> int:
    """``-f``, or the paper's F = 0.3 N where the command leaves it optional."""
    return args.f if args.f is not None else f_fraction(args.n, 0.3)


def _cache_dir(path: pathlib.Path | None) -> pathlib.Path:
    """The directory a command works on: the one given, else the default cache."""
    from repro.campaign import default_cache_dir

    return path if path is not None else default_cache_dir()


def _fault_plan(args: argparse.Namespace):
    """The chaos plan ``--fault-plan`` names; None leaves the plane unarmed."""
    if args.fault_plan is None:
        return None
    from repro.chaos import FaultPlan

    return FaultPlan.load(args.fault_plan)


def _service_timeout(args: argparse.Namespace):
    """The finite read deadline the CLI path applies (satellite of
    docs/SERVICE.md 'Failure model'): None only on explicit request."""
    from repro.service.client import DEFAULT_SERVICE_TIMEOUT

    if args.service_timeout is None:
        return DEFAULT_SERVICE_TIMEOUT
    return args.service_timeout if args.service_timeout > 0 else None


def _make_campaign(args: argparse.Namespace):
    """Build the campaign session figure / sweep / report's flags describe."""
    from repro.campaign import Campaign

    kwargs = dict(
        cache_dir=None if args.no_cache else _cache_dir(args.cache_dir),
        workers=args.workers,
        use_cache=not args.no_cache,
        fresh=args.fresh,
        trial_timeout=args.trial_timeout,
        sanitize=args.sanitize,
        metrics=args.metrics,
        fault_plan=_fault_plan(args),
        # The one flag a caller lacks: 'report' takes no --backend.
        backend=getattr(args, "backend", "auto"),
    )
    if args.cache_url is not None:
        from repro.service import ServiceCampaign

        return ServiceCampaign(args.cache_url, timeout=_service_timeout(args), **kwargs)
    return Campaign(**kwargs)


def _note_telemetry(campaign) -> None:
    """Tell the user where the run's telemetry went (stderr, so stdout
    stays machine-readable)."""
    if campaign.telemetry is not None and campaign.telemetry.records_written:
        print(
            f"telemetry: {campaign.telemetry.path} "
            f"(inspect with: repro-ugf stats {campaign.telemetry.path.parent})",
            file=sys.stderr,
        )


def _cmd_list(args: argparse.Namespace) -> int:
    print("protocols :", ", ".join(available_protocols()))
    print("adversaries:", ", ".join(available_adversaries()))
    return 0


def _cell_spec(args: argparse.Namespace) -> TrialSpec:
    """The single cell ``run`` executes and ``backends`` explains."""
    return TrialSpec(
        protocol=args.protocol,
        adversary=args.adversary,
        n=args.n,
        f=args.f,
        seed=args.seed,
        max_steps=args.max_steps,
        environment=args.environment,
        sanitize=args.sanitize,
        topology=args.topology,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.obs import render_registry, resolve_metrics

    # Instantiate eagerly so bad names fail before the run starts.
    make_adversary(args.adversary)
    spec = _cell_spec(args)
    if args.cache_url is not None:
        from repro.service import ServiceCampaign

        with ServiceCampaign(
            args.cache_url,
            timeout=_service_timeout(args),
            workers=0,
            metrics=args.metrics,
            backend=args.backend,
        ) as campaign:
            outcome = campaign.run_trial(spec)
            metrics = campaign.metrics
    else:
        metrics = resolve_metrics(args.metrics)
        outcome = run_trial(spec, metrics=metrics, backend=args.backend)
    print(outcome.summary())
    if outcome.sanitizer is not None:
        total = outcome.sanitizer["total_violations"]
        print(f"  sanitizer: {total} violation(s) [{outcome.sanitizer['mode']}]")
    if outcome.topology is not None:
        from repro.check.theorem import audit_theorem1

        verdict = audit_theorem1([outcome])[0]
        print(
            f"  topology: {outcome.topology} — theorem-1 check: {verdict.verdict}"
        )
    if outcome.completed:
        print(f"  message complexity M(O) = {outcome.message_complexity()}")
        print(f"  time complexity    T(O) = {outcome.time_complexity():.3f}")
        print(
            f"  T_end = {outcome.t_end}, delta = {outcome.max_local_step_time}, "
            f"d = {outcome.max_delivery_time}"
        )
    if metrics is not None and len(metrics):
        print()
        print(render_registry(metrics))
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    if args.grid:
        from repro.backends.batch import eligibility_grid, format_grid, topology_grid

        print(format_grid(eligibility_grid(), topology_grid()), end="")
        return 0
    print("registered backends (auto-routing preference order):")
    for name in ("batch", "scalar"):
        doc = (type(get_backend(name)).__doc__ or "").strip().splitlines()[0]
        print(f"  {name:<8}{doc}")
    if args.protocol is None:
        print()
        print("pass --protocol/--adversary/-n/-f to explain a cell's routing")
        return 0
    spec = _cell_spec(args)
    print()
    print(
        f"cell: protocol={spec.protocol} adversary={spec.adversary} "
        f"N={spec.n} F={spec.f}"
        + (f" topology={spec.topology}" if spec.topology is not None else "")
    )
    engine, reason = route(spec, "auto")
    if reason is None:
        print("  batch: ok")
    else:
        print(f"  batch: ineligible — {reason}, falls back to scalar")
    print("  scalar: ok")
    print(f"auto routing: {engine}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    seeds = tuple(range(args.seeds)) if args.seeds is not None else None
    with _make_campaign(args) as campaign:
        result = run_figure3_panel(
            args.panel,
            full=args.full,
            seeds=seeds,
            campaign=campaign,
            topology=args.topology,
        )
        stats = campaign.stats.summary()
    _note_telemetry(campaign)
    print(panel_table(result))
    print()
    print(shape_summary(result))
    if len(result.curves["no-adversary"].points) >= 3:
        from repro.experiments.verdicts import check_panel

        print()
        print(check_panel(result).summary())
    if args.plot:
        from repro.viz.ascii_chart import render_panel

        print()
        print(render_panel(result))
    if args.csv is not None:
        args.csv.mkdir(parents=True, exist_ok=True)
        for curve, text in panel_csv(result).items():
            path = args.csv / f"figure{args.panel}_{curve}.csv"
            path.write_text(text)
            print(f"wrote {path}")
    if args.json is not None:
        from repro.experiments.serialization import dumps

        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(dumps(result))
        print(f"wrote {args.json}")
    print(stats, file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    # As in 'run': a bad name is bad input here, not N failed trials later.
    make_adversary(args.adversary)
    spec = SweepSpec(
        protocol=args.protocol,
        adversary=args.adversary,
        n_values=tuple(args.n),
        f_of_n=args.f_fraction,
        seeds=tuple(range(args.seeds)),
        environment=args.environment,
        topology=args.topology,
    )
    supervisor = None
    with _make_campaign(args) as campaign:
        if args.supervise:
            from repro.campaign import CampaignStats
            from repro.chaos import RetryPolicy, Supervisor
            from repro.experiments.runner import aggregate_sweep

            with Supervisor(
                campaign, policy=RetryPolicy(max_retries=args.max_retries)
            ) as supervisor:
                run = supervisor.run_trials(list(spec.trials()))
            print(run.summary(), file=sys.stderr)
            result = (
                aggregate_sweep(spec, run.outcomes()) if not run.degraded else None
            )
            # One count per trial, from its final attempt: campaign.stats
            # also counts every attempt of every retry wave.
            final = CampaignStats()
            for r in run.results:
                final.count("failed" if not r.ok else "cached" if r.cached else "executed")
            stats = final.summary()
        else:
            result = campaign.run_sweep(spec)
            stats = campaign.stats.summary()
    _note_telemetry(campaign)
    if result is not None:
        sys.stdout.write(sweep_csv(result))
    # Stats go to stderr so stdout stays machine-readable CSV.
    print(stats, file=sys.stderr)
    if result is None:
        # Degraded supervised run: the sweep completed, but some cells
        # are missing trials — point at the quarantine ledger instead
        # of printing a CSV that silently under-represents them.
        if supervisor is not None and supervisor.ledger is not None:
            print(f"quarantine: {supervisor.ledger.path}", file=sys.stderr)
        return 3
    return 0


def _cmd_tradeoff(args: argparse.Namespace) -> int:
    from repro.experiments.full_report import tradeoff_table

    points = run_tradeoff(
        args.protocol,
        n=args.n,
        f=args.f,
        tau=args.tau,
        k_values=tuple(args.k),
        seeds=tuple(range(args.seeds)),
    )
    print(tradeoff_table(points))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.full_report import render_markdown, run_full_reproduction

    with _make_campaign(args) as campaign:
        report = run_full_reproduction(
            args.scale, progress=print, campaign=campaign
        )
    _note_telemetry(campaign)
    text = render_markdown(report)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(text)
    print(f"wrote {args.out}")
    print(f"verdict: {report.overall}")
    return 0 if report.all_reproduced else 1


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import audit_cache, theorem_table

    def show(record) -> None:
        if not record.ok:
            print(
                f"line {record.line}: {record.status} — {record.detail}",
                file=sys.stderr,
            )

    if args.cache_dir is not None and not args.cache_dir.is_dir():
        # A mistyped path must not audit clean; an existing empty cache does.
        raise ConfigurationError(f"no cache directory at {args.cache_dir}")
    audit = audit_cache(
        _cache_dir(args.cache_dir),
        replay=not args.no_replay,
        max_records=args.max_records,
        alpha=args.alpha,
        progress=show,
    )
    if audit.theorem:
        print(theorem_table(audit.theorem))
        print()
    print(audit.summary())
    return 0 if audit.ok else 1


def _cmd_doctor(args: argparse.Namespace) -> int:
    from repro.chaos import diagnose

    report = diagnose(_cache_dir(args.run_dir), repair=args.repair)
    for finding in report.findings:
        print(str(finding), file=sys.stderr)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import load_run_stats, telemetry_path
    from repro.obs.stats import render_run_stats, run_stats_json

    run_dir = _cache_dir(args.run_dir)
    try:
        stats = load_run_stats(run_dir)
    except FileNotFoundError:
        print(
            f"no telemetry at {telemetry_path(run_dir)} — produce one with "
            "a --metrics campaign, e.g. 'repro-ugf sweep ... --metrics'",
            file=sys.stderr,
        )
        return 1
    if args.json:
        import json as _json

        print(_json.dumps(run_stats_json(stats), indent=2, sort_keys=True))
    else:
        print(render_run_stats(stats, top=args.top))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.analysis.timeline import build_timeline
    from repro.protocols.registry import make_protocol
    from repro.sim.engine import simulate
    from repro.viz.ascii_chart import render_series

    report = simulate(
        make_protocol(args.protocol),
        make_adversary(args.adversary),
        n=args.n,
        f=args.f,
        seed=args.seed,
        record_events=True,
    )
    print(report.outcome.summary())
    timeline = build_timeline(report)
    columns = {  # header -> timeline-step field
        "step": "step", "sends": "sends", "delivs": "deliveries", "drops": "drops",
        "sleeps": "sleeps", "wakes": "wakes", "crashes": "crashes", "awake": "awake_after",
    }
    rows = [[str(getattr(s, f)) for f in columns.values()] for s in timeline.steps]
    if len(rows) > args.rows:
        tail = args.rows // 2  # rows[-0:] would be every row, so slice from the front
        rows = rows[: args.rows - tail] + [["..."] * len(columns)] + rows[len(rows) - tail :]
    print(format_table(list(columns), rows))
    gaps = timeline.quiet_gaps
    if gaps:
        longest = max(gaps, key=lambda g: g[1] - g[0])
        print(
            f"\n{len(gaps)} quiet gap(s); longest: steps {longest[0]}..{longest[1]} "
            f"({longest[1] - longest[0]} steps of dead air, fast-forwarded)"
        )
    xs, ys = timeline.series("awake_after")
    if len(xs) >= 2:
        print()
        print(render_series("awake processes over time", {"awake": (xs, ys)}))
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    from repro.experiments.decomposition import dominant_strategy, run_decomposition
    from repro.experiments.full_report import decomposition_table

    groups = run_decomposition(
        args.protocol, n=args.n, f=_crash_budget(args), seeds=tuple(range(args.seeds))
    )
    print(decomposition_table(groups))
    worst_t = dominant_strategy(groups, "time")
    worst_m = dominant_strategy(groups, "messages")
    print()
    print(f"max-UGF for time    : {worst_t.label} (T median {worst_t.time.median:.4g})")
    print(f"max-UGF for messages: {worst_m.label} (M median {worst_m.messages.median:.4g})")
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    from repro.experiments.figure3 import PanelResult
    from repro.experiments.serialization import loads
    from repro.viz.ascii_chart import render_panel, render_series

    try:
        result = loads(args.file.read_text())
    except (OSError, ValueError) as exc:  # missing or unreadable file, not JSON
        raise ConfigurationError(f"cannot read {args.file}: {exc}") from exc
    if isinstance(result, PanelResult):
        print(render_panel(result, width=args.width, height=args.height))
        return 0
    # A bare sweep: plot both quantities.
    for quantity in ("messages", "time"):
        ns, ys = result.series(quantity)
        print(
            render_series(
                f"{result.spec.protocol} vs {result.spec.adversary}: {quantity}",
                {quantity: (ns, ys)},
                log_y=quantity == "messages",
                width=args.width,
                height=args.height,
            )
        )
        print()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.campaign import Campaign
    from repro.service.server import (
        DAEMON_MEMO_LIMIT,
        DEFAULT_MAX_PENDING,
        serve_forever,
    )

    cache_dir = _cache_dir(args.cache_dir)
    port = args.port
    unix_path = args.unix
    if port is None and unix_path is None:
        port = 7341
    idle_timeout = args.idle_timeout if args.idle_timeout > 0 else None
    max_pending = (
        args.max_pending if args.max_pending is not None else DEFAULT_MAX_PENDING
    )
    # trial_timeout stays None: the per-trial SIGALRM watchdog only
    # works on the main thread, and the daemon executes campaigns on
    # its scheduler thread.
    campaign = Campaign(
        cache_dir=cache_dir,
        workers=args.workers,
        sanitize=args.sanitize,
        metrics=args.metrics,
        backend=args.backend,
        memo_limit=DAEMON_MEMO_LIMIT,
        fault_plan=_fault_plan(args),
    )
    print(f"campaign service: store at {cache_dir}", file=sys.stderr)
    try:
        serve_forever(
            campaign,
            host=args.host if port is not None else None,
            port=port,
            unix_path=unix_path,
            announce=lambda address: print(
                f"campaign service: listening on {address} "
                f"(clients: --cache-url {address})",
                file=sys.stderr,
            ),
            drain_timeout=args.drain_timeout,
            max_pending=max_pending,
            idle_timeout=idle_timeout,
        )
    finally:
        campaign.close()
    print("campaign service: stopped", file=sys.stderr)
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    from repro.experiments.full_report import cells_table

    seeds = tuple(range(args.seeds))
    if args.which == "f":
        cells = run_f_sweep(args.protocol, n=args.n, seeds=seeds)
    elif args.which == "q":
        cells = run_q_grid(args.protocol, n=args.n, f=_crash_budget(args), seeds=seeds)
    else:
        cells = run_adversary_comparison(
            args.protocol, n=args.n, f=_crash_budget(args), seeds=seeds
        )
    print(cells_table(cells))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        # Bad input, not a bug or a failed run: argparse's usage-error code,
        # one line. Everything else (SimulationError, CampaignError) tracebacks.
        print(f"repro-ugf {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
