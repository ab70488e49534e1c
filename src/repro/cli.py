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
where it stopped. ``--cache-dir`` relocates the cache (default
``$REPRO_CACHE_DIR`` or ``~/.cache/repro-ugf``), ``--fresh`` ignores
previously cached results (but still records new ones), and
``--no-cache`` disables caching entirely. See docs/CAMPAIGN.md.
``serve`` turns that cache into a shared daemon and ``--cache-url``
points any experiment command at it (docs/SERVICE.md).

``--sanitize`` runs trials under the execution-model sanitizer
(docs/SANITIZER.md) and ``check`` audits a trial cache offline —
content addresses, sanitized replay, and Theorem 1 cell verdicts.

``doctor`` scans a run directory for crash damage (torn store tails,
bad content addresses) and ``--repair`` heals what is reversible;
``--fault-plan`` / ``--supervise`` belong to the chaos harness
(docs/ROBUSTNESS.md): inject faults deterministically and run the
sweep under retry/quarantine supervision.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Sequence

from repro.core.registry import available_adversaries, make_adversary
from repro.experiments.ablation import (
    run_adversary_comparison,
    run_f_sweep,
    run_q_grid,
)
from repro.experiments.config import SweepSpec, TrialSpec
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


def _add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    """Execution knobs shared by every campaign-backed command."""
    parser.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill any single trial exceeding this wall-clock budget "
        "(reported as a failure; default: unbounded)",
    )
    parser.add_argument(
        "--fault-plan",
        type=pathlib.Path,
        default=None,
        metavar="PLAN.json",
        help="arm the chaos fault-injection plane from a JSON fault plan "
        "(docs/ROBUSTNESS.md) — for robustness testing of the harness itself",
    )


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        help="trial-cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro-ugf)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the trial cache entirely (every trial executes)",
    )
    parser.add_argument(
        "--fresh",
        action="store_true",
        help="ignore previously cached results on read but still record new ones",
    )
    parser.add_argument(
        "--cache-url",
        default=None,
        metavar="tcp://HOST:PORT|unix:///PATH",
        help="execute through a shared campaign-service daemon "
        "(docs/SERVICE.md, start one with 'repro-ugf serve'); transport "
        "failures retry with backoff, then fall back to local execution",
    )
    _add_service_timeout_flag(parser)
    parser.add_argument(
        "--store-backend",
        default="auto",
        choices=["auto", "jsonl", "sharded"],
        help="trial-store layout (docs/SERVICE.md): 'auto' detects the "
        "on-disk layout, 'jsonl' is the single-file store, 'sharded' "
        "splits by content-address prefix with an offset index",
    )


def _add_service_timeout_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--service-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-reply read deadline when talking to a --cache-url "
        "daemon, so a wedged daemon can never hang the run (default: "
        "120; 0 or negative waits forever)",
    )


def _service_timeout(args: argparse.Namespace):
    """The finite read deadline the CLI path applies (satellite of
    docs/SERVICE.md 'Failure model'): None only on explicit request."""
    from repro.service.client import DEFAULT_SERVICE_TIMEOUT

    value = getattr(args, "service_timeout", None)
    if value is None:
        return DEFAULT_SERVICE_TIMEOUT
    return value if value > 0 else None


def _sanitize_type(spec: str) -> str:
    """argparse type= validator: reject bad specs at parse time."""
    from repro.check.config import resolve_config
    from repro.errors import ConfigurationError

    try:
        resolve_config(spec)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return spec


def _topology_type(spec: str) -> str:
    """Validate a --topology spec at parse time (fail before any run)."""
    from repro.errors import ConfigurationError
    from repro.sim.topology import canonical_topology

    try:
        canonical_topology(spec)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return spec


def _add_topology_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology",
        default=None,
        type=_topology_type,
        metavar="SPEC",
        help="contact graph (docs/TOPOLOGY.md): 'complete' (default), "
        "'ring[:k]', 'random-regular:d', 'expander', or "
        "'dynamic:<base>:<rate>'; anything but the clique is outside "
        "Theorem 1's model and checks report OUT-OF-MODEL",
    )


def _add_sanitize_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sanitize",
        default=None,
        type=_sanitize_type,
        metavar="MODE[:PRESET]",
        help="execution-model sanitizer: mode off/warn/strict, optional monitor "
        "preset 'counters' or 'full' (default: $REPRO_SANITIZE or off)",
    )


def _sanitize_spec(args: argparse.Namespace) -> str | None:
    """The validated --sanitize spec (None means $REPRO_SANITIZE or off)."""
    return getattr(args, "sanitize", None)


def _add_backend_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default="auto",
        choices=["auto", "scalar", "batch"],
        help="execution backend (docs/BACKENDS.md): 'auto' routes batch-"
        "eligible cells to the vectorized engine, 'scalar' forces the "
        "reference engine, 'batch' forces the vectorized engine and fails "
        "ineligible trials (default: auto)",
    )


def _add_metrics_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics",
        action="store_const",
        const="on",
        default=None,
        help="collect metrics and run telemetry (docs/OBSERVABILITY.md); "
        "default: $REPRO_METRICS or off",
    )


def _make_campaign(args: argparse.Namespace):
    """Build the campaign session the cache flags describe."""
    from repro.campaign import Campaign, default_cache_dir

    if args.no_cache:
        cache_dir = None
    elif args.cache_dir is not None:
        cache_dir = args.cache_dir
    else:
        cache_dir = default_cache_dir()
    fault_plan = None
    plan_path = getattr(args, "fault_plan", None)
    if plan_path is not None:
        from repro.chaos import FaultPlan

        fault_plan = FaultPlan.load(plan_path)
    kwargs = dict(
        cache_dir=cache_dir,
        workers=getattr(args, "workers", None),
        use_cache=not args.no_cache,
        fresh=args.fresh,
        trial_timeout=getattr(args, "trial_timeout", None),
        sanitize=_sanitize_spec(args),
        metrics=getattr(args, "metrics", None),
        fault_plan=fault_plan,
        backend=getattr(args, "backend", "auto"),
        store_backend=getattr(args, "store_backend", "auto"),
    )
    url = getattr(args, "cache_url", None)
    if url is not None:
        from repro.service import ServiceCampaign

        return ServiceCampaign(url, timeout=_service_timeout(args), **kwargs)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ugf",
        description="Reproduction of 'The Universal Gossip Fighter' (IPDPS 2022).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available protocols and adversaries")

    p_run = sub.add_parser("run", help="run one simulation")
    p_run.add_argument("--protocol", required=True, choices=available_protocols())
    p_run.add_argument("--adversary", default="ugf")
    p_run.add_argument("-n", type=int, required=True, help="number of processes N")
    p_run.add_argument("-f", type=int, required=True, help="crash budget F")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--max-steps", type=int, default=5_000_000)
    p_run.add_argument(
        "--environment",
        default=None,
        help="baseline timing environment: 'homogeneous' (default) or 'jitter[:<max_delta>,<max_d>]'",
    )
    p_run.add_argument(
        "--cache-url",
        default=None,
        metavar="tcp://HOST:PORT|unix:///PATH",
        help="execute through a shared campaign-service daemon "
        "(docs/SERVICE.md); falls back to local execution if unreachable",
    )
    _add_service_timeout_flag(p_run)
    _add_topology_flag(p_run)
    _add_sanitize_flag(p_run)
    _add_metrics_flag(p_run)
    _add_backend_flag(p_run)

    p_back = sub.add_parser(
        "backends",
        help="list execution backends; with cell arguments, explain "
        "which backend the cell routes to and why",
    )
    p_back.add_argument(
        "--grid",
        action="store_true",
        help="print the full protocol x adversary eligibility matrix "
        "(batch-routed vs scalar-fallback cells, with reasons)",
    )
    p_back.add_argument(
        "--protocol",
        default=None,
        choices=available_protocols(),
        help="explain eligibility for this protocol's cell",
    )
    p_back.add_argument("--adversary", default="ugf")
    p_back.add_argument("-n", type=int, default=10, help="number of processes N")
    p_back.add_argument("-f", type=int, default=3, help="crash budget F")
    p_back.add_argument("--seed", type=int, default=0)
    p_back.add_argument("--max-steps", type=int, default=5_000_000)
    p_back.add_argument("--environment", default=None)
    _add_topology_flag(p_back)
    _add_sanitize_flag(p_back)

    p_fig = sub.add_parser("figure", help="regenerate a Figure 3 panel")
    p_fig.add_argument("panel", choices=sorted(PANELS))
    p_fig.add_argument("--full", action="store_true", help="use the paper's full grid")
    p_fig.add_argument("--seeds", type=int, default=None, help="seeds per point")
    p_fig.add_argument("--workers", type=int, default=None)
    p_fig.add_argument("--csv", type=pathlib.Path, default=None, help="write CSVs here")
    p_fig.add_argument("--json", type=pathlib.Path, default=None, help="write result JSON here")
    p_fig.add_argument("--plot", action="store_true", help="render an ASCII chart")
    _add_topology_flag(p_fig)
    _add_cache_flags(p_fig)
    _add_campaign_flags(p_fig)
    _add_backend_flag(p_fig)
    _add_sanitize_flag(p_fig)
    _add_metrics_flag(p_fig)

    p_sweep = sub.add_parser("sweep", help="run a custom sweep")
    p_sweep.add_argument("--protocol", required=True, choices=available_protocols())
    p_sweep.add_argument("--adversary", default="ugf")
    p_sweep.add_argument("--n", type=int, nargs="+", required=True)
    p_sweep.add_argument("--f-fraction", type=float, default=0.3)
    p_sweep.add_argument("--seeds", type=int, default=10)
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.add_argument(
        "--environment",
        default=None,
        help="baseline timing environment (see 'run --environment')",
    )
    p_sweep.add_argument(
        "--supervise",
        action="store_true",
        help="run under the chaos supervisor: transient failures retry with "
        "backoff down a degradation ladder, deterministic ones land in "
        "quarantine.jsonl and the sweep completes degraded (exit 3) instead "
        "of aborting",
    )
    p_sweep.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="retry budget per trial under --supervise (default: 3)",
    )
    _add_topology_flag(p_sweep)
    _add_cache_flags(p_sweep)
    _add_campaign_flags(p_sweep)
    _add_sanitize_flag(p_sweep)
    _add_metrics_flag(p_sweep)
    _add_backend_flag(p_sweep)

    p_trade = sub.add_parser("tradeoff", help="Theorem 1 trade-off frontier")
    p_trade.add_argument("--protocol", required=True, choices=available_protocols())
    p_trade.add_argument("-n", type=int, required=True)
    p_trade.add_argument("-f", type=int, required=True)
    p_trade.add_argument("--tau", type=int, default=3)
    p_trade.add_argument("--k", type=int, nargs="+", default=[1, 2, 3])
    p_trade.add_argument("--seeds", type=int, default=5)

    p_rep = sub.add_parser(
        "report", help="run the complete evaluation and write a markdown report"
    )
    p_rep.add_argument(
        "--scale", default="laptop", choices=["smoke", "laptop", "paper"]
    )
    p_rep.add_argument("--out", type=pathlib.Path, default=pathlib.Path("report.md"))
    p_rep.add_argument("--workers", type=int, default=None)
    _add_cache_flags(p_rep)
    _add_campaign_flags(p_rep)
    _add_sanitize_flag(p_rep)
    _add_metrics_flag(p_rep)

    p_check = sub.add_parser(
        "check",
        help="audit a trial cache: content addresses, sanitized replay, Theorem 1",
    )
    p_check.add_argument(
        "cache_dir",
        type=pathlib.Path,
        nargs="?",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro-ugf)",
    )
    p_check.add_argument(
        "--no-replay",
        action="store_true",
        help="structural checks only; skip re-executing cached trials",
    )
    p_check.add_argument(
        "--max-records", type=int, default=None, help="audit at most K records"
    )
    p_check.add_argument(
        "--alpha", type=int, default=1, help="Theorem 1 alpha parameter"
    )

    p_doc = sub.add_parser(
        "doctor",
        help="scan a run directory for store damage — torn tails, bad "
        "content addresses, undecodable payloads; --repair heals what is "
        "reversible",
    )
    p_doc.add_argument(
        "run_dir",
        type=pathlib.Path,
        nargs="?",
        default=None,
        help="run/cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro-ugf)",
    )
    p_doc.add_argument(
        "--repair",
        action="store_true",
        help="truncate a torn tail / newline-terminate an unterminated "
        "final record, then rescan",
    )

    p_stats = sub.add_parser(
        "stats",
        help="summarise a run's metrics and telemetry (written by --metrics)",
    )
    p_stats.add_argument(
        "run_dir",
        type=pathlib.Path,
        nargs="?",
        default=None,
        help="directory holding telemetry.jsonl (default: $REPRO_CACHE_DIR "
        "or ~/.cache/repro-ugf); a telemetry.jsonl path also works",
    )
    p_stats.add_argument(
        "--json", action="store_true", help="machine-readable JSON instead of tables"
    )
    p_stats.add_argument(
        "--top", type=int, default=10, help="spans shown in the hot-spot table"
    )

    p_ins = sub.add_parser(
        "inspect", help="run one trial and show its activity timeline"
    )
    p_ins.add_argument("--protocol", required=True, choices=available_protocols())
    p_ins.add_argument("--adversary", default="ugf")
    p_ins.add_argument("-n", type=int, required=True)
    p_ins.add_argument("-f", type=int, required=True)
    p_ins.add_argument("--seed", type=int, default=0)
    p_ins.add_argument("--rows", type=int, default=20, help="max timeline rows shown")

    p_dec = sub.add_parser(
        "decompose", help="group UGF runs by drawn strategy (how 'max UGF' is found)"
    )
    p_dec.add_argument("--protocol", required=True, choices=available_protocols())
    p_dec.add_argument("-n", type=int, default=60)
    p_dec.add_argument("-f", type=int, default=None, help="F (defaults to 0.3N)")
    p_dec.add_argument("--seeds", type=int, default=30)

    p_plot = sub.add_parser("plot", help="render a saved result JSON as an ASCII chart")
    p_plot.add_argument("file", type=pathlib.Path, help="JSON written by 'figure --json'")
    p_plot.add_argument("--width", type=int, default=64)
    p_plot.add_argument("--height", type=int, default=16)

    p_serve = sub.add_parser(
        "serve",
        help="run the campaign-service daemon: a shared trial cache many "
        "clients execute against (docs/SERVICE.md)",
    )
    p_serve.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        help="directory for the shared sharded trial store "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro-ugf)",
    )
    p_serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="TCP bind address (default: 127.0.0.1 — loopback only; the "
        "protocol is unauthenticated, widen deliberately)",
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help="TCP port (default: 7341 when no --unix socket is given; "
        "0 binds an ephemeral port)",
    )
    p_serve.add_argument(
        "--unix",
        type=pathlib.Path,
        default=None,
        metavar="PATH.sock",
        help="also (or only) listen on a unix socket at this path",
    )
    p_serve.add_argument(
        "--workers", type=int, default=None, help="worker-pool size for misses"
    )
    p_serve.add_argument(
        "--max-pending",
        type=int,
        default=None,
        metavar="TRIALS",
        help="admission control: most trials allowed in the pending "
        "queue before submits are refused with a 'busy' frame "
        "(default: 4096)",
    )
    p_serve.add_argument(
        "--idle-timeout",
        type=float,
        default=900.0,
        metavar="SECONDS",
        help="close connections idle this long with no submit stream "
        "running (default: 900; 0 or negative disables)",
    )
    p_serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="on SIGTERM, how long the graceful drain waits for "
        "in-flight waves before exiting anyway (default: 30)",
    )
    p_serve.add_argument(
        "--fault-plan",
        type=pathlib.Path,
        default=None,
        metavar="PLAN.json",
        help="arm the daemon side of the service chaos sites from a "
        "JSON fault plan (docs/ROBUSTNESS.md) — testing only",
    )
    _add_sanitize_flag(p_serve)
    _add_metrics_flag(p_serve)
    _add_backend_flag(p_serve)

    p_abl = sub.add_parser("ablate", help="ablation experiments")
    p_abl.add_argument("which", choices=["f", "q", "adversaries"])
    p_abl.add_argument("--protocol", required=True, choices=available_protocols())
    p_abl.add_argument("-n", type=int, default=100)
    p_abl.add_argument("-f", type=int, default=None, help="F (defaults to 0.3N)")
    p_abl.add_argument("--seeds", type=int, default=10)

    return parser


def _cmd_list() -> int:
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
        sanitize=_sanitize_spec(args),
        topology=getattr(args, "topology", None),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.obs import render_registry, resolve_metrics

    # Instantiate eagerly so bad names fail before the run starts.
    make_adversary(args.adversary)
    spec = _cell_spec(args)
    if getattr(args, "cache_url", None) is not None:
        from repro.service import ServiceCampaign

        with ServiceCampaign(
            args.cache_url,
            timeout=_service_timeout(args),
            workers=0,
            metrics=getattr(args, "metrics", None),
            backend=getattr(args, "backend", "auto"),
        ) as campaign:
            outcome = campaign.run_trial(spec)
            metrics = campaign.metrics
    else:
        metrics = resolve_metrics(getattr(args, "metrics", None))
        outcome = run_trial(
            spec,
            metrics=metrics,
            backend=getattr(args, "backend", "auto"),
        )
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
    from repro.backends import available_backends

    backends = available_backends()
    if getattr(args, "grid", False):
        from repro.backends.batch import eligibility_grid, format_grid, topology_grid

        print(format_grid(eligibility_grid(), topology_grid()), end="")
        return 0
    print("registered backends (auto-routing preference order):")
    for b in backends:
        doc = (type(b).__doc__ or "").strip().splitlines()[0]
        print(f"  {b.name:<8}{doc}")
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
    chosen = None
    for b in backends:
        verdict = b.eligible(spec)
        if verdict:
            print(f"  {b.name}: ok")
            if chosen is None:
                chosen = b.name
        else:
            print(f"  {b.name}: ineligible — {verdict.reason}, falls back to scalar")
    print(f"auto routing: {chosen}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    seeds = tuple(range(args.seeds)) if args.seeds is not None else None
    with _make_campaign(args) as campaign:
        result = run_figure3_panel(
            args.panel,
            full=args.full or None,
            seeds=seeds,
            campaign=campaign,
            topology=getattr(args, "topology", None),
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
    spec = SweepSpec(
        protocol=args.protocol,
        adversary=args.adversary,
        n_values=tuple(args.n),
        f_of_n=args.f_fraction,
        seeds=tuple(range(args.seeds)),
        environment=args.environment,
        topology=getattr(args, "topology", None),
    )
    supervisor = None
    with _make_campaign(args) as campaign:
        if args.supervise:
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
    points = run_tradeoff(
        args.protocol,
        n=args.n,
        f=args.f,
        tau=args.tau,
        k_values=tuple(args.k),
        seeds=tuple(range(args.seeds)),
    )
    rows = [
        [
            str(p.k),
            str(p.alpha),
            f"{p.time_under_isolation.median:.3g}",
            f"{p.steps_under_isolation.median:.4g}",
            f"{p.bounds.time_bound:.3g}",
            f"{p.messages_under_delay.median:.4g}",
            f"{p.bounds.message_bound:.4g}",
        ]
        for p in points
    ]
    print(
        format_table(
            [
                "k",
                "alpha",
                "T @ 2.k.0",
                "T_end steps",
                "T bound",
                "M @ 2.k.1",
                "M bound",
            ],
            rows,
        )
    )
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
    print(
        "verdict: "
        + ("all shape claims reproduced" if report.all_reproduced else "MISMATCHES")
    )
    return 0 if report.all_reproduced else 1


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.campaign import default_cache_dir
    from repro.check import audit_cache, theorem_table

    cache_dir = args.cache_dir if args.cache_dir is not None else default_cache_dir()

    def show(record) -> None:
        if not record.ok:
            print(
                f"line {record.line}: {record.status} — {record.detail}",
                file=sys.stderr,
            )

    audit = audit_cache(
        cache_dir,
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
    from repro.campaign import default_cache_dir
    from repro.chaos import diagnose

    run_dir = args.run_dir if args.run_dir is not None else default_cache_dir()
    report = diagnose(run_dir, repair=args.repair)
    for finding in report.findings:
        print(str(finding), file=sys.stderr)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.campaign import default_cache_dir
    from repro.obs import load_run_stats, telemetry_path
    from repro.obs.stats import render_run_stats, run_stats_json

    run_dir = args.run_dir if args.run_dir is not None else default_cache_dir()
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
    from repro.core.registry import make_adversary as _mk_adv
    from repro.protocols.registry import make_protocol as _mk_proto
    from repro.sim.engine import simulate
    from repro.viz.ascii_chart import render_series

    report = simulate(
        _mk_proto(args.protocol),
        _mk_adv(args.adversary),
        n=args.n,
        f=args.f,
        seed=args.seed,
        record_events=True,
    )
    print(report.outcome.summary())
    timeline = build_timeline(report)
    rows = [
        [
            str(s.step),
            str(s.sends),
            str(s.deliveries),
            str(s.drops),
            str(s.sleeps),
            str(s.wakes),
            str(s.crashes),
            str(s.awake_after),
        ]
        for s in timeline.steps
    ]
    headers = ["step", "sends", "delivs", "drops", "sleeps", "wakes", "crashes", "awake"]
    if len(rows) > args.rows:
        shown = args.rows // 2
        rows = rows[:shown] + [["..."] * len(headers)] + rows[-shown:]
    print(format_table(headers, rows))
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

    f = args.f if args.f is not None else round(0.3 * args.n)
    groups = run_decomposition(
        args.protocol, n=args.n, f=f, seeds=tuple(range(args.seeds))
    )
    rows = [
        [
            g.label,
            str(g.runs),
            f"{g.messages.median:.4g}",
            f"{g.time.median:.4g}",
        ]
        for g in groups
    ]
    print(format_table(["strategy", "runs", "M median", "T median"], rows))
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

    result = loads(args.file.read_text())
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
    from repro.campaign import Campaign, default_cache_dir
    from repro.service.server import (
        DAEMON_MEMO_LIMIT,
        DEFAULT_MAX_PENDING,
        serve_forever,
    )

    cache_dir = args.cache_dir if args.cache_dir is not None else default_cache_dir()
    port = args.port
    unix_path = args.unix
    if port is None and unix_path is None:
        port = 7341
    fault_plan = None
    if getattr(args, "fault_plan", None) is not None:
        from repro.chaos import FaultPlan

        fault_plan = FaultPlan.load(args.fault_plan)
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
        sanitize=_sanitize_spec(args),
        metrics=getattr(args, "metrics", None),
        backend=getattr(args, "backend", "auto"),
        store_backend="sharded",
        memo_limit=DAEMON_MEMO_LIMIT,
        fault_plan=fault_plan,
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
    f = args.f if args.f is not None else round(0.3 * args.n)
    seeds = tuple(range(args.seeds))
    if args.which == "f":
        cells = run_f_sweep(args.protocol, n=args.n, seeds=seeds)
    elif args.which == "q":
        cells = run_q_grid(args.protocol, n=args.n, f=f, seeds=seeds)
    else:
        cells = run_adversary_comparison(args.protocol, n=args.n, f=f, seeds=seeds)
    rows = [
        [
            c.label,
            str(c.n),
            str(c.f),
            f"{c.messages.median:.4g}",
            f"{c.time.median:.4g}",
        ]
        for c in cells
    ]
    print(format_table(["setting", "N", "F", "M median", "T median"], rows))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "backends":
        return _cmd_backends(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "tradeoff":
        return _cmd_tradeoff(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "doctor":
        return _cmd_doctor(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "inspect":
        return _cmd_inspect(args)
    if args.command == "decompose":
        return _cmd_decompose(args)
    if args.command == "plot":
        return _cmd_plot(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "ablate":
        return _cmd_ablate(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
