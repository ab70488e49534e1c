"""``python -m benchmarks.suite run|compare`` — the benchmark for people.

``run`` executes every workload untraced (end-to-end metrics) and then
traced (per-layer metrics), each in its own process exactly as the
driver would start it, prints every metric with its unit and writes
``<out>/seed<S>/results.json`` beside the trace files. ``compare``
reads two such trees.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

from benchmarks.suite import DEFAULT_SECONDS, DEFAULT_SEED, compare
from benchmarks.suite.runner import ROOT
from benchmarks.suite.workloads import WORKLOADS

_RUN_PY = pathlib.Path(__file__).with_name("run.py")

#: Rounds pinned per pattern: more than a 10 s run reaches on the
#: sizing box (every replay round asks for the same trials).
_PINNED_ROUNDS = {"cold": 3, "replay": 1, "shared": 12}


def _run_one(workload: str, seed: int, seconds: float, traced: bool, smoke: bool, out: pathlib.Path) -> dict:
    record = out / f"record_{workload}_{int(traced)}.json"
    command = [
        sys.executable, str(_RUN_PY),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(traced)),
        "--out", str(out),
        "--record", str(record),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"run: {workload} (trace={int(traced)}) exited {done.returncode}")
    run = json.loads(record.read_text())
    record.unlink()
    return run


def _print_run(run: dict) -> None:
    mode = "traced" if run["traced"] else "untraced"
    label = " [smoke: not comparable]" if run["smoke"] else ""
    check = run["detail"]["check"]
    print(
        f"\n{run['workload']} ({mode}, seed {run['seed']}){label}: "
        f"{run['attempted']} trials, {run['failed']} failed, "
        f"oracle {check['oracle_checked'] - check['oracle_mismatch']}/{check['oracle_checked']}, "
        f"digests {','.join(check['digest_verdicts'])} -> "
        f"{'correct' if run['correct'] else 'INCORRECT'}"
    )
    for digest in check["digests"]:
        print(f"  sha256 {digest}")
    for name, metric in run["metrics"].items():
        samples = f"  (n={metric['samples']})" if "samples" in metric else ""
        print(f"  {name:<34} {metric['value']:>14.4f} {metric['unit']}{samples}")
    for name, metric in run["detail"].get("reported", {}).items():
        print(f"  {name:<34} {metric['value']:>14.4f} {metric['unit']}  (reported, no bound)")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.bench.harness import environment_fingerprint

    names = args.workload or list(WORKLOADS)
    modes = [False, True]
    if args.traced != args.untraced:
        modes = [args.traced]
    ok = True
    for seed in range(args.seed, args.seed + args.runs):
        out = args.out / f"seed{seed}"
        out.mkdir(parents=True, exist_ok=True)
        load_start = os.getloadavg()[0]
        runs = []
        for traced in modes:
            for name in names:
                run = _run_one(name, seed, args.seconds, traced, args.smoke, out)
                _print_run(run)
                runs.append(run)
                ok = ok and run["correct"]
        results = {
            "schema": 1,
            "seed": seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "environment": environment_fingerprint(),
            "nproc": os.cpu_count(),
            "load_1min": [load_start, os.getloadavg()[0]],
            "runs": runs,
        }
        (out / "results.json").write_text(json.dumps(results, indent=1))
        print(f"\nwrote {out / 'results.json'}")
    return 0 if ok else 1


def _cmd_pin(args: argparse.Namespace) -> int:
    """Recompute digests.json: the default seed's outcome digests for
    the first rounds of every workload, straight from the engines."""
    from repro.campaign import Campaign

    from benchmarks.suite import runner

    pinned = {}
    for w in WORKLOADS.values():
        rounds = {}
        with Campaign(cache_dir=None, workers=w.workers) as campaign:
            for r in range(_PINNED_ROUNDS[w.pattern]):
                subs = [sub for client in w.round(DEFAULT_SEED, r, w.block) for sub in client]
                specs = [spec for sub in sorted(subs, key=w.spec_order) for spec in sub.specs()]
                results = campaign.run_trials(specs)
                rounds[str(r)] = runner.outcomes_digest(result.outcome for result in results)
                print(f"{w.name} round {r}: {rounds[str(r)]}")
        pinned[w.name] = {"seed": DEFAULT_SEED, "block": w.block, "rounds": rounds}
    path = pathlib.Path(__file__).with_name("digests.json")
    path.write_text(json.dumps({runner.pinned_key(): pinned}, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare.compare_sets(args.a, args.b, benchmark)
    print(compare.render(rows))
    bad = [r for r in rows if r.verdict != "ok"]
    print(f"\n{len(rows)} rows: {len(rows) - len(bad)} ok, {len(bad)} not ok")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the workloads and print every metric")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--runs", type=int, default=1, help="repeat with seeds SEED..SEED+RUNS-1")
    run.add_argument("--workload", action="append", choices=sorted(WORKLOADS), help="repeatable; default all")
    run.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    run.add_argument("--traced", action="store_true", help="only the traced (per-layer) runs")
    run.add_argument("--untraced", action="store_true", help="only the untraced (end-to-end) runs")
    run.add_argument("--smoke", action="store_true", help="2 seeds per submission; results not comparable")
    run.add_argument("--out", type=pathlib.Path, default=ROOT / ".bench_out")
    run.set_defaults(func=_cmd_run)
    pin = sub.add_parser("pin", help="recompute digests.json for the default seed")
    pin.set_defaults(func=_cmd_pin)
    cmp_ = sub.add_parser("compare", help="compare two result trees")
    cmp_.add_argument("a", type=pathlib.Path)
    cmp_.add_argument("b", type=pathlib.Path)
    cmp_.set_defaults(func=_cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
