"""Driver entry: one workload, one mode, one JSON result line.

``python3 benchmarks/suite/run.py --workload W --seed N --seconds S
--trace 0|1`` from the root of a checkout. The last line of stdout is
the result object; anything else a person should read goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.suite`` importable when run as a
    script; refuse to start where the program's source is missing."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program to measure ({src}/repro is missing)")
    for path in (str(src), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def main(argv: list[str] | None = None) -> int:
    _bootstrap()
    from benchmarks.suite import DEFAULT_SECONDS, DEFAULT_SEED
    from benchmarks.suite.runner import run_workload
    from benchmarks.suite.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="2 seeds per submission; not comparable")
    parser.add_argument("--out", type=pathlib.Path, default=None, help="where the trace file goes")
    parser.add_argument("--record", type=pathlib.Path, default=None, help="also write the full record here")
    args = parser.parse_args(argv)

    result = run_workload(
        WORKLOADS[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        smoke=args.smoke,
        out_dir=args.out,
    )
    if args.record is not None:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(result.record()))
    if not result.correct:
        print(f"benchmark: {args.workload} INCORRECT: {json.dumps(result.detail['check'])}", file=sys.stderr)
    print(result.contract_line())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
