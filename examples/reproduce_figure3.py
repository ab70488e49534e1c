"""One-shot driver: regenerate every Figure 3 panel with artefacts.

Runs all five panels on the chosen grid, prints the median tables,
growth-model verdicts and ASCII charts, and writes CSV + JSON
artefacts per panel — the whole evaluation section in one command.

Usage::

    python examples/reproduce_figure3.py [OUTDIR] [--full] [--seeds K]

``--full`` switches to the paper's grid (N up to 500, 50 seeds);
expect a long run, dominated by SEARS at large N.
"""

import pathlib
import sys

from repro.experiments.figure3 import PANELS, run_figure3_panel
from repro.experiments.report import panel_csv, panel_table, shape_summary
from repro.experiments.serialization import dumps
from repro.viz.ascii_chart import render_panel


def main() -> None:
    args = sys.argv[1:]
    full = "--full" in args
    if full:
        args.remove("--full")
    seeds = None
    if "--seeds" in args:
        i = args.index("--seeds")
        seeds = tuple(range(int(args[i + 1])))
        del args[i : i + 2]
    outdir = pathlib.Path(args[0]) if args else pathlib.Path("figure3_out")
    outdir.mkdir(parents=True, exist_ok=True)

    for panel in sorted(PANELS):
        print(f"--- regenerating panel {panel} ---", flush=True)
        result = run_figure3_panel(panel, full=full, seeds=seeds)
        print(panel_table(result))
        print()
        print(shape_summary(result))
        print()
        print(render_panel(result))
        print()
        (outdir / f"figure{panel}.json").write_text(dumps(result))
        for curve, text in panel_csv(result).items():
            (outdir / f"figure{panel}_{curve}.csv").write_text(text)
        print(f"artefacts written under {outdir}/", flush=True)
        print("=" * 72)


if __name__ == "__main__":
    main()
