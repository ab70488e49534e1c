"""The overhead gate behind ``bench_obs.py``, ``bench_chaos.py`` and
``bench_check.py``: time every setting in interleaved rounds and gate on
the *minimum per-round ratio* to the first (baseline) setting.

Settings alternate within each round so ambient load drift hits all of
them; one scheduler-quiet round is enough to prove an overhead low,
whereas a true regression inflates every round's ratio. That keeps the
gate usable on noisy shared machines where independent best-of timings
still flake.
"""

from __future__ import annotations

import argparse
import sys
import time


def measure_rounds(run_once, settings, seeds: int, repeats: int) -> "list[tuple[float, ...]]":
    """Wall time of ``run_once(setting, seeds)``, one column per setting, per round."""
    rounds = []
    for _ in range(repeats + 1):
        times = []
        for setting in settings:
            start = time.perf_counter()
            run_once(setting, seeds)
            times.append(time.perf_counter() - start)
        rounds.append(tuple(times))
    return rounds[1:]  # the first round pays imports and lazy set-up, mostly in the baseline


def paired_overhead_pct(rounds, column: int = 1) -> float:
    """The gated number: min over rounds of (setting / baseline - 1), as percent."""
    return 100.0 * (min(r[column] / r[0] for r in rounds) - 1.0)


def main(argv, *, doc, trial, settings, run_once, gated, bound, what) -> int:
    """Measure, print one line per setting, exit 1 when *gated* costs over the bound."""
    settings = list(settings)
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=3, help="trials per timing")
    parser.add_argument("--repeats", type=int, default=5, help="timings (best wins)")
    parser.add_argument("--fail-over", type=float, default=bound, metavar="PCT",
                        help=f"exit 1 if {what} overhead exceeds PCT%% (<= 0 disables the gate)")
    args = parser.parse_args(argv)
    rounds = measure_rounds(run_once, settings, args.seeds, args.repeats)
    print(f"{trial['protocol']} vs {trial['adversary']} (N={trial['n']}, F={trial['f']}), "
          f"{args.seeds} trial(s), best of {args.repeats}:")
    for column, setting in enumerate(settings):
        print(f"  {setting:<10} {min(r[column] for r in rounds):8.3f}s")
    gate = paired_overhead_pct(rounds, settings.index(gated))
    print(f"  overhead (best paired round): {gate:+.1f}%")
    for column, setting in enumerate(settings[1:], 1):
        if setting != gated:
            print(f"  {setting}, reported not gated: {paired_overhead_pct(rounds, column):+.1f}%")
    if args.fail_over > 0 and gate > args.fail_over:
        print(f"FAIL: {what} overhead {gate:.1f}% exceeds {args.fail_over:.0f}%", file=sys.stderr)
        return 1
    return 0
