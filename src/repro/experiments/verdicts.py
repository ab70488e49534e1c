"""Programmatic verdicts for the paper's figure-shape claims.

The reproduction's contract is about *shapes*: which curve dominates
and which growth family each follows. This module turns a regenerated
panel into a structured :class:`PanelVerdict` — the single source of
truth shared by the ``fig3*`` claims of ``experiments/claims.py``, the
CLI output and EXPERIMENTS.md.

Checks per panel kind:

**time panels** (3a, 3b)
  - the max-UGF curve dominates the baseline at the largest N;
  - the gap does not collapse as N grows;
  - baseline fits affine-log better than affine-linear, the attacked
    curve the reverse, with a positive attacked slope. (Affine fits
    because attacked time carries a constant floor on top of ~c·N,
    which through-origin fits cannot separate on small grids.)

**message panels** (3c, 3d, 3e)
  - the max-UGF curve dominates the baseline at the largest N;
  - attacked messages fit the quadratic family well (log-R² > 0.8);
  - for 3e additionally the *baseline* is quadratic (§V-B.3).

A panel regenerated off the clique (any curve's sweep declares a
non-None topology — see :mod:`repro.sim.topology`) is outside Figure
3's model: no shape check runs and the verdict is ``OUT-OF-MODEL``
(``passed`` is True — model mismatch is not shape mismatch).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.fitting import fit_affine, fit_growth
from repro.errors import ConfigurationError
from repro.experiments.figure3 import PanelResult

__all__ = ["PanelVerdict", "check_panel"]


@dataclass(frozen=True, slots=True)
class PanelVerdict:
    """Outcome of checking one panel's shape claims."""

    panel: str
    quantity: str
    passed: bool
    checks: tuple[tuple[str, bool], ...]
    notes: tuple[str, ...] = field(default=())
    #: True when the panel ran on a non-clique topology: the figure's
    #: shape claims do not apply, so no check ran.
    out_of_model: bool = False

    def failures(self) -> list[str]:
        return [name for name, ok in self.checks if not ok]

    def summary(self) -> str:
        if self.out_of_model:
            status = "OUT-OF-MODEL"
        else:
            status = "REPRODUCED" if self.passed else "SHAPE MISMATCH"
        lines = [f"panel {self.panel} ({self.quantity}): {status}"]
        for name, ok in self.checks:
            lines.append(f"  [{'ok' if ok else 'FAIL'}] {name}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


#: Minimum grid points for growth-family discrimination. Two-parameter
#: affine fits tie on 3-4 points (both families reach ~perfect R^2);
#: below this threshold verdicts degrade to ordering checks only.
MIN_POINTS_FOR_FAMILIES = 5


def _check_time(result: PanelResult) -> PanelVerdict:
    ns, base = result.series("no-adversary")
    _, worst = result.series("max-ugf")
    checks = []
    checks.append(("attack dominates baseline at max N", worst[-1] > base[-1]))
    gap_start = worst[0] / max(base[0], 1e-9)
    gap_end = worst[-1] / max(base[-1], 1e-9)
    checks.append(("gap does not collapse with N", gap_end > 0.8 * gap_start))
    if len(ns) < MIN_POINTS_FOR_FAMILIES:
        return PanelVerdict(
            panel=result.spec.panel,
            quantity="time",
            passed=all(ok for _, ok in checks),
            checks=tuple(checks),
            notes=(
                f"grid has {len(ns)} points — too small to discriminate "
                "growth families; ordering checks only",
            ),
        )
    base_log = fit_affine(ns, base, "log").r_squared
    base_lin = fit_affine(ns, base, "linear").r_squared
    worst_lin_fit = fit_affine(ns, worst, "linear")
    worst_log = fit_affine(ns, worst, "log").r_squared
    checks.append(("baseline closer to log than linear", base_log > base_lin))
    checks.append(
        ("attacked closer to linear than log", worst_lin_fit.r_squared > worst_log)
    )
    checks.append(("attacked linear slope positive", worst_lin_fit.coefficient > 0))
    passed = all(ok for _, ok in checks)
    return PanelVerdict(
        panel=result.spec.panel,
        quantity="time",
        passed=passed,
        checks=tuple(checks),
        notes=(
            f"baseline affine-log R^2={base_log:.3f}, "
            f"attacked affine-linear R^2={worst_lin_fit.r_squared:.3f}",
        ),
    )


def _check_messages(result: PanelResult) -> PanelVerdict:
    ns, base = result.series("no-adversary")
    _, worst = result.series("max-ugf")
    baseline_quadratic = result.spec.expected_baseline_shape == "quadratic"
    checks = []
    checks.append(("attack dominates baseline at max N", worst[-1] > base[-1]))
    if len(ns) < MIN_POINTS_FOR_FAMILIES:
        return PanelVerdict(
            panel=result.spec.panel,
            quantity="messages",
            passed=all(ok for _, ok in checks),
            checks=tuple(checks),
            notes=(
                f"grid has {len(ns)} points — too small to discriminate "
                "growth families; ordering checks only",
            ),
        )
    worst_quad = fit_growth(ns, worst, "quadratic").r_squared
    checks.append(("attacked fits quadratic (log-R^2 > 0.8)", worst_quad > 0.8))
    notes = [f"attacked quadratic log-R^2={worst_quad:.3f}"]
    if baseline_quadratic:
        base_quad = fit_growth(ns, base, "quadratic").r_squared
        checks.append(("baseline quadratic even unattacked", base_quad > 0.8))
        notes.append(f"baseline quadratic log-R^2={base_quad:.3f}")
    else:
        base_nlogn = fit_growth(ns, base, "nlogn").r_squared
        base_quad = fit_growth(ns, base, "quadratic").r_squared
        checks.append(
            ("baseline below the quadratic ceiling", base[-1] < worst[-1])
        )
        notes.append(
            f"baseline nlogn log-R^2={base_nlogn:.3f} vs quadratic {base_quad:.3f}"
        )
    passed = all(ok for _, ok in checks)
    return PanelVerdict(
        panel=result.spec.panel,
        quantity="messages",
        passed=passed,
        checks=tuple(checks),
        notes=tuple(notes),
    )


def check_panel(result: PanelResult) -> PanelVerdict:
    """Check one regenerated panel against the paper's shape claims."""
    baseline = result.curves.get("no-adversary")
    if baseline is None or len(baseline.points) < 3:
        raise ConfigurationError(
            "shape verdicts need a no-adversary curve with at least 3 grid points"
        )
    from repro.sim.topology import canonical_topology

    topologies = {
        topo
        for curve in result.curves.values()
        if (topo := canonical_topology(curve.spec.topology)) is not None
    }
    if topologies:
        return PanelVerdict(
            panel=result.spec.panel,
            quantity=result.spec.quantity,
            passed=True,
            checks=(),
            notes=(
                "panel ran on topology "
                + ", ".join(sorted(topologies))
                + " — Figure 3's shape claims are about the clique; "
                "nothing was checked",
            ),
            out_of_model=True,
        )
    if result.spec.quantity == "time":
        return _check_time(result)
    if result.spec.quantity == "messages":
        return _check_messages(result)
    raise ConfigurationError(f"unknown panel quantity {result.spec.quantity!r}")
