"""Tests for the one-command full-reproduction report and its claims table."""

import pathlib
import re
from dataclasses import replace

import pytest

import repro.experiments.full_report as full_report
from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments.claims import CLAIMS, ClaimVerdict
from repro.experiments.figure3 import PanelResult
from repro.experiments.full_report import (
    SCALES,
    ReproductionScale,
    render_markdown,
    run_full_reproduction,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]

TINY = ReproductionScale(
    label="tiny-test",
    n_values=(8, 12, 16),
    seeds=(0, 1),
    ablation_n=14,
    ablation_seeds=(0, 1),
    decomposition_seeds=(0, 1, 2, 3),
    tradeoff={
        "n": 10,
        "f": 3,
        "tau": 2,
        "k_values": (1, 2),
        "seeds": (0, 1),
    },
)

IDS = [claim.id for claim in CLAIMS]
PROGRESS: list[str] = []


@pytest.fixture(scope="module")
def report():
    return run_full_reproduction(TINY, progress=PROGRESS.append)


def test_scales_registered():
    assert set(SCALES) == {"smoke", "laptop", "paper"}
    assert len(SCALES["paper"].n_values) == 10
    assert len(SCALES["paper"].seeds) == 50


def test_unknown_scale_rejected():
    with pytest.raises(ConfigurationError):
        run_full_reproduction("galactic")


def test_report_covers_everything(report):
    assert len(set(IDS)) == len(IDS)
    assert list(report.evidence) == IDS
    assert list(report.verdicts) == IDS
    assert {f"fig{panel}" for panel in ("3a", "3b", "3c", "3d", "3e")} <= set(IDS)


def test_claim_ids_are_the_design_index():
    # DESIGN.md §3 is the experiment index: every row names, in its last
    # column, the claim(s) that regenerate it, and no claim goes unindexed.
    section = (ROOT / "DESIGN.md").read_text().split("\n## 3.")[1].split("\n## ")[0]
    rows = [
        line.split("|")[-2]
        for line in section.splitlines()
        if line.startswith("| ") and not line.startswith("| Experiment id")
    ]
    assert len(rows) >= 15
    named = [set(re.findall(r"`([^`]+)`", cell)) & set(IDS) for cell in rows]
    assert all(named), [cell for cell, ids in zip(rows, named) if not ids]
    assert set().union(*named) == set(IDS)


def test_markdown_rendering(report):
    text = render_markdown(report)
    assert text.startswith("# Reproduction report")
    assert text.count("\n## ") == len({claim.section for claim in CLAIMS})
    # One section and one verdict block per claim.
    assert re.findall(r"^### (.+)$", text, re.M) == IDS
    verdict_line = r"^(\S+): (?:REPRODUCED|MISMATCH|NOT JUDGED — scale too small)$"
    assert re.findall(verdict_line, text, re.M) == IDS
    # Every adversary row made it into the comparison tables.
    for adversary in ("oblivious", "greedy-oracle", "ugf"):
        assert adversary in text


def test_small_scales_are_not_judged(report):
    # Three grid points, N = 14, two seeds: only the exact claim and the
    # trade-off (sized by its own dict, two exponents) are judged, and a
    # claim that was not judged never counts as reproduced.
    judged = [id for id, verdict in report.verdicts.items() if verdict.checks is not None]
    assert judged == ["example1", "tradeoff/ears", "tradeoff/push-pull"]
    assert report.verdicts["example1"].passed
    assert not report.all_reproduced
    assert "NOT JUDGED — scale too small: fig3a, fig3b, " in report.overall
    assert "fig3a: NOT JUDGED — scale too small" in render_markdown(report)


def test_progress_callback_called(report):
    assert [m.removesuffix(" ...") for m in PROGRESS[:-1]] == IDS
    assert "0 failed" in PROGRESS[-1]


# -- anti-vacuous: every predicate fails on evidence built to fail it ----------


def baseline_everywhere(evidence):
    """The first (baseline) cell's measurements under every label: an
    attack that changed nothing."""
    if isinstance(evidence, PanelResult):
        base = evidence.curves["no-adversary"]
        return replace(evidence, curves={name: base for name in evidence.curves})
    if isinstance(evidence, dict):
        base = next(iter(evidence.values()))
        return {label: base for label in evidence}
    key = "k" if hasattr(evidence[0], "k") else "label"
    return [replace(evidence[0], **{key: getattr(item, key)}) for item in evidence]


def silenced(match: str):
    """The cells whose label contains *match* sent nothing and took no time."""

    def falsify(measured):
        return {
            label: [replace(o, sent=o.sent * 0, t_end=0) for o in outcomes]
            if match in label
            else outcomes
            for label, outcomes in measured.items()
        }

    return falsify


#: Claims "nothing changed" cannot fail: Example 1 reads N off each outcome,
#: 'informed' only asks for half the mixture's damage, and a decomposition
#: with equal groups is a tie — they get a round-robin that sent nothing, an
#: informed attack that did nothing, a mixture that never drew a strategy.
HAND_BUILT = {
    "example1": silenced("N="),
    "informed": silenced("informed"),
    "decomposition": lambda groups: [],
}

HELD = {id: ClaimVerdict(id, (("held", True),)) for id in IDS}


@pytest.mark.parametrize("claim", CLAIMS, ids=IDS)
def test_every_predicate_can_fail(claim, report):
    falsify = HAND_BUILT.get(claim.id.split("/")[0], baseline_everywhere)
    verdict = ClaimVerdict(claim.id, tuple(claim.judge(falsify(report.evidence[claim.id]))))
    assert verdict.checks and not verdict.passed, verdict.summary()
    assert "[FAIL]" in verdict.summary()
    # One failed check of one claim — or one claim not judged — is enough.
    assert replace(report, verdicts=HELD).all_reproduced
    assert not replace(report, verdicts={**HELD, claim.id: verdict}).all_reproduced
    unjudged = ClaimVerdict(claim.id, None)
    assert not replace(report, verdicts={**HELD, claim.id: unjudged}).all_reproduced


def test_report_command_exits_1_on_a_single_failed_check(report, tmp_path, monkeypatch):
    argv = ["report", "--scale", "smoke", "--no-cache", "--out", str(tmp_path / "r.md")]
    broken = ClaimVerdict("structured", (("held", True), ("broke", False)))
    for verdicts, code in ((HELD, 0), ({**HELD, "structured": broken}, 1)):
        monkeypatch.setattr(
            full_report,
            "run_full_reproduction",
            lambda *args, **kwargs: replace(report, verdicts=verdicts),
        )
        assert main(argv) == code
    assert "[FAIL] broke" in (tmp_path / "r.md").read_text()


@pytest.mark.deep
def test_every_claim_reproduces_at_laptop_sizes():
    report = run_full_reproduction("laptop")
    assert report.all_reproduced, report.overall
