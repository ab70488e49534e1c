"""The eligibility matrix is a committed artifact, not an emergent one.

``repro-ugf backends --grid`` prints which protocol×adversary cells
route to the batch backend and why the rest fall back. That matrix is
the routing contract of a release: a kernel refactor that silently
drops a cell back to scalar (or accidentally claims one it cannot
replay) must fail CI, not surface as a throughput regression weeks
later. The committed snapshot pins it; regenerate deliberately with::

    REPRO_SANITIZE= PYTHONPATH=src python -m repro.cli backends --grid \
        > tests/backends/snapshots/backends_grid.txt
"""

from pathlib import Path

import pytest

from repro.backends.batch import (
    clear_eligibility_memo,
    eligibility_grid,
    format_grid,
    topology_grid,
)

SNAPSHOT = Path(__file__).parent / "snapshots" / "backends_grid.txt"


@pytest.fixture(autouse=True)
def _default_environment(monkeypatch):
    # The snapshot is the default-environment matrix; a pinned
    # $REPRO_SANITIZE would legitimately turn every cell scalar.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    clear_eligibility_memo()


def test_grid_matches_committed_snapshot():
    assert format_grid(eligibility_grid(), topology_grid()) == SNAPSHOT.read_text()


def test_cli_grid_prints_the_snapshot(capsys):
    from repro.cli import main

    assert main(["backends", "--grid"]) == 0
    assert capsys.readouterr().out == SNAPSHOT.read_text()


def test_grid_covers_the_full_registries():
    from repro.core.registry import available_adversaries
    from repro.protocols.registry import available_protocols

    rows = eligibility_grid()
    protocols = {p for p, _, _ in rows}
    adversaries = {a for _, a, _ in rows}
    assert protocols == set(available_protocols())
    concrete = {a for a in available_adversaries() if "<" not in a}
    assert adversaries == concrete | {"str-2.1.0", "str-2.1.1"}


def test_topology_grid_routes_static_families_and_declines_dynamic():
    rows = dict(topology_grid())
    assert rows.pop("complete") is None
    dynamic = {t: reason for t, reason in rows.items() if t.startswith("dynamic:")}
    static = rows.keys() - dynamic.keys()
    assert {t.split(":")[0] for t in static} == {"ring", "random-regular", "expander"}
    assert all(rows[t] is None for t in static)
    assert dynamic
    for topology, reason in dynamic.items():
        assert topology in reason and "mid-run" in reason
