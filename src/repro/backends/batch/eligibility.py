"""Batch-backend eligibility: which cells vectorize, and why not.

A cell is batchable when the vectorized engine can replay it
draw-for-draw against the scalar oracle:

- the protocol has a kernel (:mod:`repro.backends.batch.kernels`:
  zero-draw ``flood``/``round-robin``, and the randomized protocols
  drawing through the RNG replay plane, :mod:`repro.backends.batch.rng`);
- the adversary has a replay plan
  (:func:`repro.backends.batch.adversaries.can_replay`), which is a
  setup replay plus scripted or state-driven mid-run hooks: its
  ``stream("adversary")`` draws are replayed at setup, its retimes
  (``tau^k`` local steps, ``tau^(k+l)`` delays) become per-(trial,
  process) timing grids, and what it does mid-run is either a script
  (oblivious) or a deterministic function of state the engine hands
  the plan's hooks — this step's sends (Strategy 2.k.0's crash loop,
  ``informed``'s traffic probe and its commit to one of the setup
  replays) or the live status and knowledge grids (``greedy-oracle``);
- default protocol/adversary kwargs, homogeneous environment,
  sanitizer off (monitors attach to the scalar engine only);
- the contact graph is the clique, or a *static* graph
  (``kernels.STATIC_TOPOLOGIES``: ``ring``, ``random-regular``,
  ``expander``) under a kernel that draws every partner through a
  candidate mask (``kernels.TOPOLOGY_PROTOCOLS``, the kernels that say
  ``topology = True``): the engine binds each trial's
  :mod:`repro.sim.topology` graph at setup and ANDs its adjacency row
  into the mask. ``dynamic:*`` changes the graph every step and would
  need a legality check when a pull is answered; flood, round-robin
  and sears address pids without a mask. Both stay scalar, each named.

**Narrowest-reason discipline.** ``why_ineligible`` names the most
specific failing condition: an unknown protocol/adversary is reported
as such, but a *batchable* protocol with pinned kwargs reports the
offending kwarg keys, a graph the reach mask cannot hold is named
before the kernel, and a kernel that cannot go off the clique is named
on a graph that could — the verdict a user can actually act on.

**Memoization.** The campaign router asks for every cache-miss spec of
a sweep; eligibility only depends on the spec's cell (protocol,
adversary, kwargs, environment, sanitize, topology — plus
``$REPRO_SANITIZE`` when the spec leaves ``sanitize=None``), so
verdicts are memoized per cell and hits are counted as
``backends.eligibility_memo_hits``.
"""

from __future__ import annotations

import os

from repro.backends.batch.adversaries import BATCH_ADVERSARIES, can_replay
from repro.backends.batch.kernels import (
    BATCH_PROTOCOLS,
    STATIC_TOPOLOGIES,
    TOPOLOGY_PROTOCOLS,
)
from repro.experiments.config import TrialSpec

__all__ = [
    "BATCH_PROTOCOLS",
    "BATCH_ADVERSARIES",
    "why_ineligible",
    "clear_eligibility_memo",
    "eligibility_grid",
    "topology_grid",
    "format_grid",
]

#: Memoized verdicts keyed by cell; bounded so adversarial spec streams
#: cannot grow it without limit (a sweep has a handful of cells).
_MEMO: dict[tuple, str | None] = {}
_MEMO_MAX = 4096


def _canonical_topology_or_spec(topology: "str | None") -> "str | None":
    """Canonical non-clique topology, or None for the clique.

    A *malformed* spec is returned verbatim (still non-None): whichever
    engine the cell routes to calls ``make_topology`` on it and raises
    the real :class:`~repro.errors.ConfigurationError` — eligibility
    only routes, it does not validate.
    """
    from repro.errors import ConfigurationError
    from repro.sim.topology import canonical_topology

    try:
        return canonical_topology(topology)
    except ConfigurationError:
        return topology


def _derive(spec: TrialSpec) -> str | None:
    """Compute the verdict from scratch (see module docstring for rules)."""
    if spec.protocol not in BATCH_PROTOCOLS:
        return (
            f"protocol {spec.protocol!r} has no vectorized kernel "
            f"(batchable: {', '.join(BATCH_PROTOCOLS)})"
        )
    if not can_replay(spec.adversary):
        return (
            f"adversary {spec.adversary!r} is not replayable by the batch "
            f"engine (batchable: {', '.join(BATCH_ADVERSARIES)}, str-2.<k>.<l>)"
        )
    # Identity checks above, narrower conditions below: from here the
    # cell *would* vectorize, so name the exact pin that stops it.
    if spec.protocol_kwargs:
        keys = ", ".join(k for k, _ in spec.protocol_kwargs)
        return (
            f"protocol kwargs ({keys}) pin parameters the "
            f"{spec.protocol!r} kernel does not replay"
        )
    if spec.adversary_kwargs:
        keys = ", ".join(k for k, _ in spec.adversary_kwargs)
        return (
            f"adversary kwargs ({keys}) pin parameters the "
            f"{spec.adversary!r} replay does not model"
        )
    if spec.environment not in (None, "homogeneous"):
        return (
            f"environment {spec.environment!r} draws per-process timings "
            "the batch timing grids do not replay"
        )
    topology = _canonical_topology_or_spec(spec.topology)
    if topology is not None:
        if topology.split(":")[0] not in STATIC_TOPOLOGIES:
            return (
                f"topology {topology!r} changes the contact graph mid-run; the "
                "batch reach mask is one adjacency per trial, bound at setup "
                f"(batchable: {', '.join(STATIC_TOPOLOGIES)})"
            )
        if spec.protocol not in TOPOLOGY_PROTOCOLS:
            return (
                f"topology {topology!r}: the {spec.protocol!r} kernel assumes "
                "the all-to-all clique (batchable off it: "
                f"{', '.join(TOPOLOGY_PROTOCOLS)})"
            )
    from repro.check.config import resolve_config

    mode = resolve_config(spec.sanitize).mode
    if mode != "off":
        return (
            f"sanitizer {mode!r} attaches execution monitors only the "
            "scalar engine carries"
        )
    return None


def _cell_key(spec: TrialSpec) -> tuple:
    # $REPRO_SANITIZE only reaches the verdict when the spec leaves
    # sanitize=None, so it only keys the memo in that case — an env
    # change mid-process (tests, CI) must invalidate those entries.
    env = os.environ.get("REPRO_SANITIZE", "") if spec.sanitize is None else ""
    return (
        spec.protocol,
        spec.adversary,
        spec.protocol_kwargs,
        spec.adversary_kwargs,
        spec.environment,
        spec.sanitize,
        spec.topology,
        env,
    )


def why_ineligible(spec: TrialSpec, *, metrics=None) -> str | None:
    """The reason *spec* cannot run on the batch backend (None = it can).

    Must stay cheap and allocation-light: the campaign router calls it
    for every cache-miss spec of a sweep. Verdicts are memoized per
    cell; *metrics* (a write-only registry) counts hits as
    ``backends.eligibility_memo_hits``.
    """
    try:
        key = _cell_key(spec)
        hit = key in _MEMO
    except TypeError:  # unhashable kwarg values: derive without memoizing
        return _derive(spec)
    if hit:
        if metrics is not None:
            metrics.count("backends.eligibility_memo_hits")
        return _MEMO[key]
    reason = _derive(spec)
    if len(_MEMO) >= _MEMO_MAX:
        _MEMO.clear()
    _MEMO[key] = reason
    return reason


def clear_eligibility_memo() -> None:
    """Drop every memoized verdict (test isolation hook)."""
    _MEMO.clear()


# ---------------------------------------------------------------- the grid


def eligibility_grid(*, n: int = 5, f: int = 2) -> list[tuple[str, str, str | None]]:
    """Batch-eligibility verdicts over the full protocol×adversary grid.

    Returns ``(protocol, adversary, reason)`` rows — ``reason`` None
    for batch-routed cells — probing each cell with a default spec
    (the verdict only depends on the cell, not on N/F/seed).
    """
    from repro.core.registry import available_adversaries
    from repro.protocols.registry import available_protocols

    adversaries = [a for a in available_adversaries() if "<" not in a] + [
        "str-2.1.0",
        "str-2.1.1",
    ]
    rows = []
    for protocol in available_protocols():
        for adversary in adversaries:
            spec = TrialSpec(protocol=protocol, adversary=adversary, n=n, f=f, seed=0)
            rows.append((protocol, adversary, why_ineligible(spec)))
    return rows


#: Topology specs probed by :func:`topology_grid` — one representative
#: per family of the :mod:`repro.sim.topology` grammar.
TOPOLOGY_PROBES = (
    "complete",
    "ring:1",
    "random-regular:3",
    "expander",
    "dynamic:ring:1:0.1",
)


def topology_grid(*, n: int = 5, f: int = 2) -> list[tuple[str, str | None]]:
    """Routing verdicts per topology family, probed on a batchable cell.

    Returns ``(topology, reason)`` rows — the cell itself (push x none)
    vectorizes, so any non-None reason is the topology's own.
    """
    rows = []
    for topology in TOPOLOGY_PROBES:
        spec = TrialSpec(
            protocol="push", adversary="none", n=n, f=f, seed=0, topology=topology
        )
        rows.append((topology, why_ineligible(spec)))
    return rows


def format_grid(
    rows: list[tuple[str, str, str | None]],
    topology_rows: "list[tuple[str, str | None]] | None" = None,
) -> str:
    """Render grid rows as the matrix ``repro-ugf backends --grid`` prints.

    One line per protocol, one column per adversary, cells ``batch`` or
    ``scalar[x]`` with a deduplicated reason legend below — the exact
    text the committed snapshot in ``tests/backends/snapshots/`` pins.
    *topology_rows* (from :func:`topology_grid`) appends a topology
    routing section sharing the same reason legend.
    """
    protocols = list(dict.fromkeys(p for p, _, _ in rows))
    adversaries = list(dict.fromkeys(a for _, a, _ in rows))
    verdicts = {(p, a): reason for p, a, reason in rows}
    reasons: dict[str, str] = {}  # reason -> footnote letter
    for _, _, reason in rows:
        if reason is not None and reason not in reasons:
            reasons[reason] = chr(ord("a") + len(reasons))
    if topology_rows:
        for _, reason in topology_rows:
            if reason is not None and reason not in reasons:
                reasons[reason] = chr(ord("a") + len(reasons))

    name_w = max(len("protocol"), max(len(p) for p in protocols)) + 2
    col_ws = [max(len(a), len("scalar[x]")) + 2 for a in adversaries]
    lines = ["protocol x adversary routing (batch backend eligibility):", ""]
    header = "protocol".ljust(name_w) + "".join(
        a.ljust(w) for a, w in zip(adversaries, col_ws)
    )
    lines.append(header.rstrip())
    for p in protocols:
        cells = []
        for a, w in zip(adversaries, col_ws):
            reason = verdicts[(p, a)]
            mark = "batch" if reason is None else f"scalar[{reasons[reason]}]"
            cells.append(mark.ljust(w))
        lines.append((p.ljust(name_w) + "".join(cells)).rstrip())
    if topology_rows:
        topo_w = max(len("topology"), max(len(t) for t, _ in topology_rows)) + 2
        lines.append("")
        lines.append("topology routing (probed on a batchable cell):")
        lines.append("")
        for topology, reason in topology_rows:
            mark = "batch" if reason is None else f"scalar[{reasons[reason]}]"
            lines.append((topology.ljust(topo_w) + mark).rstrip())
    if reasons:
        lines.append("")
        lines.append("scalar fallback reasons:")
        for reason, letter in reasons.items():
            lines.append(f"  [{letter}] {reason}")
    return "\n".join(lines) + "\n"
