"""Frozen result of one execution, with the paper's complexity measures.

An :class:`Outcome` corresponds to the paper's outcome ``O`` — the full
realisation of one run. It carries enough aggregate information to
compute:

- **Message complexity** ``M(O)`` (Definition II.3): the total number
  of messages sent by all processes, crashed ones included up to their
  crash, regardless of payload size.
- **Time complexity** ``T(O) = T_end(O) / (delta + d)``
  (Definition II.4): the completion step of the last correct process,
  normalised by the maximum local-step time plus the maximum delivery
  time in force during the outcome.

Runs that hit ``max_steps`` before quiescence are flagged
``completed=False``; complexity accessors then raise
:class:`~repro.errors.IncompleteRunError` unless explicitly overridden,
because a truncated ``T_end`` silently biases medians downward.

Outcomes have one codec, the *wire*: :meth:`Outcome.to_wire` /
:meth:`Outcome.from_wire`. It serves worker-pool IPC, ``trials.jsonl``
store lines and the campaign service's outcome frames. It is
positional (no repeated field names), converts each numpy counter
exactly once via ``tolist()``, and stays JSON-safe, so the same list
is pickled across the process pool, appended to the store and framed
on the socket, and round-trips bit-identically through JSON. Campaign
cache keys hash the *spec*, never the outcome encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro._typing import GlobalStep, ProcessId
from repro.errors import IncompleteRunError

__all__ = ["Outcome", "WIRE_VERSION"]

#: Version tag leading every wire record; bump on layout changes so a
#: reader never misinterprets positional fields.
WIRE_VERSION = 1


@dataclass(frozen=True, slots=True)
class Outcome:
    """Immutable record of one simulated execution."""

    n: int
    f: int
    seed: int
    protocol_name: str
    adversary_name: str
    completed: bool
    rumor_gathering_ok: bool
    t_end: GlobalStep
    max_local_step_time: int
    max_delivery_time: int
    sent: np.ndarray
    received: np.ndarray
    bytes_sent: np.ndarray
    crashed: tuple[ProcessId, ...]
    crash_steps: dict[ProcessId, GlobalStep] = field(repr=False)
    sleep_counts: np.ndarray = field(repr=False)
    wake_counts: np.ndarray = field(repr=False)
    steps_simulated: int = 0
    #: Label of the strategy a mixture adversary (UGF) drew for this
    #: run, e.g. ``"str-2.1.0"``; None for single-strategy adversaries.
    strategy_label: str | None = None
    #: Canonical contact-graph spec the run executed under (see
    #: :mod:`repro.sim.topology`); None for the legacy clique. Carried
    #: on the outcome so offline checkers (Theorem-1 audit) can
    #: classify non-clique cells ``OUT-OF-MODEL`` without the spec.
    topology: str | None = None
    #: Serialized :class:`~repro.check.violations.SanitizerReport` when
    #: the run executed under the execution-model sanitizer; None when
    #: the sanitizer was off. Instrumentation, not part of the result:
    #: cache keys and replay comparisons deliberately ignore it.
    sanitizer: dict[str, Any] | None = field(default=None, repr=False)

    # -- complexity measures --------------------------------------------------

    def _require_complete(self, allow_truncated: bool) -> None:
        if not self.completed and not allow_truncated:
            raise IncompleteRunError(
                f"run (N={self.n}, F={self.f}, protocol={self.protocol_name}, "
                f"adversary={self.adversary_name}, seed={self.seed}) hit the "
                "step limit before quiescence; pass allow_truncated=True to "
                "measure anyway"
            )

    def message_complexity(self, *, allow_truncated: bool = False) -> int:
        """``M(O)``: total messages sent by all processes."""
        self._require_complete(allow_truncated)
        return int(self.sent.sum())

    def message_complexity_of(
        self, rho: ProcessId, *, allow_truncated: bool = False
    ) -> int:
        """``M_rho(O)``: messages sent by one process."""
        self._require_complete(allow_truncated)
        return int(self.sent[rho])

    def time_complexity(self, *, allow_truncated: bool = False) -> float:
        """``T(O) = T_end / (delta + d)``."""
        self._require_complete(allow_truncated)
        return self.t_end / (self.max_local_step_time + self.max_delivery_time)

    def bandwidth(self, *, allow_truncated: bool = False) -> int:
        """Total payload bytes sent — the size Definition II.3 ignores.

        An extension metric: the paper's M(O) counts messages
        regardless of content; bandwidth shows the wire cost of the
        several-gossips-per-message convention (most dramatic for
        SEARS, whose every message carries full (G, I) snapshots).
        """
        self._require_complete(allow_truncated)
        return int(self.bytes_sent.sum())

    # -- convenience -------------------------------------------------------------

    @property
    def correct(self) -> np.ndarray:
        """Ids of processes that never crashed."""
        mask = np.ones(self.n, dtype=bool)
        if self.crashed:
            mask[list(self.crashed)] = False
        return np.flatnonzero(mask)

    @property
    def crash_count(self) -> int:
        return len(self.crashed)

    def summary(self) -> str:
        """One-line human-readable digest."""
        if self.completed:
            m = self.message_complexity()
            t = self.time_complexity()
            tail = f"M={m} T={t:.2f}"
        else:
            tail = "TRUNCATED"
        return (
            f"[{self.protocol_name} vs {self.adversary_name}] "
            f"N={self.n} F={self.f} seed={self.seed} "
            f"crashes={self.crash_count} gather={self.rumor_gathering_ok} {tail}"
        )

    # -- persistence --------------------------------------------------------------

    def to_wire(self) -> list[Any]:
        """Compact positional encoding; exact inverse of :meth:`from_wire`.

        Used for worker-pool IPC (pickled) and ``trials.jsonl`` store
        lines (JSON). Field names are implied by position, numpy
        counters are converted once with ``tolist()``, and
        ``crash_steps`` is flattened into an alternating
        ``[pid, step, pid, step, ...]`` list. Every element is
        JSON-native, so ``json.dumps(outcome.to_wire())`` is valid and
        round-trips bit-identically (JSON turns the list into itself).

        The wire is *additive*: a trailing ``topology`` element is
        appended only for non-clique runs, so clique wires stay
        byte-identical to every record written before topology existed
        (the differential proof standard across backends/chaos/obs).
        """
        crash_steps: list[int] = []
        for pid in sorted(self.crash_steps):
            crash_steps.append(int(pid))
            crash_steps.append(int(self.crash_steps[pid]))
        wire = [
            WIRE_VERSION,
            self.n,
            self.f,
            self.seed,
            self.protocol_name,
            self.adversary_name,
            self.completed,
            self.rumor_gathering_ok,
            int(self.t_end),
            self.max_local_step_time,
            self.max_delivery_time,
            self.sent.tolist(),
            self.received.tolist(),
            self.bytes_sent.tolist(),
            [int(p) for p in self.crashed],
            crash_steps,
            self.sleep_counts.tolist(),
            self.wake_counts.tolist(),
            self.steps_simulated,
            self.strategy_label,
            self.sanitizer,
        ]
        if self.topology is not None:
            wire.append(self.topology)
        return wire

    @classmethod
    def from_wire(cls, wire: "list[Any] | tuple[Any, ...]") -> "Outcome":
        """Rebuild an outcome encoded by :meth:`to_wire`.

        Accepts lists or tuples (JSON decodes to lists, pickle keeps
        whatever was sent). Raises ``ValueError`` on an unknown wire
        version rather than guessing at positional semantics, and on
        per-process arrays not of length ``n``, a crashed pid outside
        ``[0, n)`` or crash steps not in distinct ``pid, step`` pairs.
        """
        if not wire or wire[0] != WIRE_VERSION:
            version = wire[0] if wire else None
            raise ValueError(
                f"unsupported outcome wire version {version!r} "
                f"(supported: {WIRE_VERSION})"
            )
        (
            _version,
            n,
            f,
            seed,
            protocol_name,
            adversary_name,
            completed,
            rumor_gathering_ok,
            t_end,
            max_local_step_time,
            max_delivery_time,
            sent,
            received,
            bytes_sent,
            crashed,
            crash_steps,
            sleep_counts,
            wake_counts,
            steps_simulated,
            strategy_label,
            sanitizer,
        ) = wire[:21]
        topology = wire[21] if len(wire) > 21 else None
        o = cls(
            n=int(n),
            f=int(f),
            seed=int(seed),
            protocol_name=protocol_name,
            adversary_name=adversary_name,
            completed=bool(completed),
            rumor_gathering_ok=bool(rumor_gathering_ok),
            t_end=int(t_end),
            max_local_step_time=int(max_local_step_time),
            max_delivery_time=int(max_delivery_time),
            sent=np.asarray(sent, dtype=np.int64),
            received=np.asarray(received, dtype=np.int64),
            bytes_sent=np.asarray(bytes_sent, dtype=np.int64),
            crashed=tuple(int(p) for p in crashed),
            crash_steps={
                int(pid): int(step) for pid, step in zip(crash_steps[::2], crash_steps[1::2])
            },
            sleep_counts=np.asarray(sleep_counts, dtype=np.int64),
            wake_counts=np.asarray(wake_counts, dtype=np.int64),
            steps_simulated=int(steps_simulated),
            strategy_label=strategy_label,
            sanitizer=sanitizer,
            topology=topology,
        )
        counters = (o.sent, o.received, o.bytes_sent, o.sleep_counts, o.wake_counts)
        if any(a.shape != (o.n,) for a in counters) or 2 * len(o.crash_steps) != len(crash_steps):
            raise ValueError(f"outcome wire does not describe {o.n} processes")
        if not all(0 <= p < o.n for p in o.crashed):
            raise ValueError(f"outcome wire crashes a pid outside [0, {o.n})")
        return o
