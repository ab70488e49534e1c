"""The network: per-sender delivery delays over a contact graph.

Messages sent at global step ``t`` by process ``rho`` arrive at
``t + d_rho`` with ``d_rho`` read *at send time*: an adversary
retiming ``d_rho`` afterwards affects only future sends, which matches
how UGF uses delays (it configures them before the dissemination
starts, at step 0).

By default the graph is the paper's clique (``topology=None`` — the
zero-overhead legacy path). A bound non-complete
:class:`~repro.sim.topology.Topology` restricts delivery to declared
edges: a send whose edge does not exist at the *decision* step (the
local step in which the protocol chose the partner, ``decided_at``) is
dropped omission-style — the sender paid for it (it counts toward
``M_rho`` and the trace's omitted counter) but it never travels. The
sanitizer's legality monitor independently flags such contacts; the
kernel drop keeps the simulation semantics well-defined even with the
sanitizer off.

The in-flight store is a bucket dict keyed by arrival step. Arrival
steps are bounded (``d`` is finite, Definition II.5 keeps it so), the
engine consumes buckets strictly in step order, and a bucket is
deleted once delivered — the structure is effectively a calendar
queue, O(1) per send and per delivery, with no heap overhead.

For quiescence detection the network maintains the count of in-flight
messages addressed to *correct* processes: messages to crashed
receivers can never cause any future event, so they must not keep the
simulation alive. The count is backed by a per-receiver in-flight
counter array, so a crash settles the books in O(1) — subtract the
victim's counter and zero it — instead of scanning every bucket for
messages addressed to the victim (O(in-flight), and the old scan's
"was this message already discounted?" reasoning was a standing
double-decrement hazard).
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Iterator

from repro._typing import GlobalStep, ProcessId
from repro.errors import ProtocolViolation, SimulationError
from repro.sim.messages import Message, payload_size
from repro.sim.timing import TimingTable
from repro.sim.trace import TraceRecorder

__all__ = ["Network"]


class Network:
    """In-flight message store of the simulated fully-connected network."""

    __slots__ = (
        "_n",
        "_timing",
        "_trace",
        "_sanitizer",
        "_metrics",
        "_buckets",
        "_inflight_to_correct",
        "_inflight_by_receiver",
        "_crashed",
        "_omitted",
        "_topology",
        "_blocked_contacts",
        "_last_delivered_step",
        "_m_sends",
        "_m_omits",
        "_m_delivered",
        "_m_dropped",
        "_deliver_hist",
    )

    def __init__(
        self,
        n: int,
        timing: TimingTable,
        trace: TraceRecorder,
        *,
        sanitizer=None,
        metrics=None,
        topology=None,
    ) -> None:
        self._n = n
        self._timing = timing
        self._trace = trace
        self._sanitizer = sanitizer
        # Non-complete contact graph, or None for the legacy clique
        # (None keeps the hot path branch-predictable and byte-exact).
        self._topology = topology
        self._blocked_contacts = 0
        # Write-only observability (see repro.obs); never read here, so
        # delivery order and outcomes cannot depend on it.
        self._metrics = metrics
        self._buckets: dict[GlobalStep, list[Message]] = {}
        self._inflight_to_correct = 0
        # In-flight messages per (correct) receiver; zeroed at crash.
        self._inflight_by_receiver = [0] * n
        self._crashed: set[ProcessId] = set()
        self._omitted: set[ProcessId] = set()
        self._last_delivered_step: GlobalStep = 0
        # Metric accumulators: plain int adds on the per-message path;
        # folded into the registry once per run by flush_metrics().
        self._m_sends = 0
        self._m_omits = 0
        self._m_delivered = 0
        self._m_dropped = 0
        self._deliver_hist = (
            metrics.span_histogram("network.deliver") if metrics is not None else None
        )

    # -- sending ---------------------------------------------------------------

    def send(
        self,
        sender: ProcessId,
        receiver: ProcessId,
        payload: object,
        now: GlobalStep,
        decided_at: "GlobalStep | None" = None,
    ) -> Message:
        """Enqueue one message; returns the in-flight record.

        Sends to already-crashed receivers still *count* as sent
        messages (the sender paid for them — that is precisely how
        Strategy 2.k.0 inflates complexity) but are dropped at their
        arrival step. *decided_at* is the global step at which the
        sender's local step began (contact legality under a dynamic
        topology is judged against the graph of the decision step,
        not the emission step *now*); it defaults to *now*.
        """
        if not 0 <= receiver < self._n:
            raise ProtocolViolation(
                f"process {sender} addressed invalid receiver {receiver}"
            )
        if receiver == sender:
            raise ProtocolViolation(f"process {sender} sent a message to itself")
        arrives = now + self._timing.delivery_time(sender)
        size = payload_size(payload)
        msg = Message(
            sender, receiver, payload, sent_at=now, arrives_at=arrives, size=size
        )
        self._trace.on_send(now, sender, receiver, size)
        if self._sanitizer is not None:
            self._sanitizer.on_send(now, msg)
        if self._metrics is not None:
            self._m_sends += 1
        if self._topology is not None and not self._topology.allows(
            sender, receiver, now if decided_at is None else decided_at
        ):
            # Out-of-topology contact: there is no edge to carry the
            # message. Paid for (counts toward M_rho), never travels —
            # the same books as an omission, so the delivery monitor's
            # outstanding counts stay balanced.
            self._blocked_contacts += 1
            self._trace.on_omit(now, sender, receiver)
            if self._sanitizer is not None:
                self._sanitizer.on_omit(now, msg)
            return msg
        if sender in self._omitted:
            # An omission adversary silenced this sender: the message
            # is paid for (it counts toward M_rho) but never travels.
            self._trace.on_omit(now, sender, receiver)
            if self._sanitizer is not None:
                self._sanitizer.on_omit(now, msg)
            if self._metrics is not None:
                self._m_omits += 1
            return msg
        self._buckets.setdefault(arrives, []).append(msg)
        if receiver not in self._crashed:
            self._inflight_to_correct += 1
            self._inflight_by_receiver[receiver] += 1
        return msg

    # -- delivery -----------------------------------------------------------------

    def deliver_due(
        self, now: GlobalStep, deposit: Callable[[Message], None]
    ) -> list[Message]:
        """Deliver all messages whose arrival step is *now*.

        ``deposit`` receives each message for a live receiver (the
        engine routes it into the mailbox and handles wake-ups);
        messages to crashed receivers are dropped here. Returns the
        delivered messages.
        """
        if now < self._last_delivered_step:
            raise SimulationError(
                f"deliveries requested out of order: {now} after {self._last_delivered_step}"
            )
        self._last_delivered_step = now
        bucket = self._buckets.pop(now, None)
        if not bucket:
            return []
        deliver_hist = self._deliver_hist
        if deliver_hist is not None:
            deliver_t0 = perf_counter()
        delivered: list[Message] = []
        dropped = 0
        san = self._sanitizer
        for msg in bucket:
            if msg.receiver in self._crashed:
                # Already settled: the receiver's per-receiver counter
                # was subtracted and zeroed at crash time (on_crash),
                # or never incremented if it was crashed at send time.
                self._trace.on_drop(now, msg.sender, msg.receiver)
                if san is not None:
                    san.on_drop(now, msg)
                dropped += 1
                continue
            self._inflight_to_correct -= 1
            self._inflight_by_receiver[msg.receiver] -= 1
            deposit(msg)
            delivered.append(msg)
            self._trace.on_deliver(now, msg.sender, msg.receiver)
            if san is not None:
                san.on_deliver(now, msg)
        if deliver_hist is not None:
            deliver_hist.observe(perf_counter() - deliver_t0)
            self._m_delivered += len(delivered)
            self._m_dropped += dropped
        return delivered

    def flush_metrics(self) -> None:
        """Fold the per-message accumulators into the registry.

        Called once by the engine at end of run: per-message events are
        too hot for a registry ``count()`` each (the < 5% overhead gate
        is the ``metrics`` row of ``benchmarks/gates.py``), so they
        accumulate as plain ints and land in the registry here.
        """
        m = self._metrics
        if m is None:
            return
        for name, value in (
            ("network.sends", self._m_sends),
            ("network.omits", self._m_omits),
            ("network.delivered", self._m_delivered),
            ("network.dropped_to_crashed", self._m_dropped),
            ("network.blocked_contacts", self._blocked_contacts),
        ):
            if value:
                m.count(name, value)
        self._m_sends = self._m_omits = 0
        self._m_delivered = self._m_dropped = 0

    @property
    def blocked_contacts(self) -> int:
        """Sends dropped because their edge did not exist (diagnostics)."""
        return self._blocked_contacts

    # -- omission ---------------------------------------------------------------

    def set_omission(self, rho: ProcessId, enabled: bool = True) -> None:
        """Silence (or un-silence) future sends of *rho*.

        Beyond the Definition II.5 powers — kernel support for the
        paper's §VII omission-adversary question. Messages already in
        flight are unaffected.
        """
        if enabled:
            self._omitted.add(rho)
        else:
            self._omitted.discard(rho)

    def is_omitted(self, rho: ProcessId) -> bool:
        return rho in self._omitted

    # -- crash bookkeeping -----------------------------------------------------

    def on_crash(self, rho: ProcessId) -> None:
        """Mark *rho* crashed; its pending inbound messages become inert.

        O(1): the per-receiver counter already knows how many in-flight
        messages address *rho*, so they are discounted wholesale and the
        counter is zeroed — the messages themselves stay in their
        buckets and are dropped (without further accounting) at their
        arrival step.
        """
        if rho in self._crashed:
            return
        self._crashed.add(rho)
        self._inflight_to_correct -= self._inflight_by_receiver[rho]
        self._inflight_by_receiver[rho] = 0

    # -- quiescence support ------------------------------------------------------

    @property
    def inflight_to_correct(self) -> int:
        """Messages in flight whose receiver is still correct."""
        return self._inflight_to_correct

    def inflight_to(self, rho: ProcessId) -> int:
        """In-flight messages addressed to *rho* (0 once crashed)."""
        return self._inflight_by_receiver[rho]

    def next_arrival_step(self) -> GlobalStep | None:
        """Earliest pending arrival step, or None when nothing is in flight.

        Used by the engine to fast-forward through stretches of global
        steps in which nothing can happen (crucial when UGF sets
        delays of order F^2: simulating those steps one by one would
        dominate the run time for zero information).
        """
        if not self._buckets:
            return None
        return min(self._buckets)

    def pending(self) -> Iterator[Message]:
        """Iterate over all in-flight messages (testing/diagnostics)."""
        for step in sorted(self._buckets):
            yield from self._buckets[step]
