"""Hedged Push-Pull: a protocol that tries to adapt against UGF.

The paper's central claim is that its adversary is universal — gossip
protocols cannot adapt their way out because UGF's strategies are
indistinguishable until it is too late (§IV-A). This module puts the
claim to the test from the protocol's side.

:class:`HedgedPushPull` behaves like Push-Pull, but watches its own
pull requests: when many are *outstanding* (sent, yet the target's
gossip still unknown — the observable signature of crashed or silenced
targets), it escalates, pulling several fresh targets per local step
instead of one. Against Strategy 1 this compresses the
pull-every-corpse phase that gives Push-Pull its Θ(F) time floor.

With width growing by one per silent step, covering the ~F/2 corpses
takes ~sqrt(F) local steps instead of ~F/2 — hedging buys the *time*
axis back to sublinear. What it cannot buy back (the ``adaptation``
claim in ``experiments/claims.py``) is the *message* axis: Strategy
2.k.l's delayed group still extracts the same near-quadratic pull tax,
because during the window in which the hedge decides, Strategy 1 and
Strategy 2.k.l are indistinguishable (Lemma 1) — no local policy can
dodge both. Adaptation moves the protocol along Theorem 1's trade-off;
it does not escape the disjunction.
"""

from __future__ import annotations

import numpy as np

from repro._typing import ProcessId
from repro.errors import ConfigurationError
from repro.protocols.base import GossipProtocol, LocalStep
from repro.protocols.knowledge import GossipKnowledge
from repro.protocols.push_pull import PullRequest

__all__ = ["HedgedPushPull"]

_PULL = PullRequest()


class HedgedPushPull(GossipProtocol):
    """Push-Pull with silence-triggered pull escalation."""

    name = "hedged-push-pull"

    def __init__(
        self,
        escalate_every: int = 1,
        max_width: int = 8,
        rtt_allowance: int = 4,
    ) -> None:
        if escalate_every < 1:
            raise ConfigurationError(
                f"escalate_every must be >= 1, got {escalate_every}"
            )
        if max_width < 1:
            raise ConfigurationError(f"max_width must be >= 1, got {max_width}")
        if rtt_allowance < 0:
            raise ConfigurationError(
                f"rtt_allowance must be >= 0, got {rtt_allowance}"
            )
        self.escalate_every = escalate_every
        self.max_width = max_width
        # A pull answered promptly is still outstanding for one
        # round trip (~2(delta+d) global steps); this allowance keeps
        # the hedge silent in benign runs so the baseline cost stays
        # at Push-Pull's.
        self.rtt_allowance = rtt_allowance

    def _allocate(self) -> None:
        n = self.n
        self._knowledge = [GossipKnowledge(n, rho) for rho in range(n)]
        self._pulled = np.zeros((n, n), dtype=bool)
        self._pushed = np.zeros((n, n), dtype=bool)
        idx = np.arange(n)
        self._pulled[idx, idx] = True
        self._pushed[idx, idx] = True

    def _pull_width(self, rho: ProcessId, unknown: np.ndarray) -> int:
        # Outstanding pulls: targets we asked, whose gossip we still
        # lack. A correct, reachable target answers within a couple of
        # local steps, so a growing backlog means silence.
        outstanding = int((self._pulled[rho] & unknown).sum())
        backlog = max(0, outstanding - self.rtt_allowance)
        return min(self.max_width, 1 + backlog // self.escalate_every)

    def on_local_step(self, ctx: LocalStep) -> bool:
        rho = ctx.rho
        kn = self._knowledge[rho]

        requesters = []
        for msg in ctx.inbox:
            if msg.payload is _PULL or isinstance(msg.payload, PullRequest):
                requesters.append(msg.sender)
            else:
                kn.merge(msg.payload)

        if requesters:
            snap = kn.snapshot()
            for requester in requesters:
                if self.can_contact(rho, requester, ctx.now):
                    ctx.send(requester, snap)

        unknown = kn.unknown_mask()
        if self.topology is None:
            if bool((self._pulled[rho] | ~unknown).all()):
                return True
            candidates = np.flatnonzero(unknown & ~self._pulled[rho])
            push_candidates = np.flatnonzero(~self._pushed[rho])
        else:
            reach = self.neighbor_mask(rho, ctx.now)
            if bool((self._pulled[rho] | ~unknown | ~reach).all()):
                return True
            candidates = np.flatnonzero(unknown & ~self._pulled[rho] & reach)
            push_candidates = np.flatnonzero(~self._pushed[rho] & reach)

        # Hedged pull: width grows with the silent backlog.
        if candidates.size:
            width = min(self._pull_width(rho, unknown), candidates.size)
            picks = self.rngs[rho].choice(candidates.size, size=width, replace=False)
            for pick in picks:
                target = int(candidates[int(pick)])
                ctx.send(target, _PULL)
                self._pulled[rho, target] = True

        if push_candidates.size:
            target = int(
                push_candidates[self.rngs[rho].integers(push_candidates.size)]
            )
            ctx.send(target, kn.snapshot())
            self._pushed[rho, target] = True

        if self.topology is None:
            return bool((self._pulled[rho] | ~unknown).all())
        return bool((self._pulled[rho] | ~unknown | ~reach).all())

    def knowledge_of(self, rho: ProcessId) -> np.ndarray:
        return self._knowledge[rho].to_bool()
