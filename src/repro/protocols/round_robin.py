"""The deterministic protocol of the paper's Example 1.

"Every process sorts the other processes and sends its gossip to one
process per step during N-1 steps (following the order it created)."
Its complexities are ``M(O) = Theta(N^2)`` and ``T(O) = Theta(N)`` for
every outcome, which the paper uses to anchor what *inefficient* means;
we use it to validate the complexity meters end-to-end
(the ``example1`` claim of ``experiments/claims.py`` and the analysis
tests).

The sort order here is the rotation ``rho+1, rho+2, ..., rho-1``
(mod N), which spreads load evenly across receivers; any fixed order
satisfies Example 1.
"""

from __future__ import annotations

import numpy as np

from repro._typing import ProcessId
from repro.protocols.base import GossipProtocol, LocalStep
from repro.protocols.knowledge import GossipKnowledge

__all__ = ["RoundRobin"]


class RoundRobin(GossipProtocol):
    """Example 1: one own-gossip send per step, fixed order, N-1 steps."""

    name = "round-robin"

    def _allocate(self) -> None:
        n = self.n
        self._knowledge = [GossipKnowledge(n, rho) for rho in range(n)]
        self._sent_count = np.zeros(n, dtype=np.int64)
        if self.topology is None:
            self._schedule_len = np.full(n, n - 1, dtype=np.int64)
        else:
            # Off the clique the fixed order walks the (bind-time)
            # neighborhood once; degree bounds the schedule.
            self._schedule_len = np.array(
                [self.neighbors(rho).size for rho in range(n)], dtype=np.int64
            )

    def on_local_step(self, ctx: LocalStep) -> bool:
        rho = ctx.rho
        kn = self._knowledge[rho]
        for msg in ctx.inbox:
            kn.merge(msg.payload)

        k = int(self._sent_count[rho])
        schedule_len = int(self._schedule_len[rho])
        if k >= schedule_len:
            # Finished its schedule; any later wake-up just re-sleeps.
            return True
        if self.topology is None:
            target = (rho + 1 + k) % self.n
        else:
            # Same rotation, restricted to the current neighborhood:
            # start just past rho in sorted id order, wrap around. A
            # step-isolated node (possible under dynamic rewiring)
            # skips the scheduled contact but still burns the slot, so
            # the schedule always terminates.
            nbrs = self.neighbors(rho, ctx.now)
            if nbrs.size == 0:
                self._sent_count[rho] = k + 1
                return k + 1 >= schedule_len
            offset = int(np.searchsorted(nbrs, rho))
            target = int(nbrs[(offset + k) % nbrs.size])
        ctx.send(target, kn.snapshot())
        self._sent_count[rho] = k + 1
        return k + 1 >= schedule_len

    def knowledge_of(self, rho: ProcessId) -> np.ndarray:
        return self._knowledge[rho].to_bool()
