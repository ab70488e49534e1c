"""Host-speed calibration: a fixed reference kernel timed beside the load.

Small shared VMs drift by tens of percent over a minute (a pure-Python
loop on the 2-core box this suite was sized on swings 115-200 ms with
no load of ours running), which is several times the regression bounds.
The suite therefore times one fixed kernel — interpreter loop, small
numpy arithmetic, a JSON round-trip; no code shared with ``src/`` so no
program change can move it — right before and after every submission,
and divides each measured time by how much slower than
``REFERENCE_TICK_S`` the kernel ran around it. Reported times are thus
in seconds of a host running at reference speed; the raw wall-clock
values are kept next to them in results.json.
"""

from __future__ import annotations

import json
import time

import numpy as np

__all__ = ["HostClock", "REFERENCE_TICK_S", "tick"]

#: The kernel's time on the sizing box in its fast state. Only a unit:
#: every comparison is between runs normalised by the same constant.
REFERENCE_TICK_S = 0.003

_ARRAY = np.arange(20_000, dtype=np.int64)
_DOCUMENT = {"counts": list(range(200)), "label": "x" * 100}


def tick() -> float:
    """Run the reference kernel once; its wall time in seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(12_000):
        total += i * i
    for _ in range(12):
        (_ARRAY * 3 + 1).sum()
    for _ in range(40):
        json.loads(json.dumps(_DOCUMENT))
    return time.perf_counter() - start


class HostClock:
    """Slowdown of the host over successive intervals of one thread."""

    def __init__(self) -> None:
        #: Seconds spent inside ticks, to be kept out of CPU accounting.
        self.spent = 0.0
        self._last = 0.0
        self.sync()

    def _tick(self) -> float:
        t = tick()
        self.spent += t
        return t

    def sync(self) -> None:
        """Start a new interval now."""
        self._last = self._tick()

    def advance(self) -> float:
        """End the interval that began at the previous tick: how many
        times slower than reference the host ran across it."""
        now = self._tick()
        factor = (self._last + now) / 2 / REFERENCE_TICK_S
        self._last = now
        return factor
