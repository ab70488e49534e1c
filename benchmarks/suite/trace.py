"""In-memory spans recorded from the benchmark's side of each layer
boundary; written out once, when the run ends."""

from __future__ import annotations

import contextlib
import json
import pathlib
import threading
import time

__all__ = ["Tracer"]


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        #: Time spent recording spans, for trace.overhead_frac.
        self.seconds = 0.0
        self._lock = threading.Lock()

    def add(
        self,
        name: str,
        start: float,
        end: float | None,
        *,
        parent: int | None = None,
        submission: str | None = None,
        host: float = 1.0,
    ) -> int:
        """Record a span; *host* is how much slower than reference the
        host ran across it (see hostclock.py)."""
        began = time.perf_counter()
        span = {
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "workload": self.workload,
            "submission": submission,
            "host": host,
        }
        with self._lock:
            self.spans.append(span)
            sid = len(self.spans) - 1
            self.seconds += time.perf_counter() - began
        return sid

    @contextlib.contextmanager
    def span(self, name: str, *, parent: int | None = None, submission: str | None = None):
        sid = self.add(name, time.perf_counter(), None, parent=parent, submission=submission)
        try:
            yield sid
        finally:
            self.spans[sid]["end"] = time.perf_counter()

    def busy(self, name: str) -> float:
        """Host-normalised time inside closed spans called *name*."""
        return sum(
            (s["end"] - s["start"]) / s["host"]
            for s in self.spans
            if s["name"] == name and s["end"] is not None
        )

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [dict(span, id=i) for i, span in enumerate(self.spans)]
        path.write_text(json.dumps({"workload": self.workload, "spans": spans}))
