"""Process accounting and the daemon subprocess (Linux ``/proc``).

CPU is summed over the generator and every live descendant (pool
workers, the daemon) from ``/proc/<pid>/stat``; children that already
exited are in their parent's ``cutime``/``cstime``, so nothing is lost
when a pool is torn down between two snapshots.
"""

from __future__ import annotations

import os
import pathlib
import resource
import signal
import subprocess
import sys
import time

from repro.service import ServiceClient
from repro.service.client import ServiceError

__all__ = [
    "Daemon",
    "SuiteError",
    "descendants",
    "peak_rss_mb",
    "process_cpu_seconds",
    "tree_cpu_seconds",
]

_TICK = os.sysconf("SC_CLK_TCK")


class SuiteError(RuntimeError):
    """The benchmark itself broke (daemon died, child leaked, ...)."""


def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None  # exited between listing and reading
    # comm may contain spaces and parentheses; fields resume after the last ')'.
    return text[text.rindex(")") + 2 :].split()


def _cpu_ticks(fields: list[str], *, reaped_children: bool) -> int:
    # After comm: state=0 ppid=1 ... utime=11 stime=12 cutime=13 cstime=14.
    ticks = int(fields[11]) + int(fields[12])
    if reaped_children:
        ticks += int(fields[13]) + int(fields[14])
    return ticks


def descendants() -> list[int]:
    """Live descendants of this process, zombies excluded."""
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None and fields[0] != "Z":
            parent_of[int(entry)] = int(fields[1])
    found: list[int] = []
    frontier = [os.getpid()]
    while frontier:
        parent = frontier.pop()
        kids = [pid for pid, ppid in parent_of.items() if ppid == parent]
        found.extend(kids)
        frontier.extend(kids)
    return found


def tree_cpu_seconds() -> float:
    """user+sys CPU of this process, its live descendants and every
    child any of them already reaped."""
    ticks = 0
    for pid in [os.getpid(), *descendants()]:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += _cpu_ticks(fields, reaped_children=True)
    return ticks / _TICK


def process_cpu_seconds(pid: int) -> float:
    fields = _stat_fields(pid)
    if fields is None:
        raise SuiteError(f"process {pid} is gone; cannot read its CPU time")
    return _cpu_ticks(fields, reaped_children=False) / _TICK


def peak_rss_mb() -> float:
    """Largest resident set among this process and its reaped children
    (pool workers and the daemon are reaped before this is read)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Daemon:
    """``python -m repro serve`` as a real subprocess on a unix socket."""

    def __init__(self, run_dir: pathlib.Path, src_dir: pathlib.Path, tag: str) -> None:
        # AF_UNIX paths cap near 100 bytes: address the socket relative
        # to the working directory, which the daemon shares.
        sock = os.path.relpath(run_dir / f"{tag}.sock")
        self.url = f"unix://{sock}"
        self.cache_dir = run_dir / f"{tag}-store"
        self.log_path = run_dir / f"{tag}.log"
        env = dict(os.environ, PYTHONPATH=str(src_dir))
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--unix", sock,
                "--cache-dir", str(self.cache_dir),
                "--workers", "1",
            ],
            env=env,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    @property
    def pid(self) -> int:
        return self.process.pid

    def check_alive(self) -> None:
        code = self.process.poll()
        if code is not None:
            raise SuiteError(
                f"daemon exited early with code {code}: {self.log_tail()}"
            )

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-600:]
        except OSError:
            return ""

    def wait_ready(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            self.check_alive()
            try:
                with ServiceClient(self.url, timeout=5.0) as client:
                    if client.ping():
                        return
            except (ServiceError, OSError):
                pass
            if time.monotonic() > deadline:
                self.kill()
                raise SuiteError(f"daemon not ready after {timeout:.0f}s")
            time.sleep(0.01)

    def stats(self) -> dict[str, int]:
        self.check_alive()
        with ServiceClient(self.url, timeout=30.0) as client:
            return dict(client.stats()["counters"])

    def cpu_seconds(self) -> float:
        return process_cpu_seconds(self.pid)

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM drain; the daemon must have lived until now and must
        exit 0 on its own."""
        try:
            self.check_alive()
            self.process.send_signal(signal.SIGTERM)
            try:
                code = self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                raise SuiteError(f"daemon ignored SIGTERM for {timeout:.0f}s") from None
            if code != 0:
                raise SuiteError(f"daemon drain exited {code}: {self.log_tail()}")
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self._log.close()
