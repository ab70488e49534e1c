"""The fault-injection plane: hook points armed by a :class:`FaultPlan`.

A :class:`FaultInjector` is the runtime face of a plan. The campaign
layer calls its hooks at the same kind of kernel hook points the
sanitizer (PR 2) and the metrics registry (PR 4) use — guarded,
write-only-unless-armed, and absent by default: a campaign without a
plan never constructs an injector, and every integration site is a
``None`` check, so the chaos plane costs nothing when it is off.

Hook sites and their real-world analogue:

========================  =====================================================
``before_trial(spec)``    transient infrastructure exceptions, OOM-killed
                          workers (``SIGKILL`` to the executing process),
                          starved pools (the worker stalls before running)
``check_fsync(retry)``    a disk that returns ``EIO`` from ``fsync``
``maybe_tear(path)``      ``kill -9`` mid-append: the final store record is
                          left torn on disk
``link(on_fault)``        a connection on either end of the service
                          boundary: a :class:`FaultedLink` faults the
                          bytes it carries
========================  =====================================================

Injected trial failures surface exactly like organic ones — a full
traceback in the execution result — so the supervisor's classifier is
exercised on the same wire real faults travel. The worker-only guard
(see :mod:`repro.chaos.plan`) keeps kill/starve faults out of the
process that owns the campaign, which is what makes every retry and
recovery on the pool's inline path terminate.
"""

from __future__ import annotations

import contextlib
import errno
import os
import socket
import time
from typing import TYPE_CHECKING

try:  # POSIX-only; worker.kill degrades to a no-op elsewhere.
    import signal
except ImportError:  # pragma: no cover - non-POSIX platforms
    signal = None  # type: ignore[assignment]

from repro.chaos.plan import (
    SERVICE_FAULT_SITES,
    FaultPlan,
    FaultRule,
    InjectedFsyncError,
    InjectedPoisonError,
    InjectedTransientError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.config import TrialSpec

__all__ = ["FaultInjector", "FaultedLink", "tear_tail"]


def _trial_token(spec: "TrialSpec") -> str:
    """The stable identity of one trial for injection draws.

    Chunking, worker scheduling and retries must not move a fault from
    one trial to another, so the token is the spec's coordinates rather
    than any runtime position: protocol, adversary, n, f and seed only.
    That is fewer fields than the content address hashes, so specs that
    differ only in protocol or adversary kwargs, ``max_steps``,
    environment or topology draw the same faults (changing the token
    would move every shipped plan's faults).
    """
    return (
        f"{spec.protocol}/{spec.adversary}/n{spec.n}/f{spec.f}/s{spec.seed}"
    )


def tear_tail(path) -> int:
    """Truncate *path* half-way through its final record.

    Returns the number of bytes removed (0 when the file has no
    complete final record to tear). Exactly the on-disk state a
    ``kill -9`` during an append leaves behind: a trailing fragment
    that is not valid JSON and does not end in a newline.
    """
    path = os.fspath(path)
    try:
        size = os.path.getsize(path)
    except OSError:
        return 0
    if size < 2:
        return 0
    with open(path, "rb") as fh:
        # The last record spans from the newline before the trailing
        # one to the end of the file; read a bounded window to find it.
        window = min(size, 65536)
        fh.seek(size - window)
        tail = fh.read(window)
    body = tail[:-1] if tail.endswith(b"\n") else tail
    cut = body.rfind(b"\n")
    record_start = size - len(body) + cut + 1 if cut >= 0 else size - len(body)
    record_len = size - record_start
    if record_len < 2:
        return 0
    torn = max(1, record_len - max(1, record_len // 2))
    with open(path, "ab") as fh:
        fh.truncate(size - torn)
    return torn


class FaultInjector:
    """Process-local fault dispatcher for one :class:`FaultPlan`.

    Built wherever trials execute (inline in the campaign process, or
    per chunk in a worker from the pickled plan); all state it keeps is
    derived from the plan plus monotone local counters for store
    events, which only ever occur in the campaign's own process.
    """

    __slots__ = (
        "plan",
        "_trial_rules",
        "_fsync_rules",
        "_tear_rules",
        "_service_rules",
        "_service_events",
        "_append_index",
        "_tear_index",
        "_torn",
    )

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        trial_sites = ("worker.starve", "worker.kill", "trial.exception", "trial.poison")
        #: Trial rules in firing order: a stall happens before a kill,
        #: a kill preempts an exception.
        self._trial_rules = tuple(
            rule for site in trial_sites for rule in plan.rules_for(site)
        )
        self._fsync_rules = plan.rules_for("store.fsync")
        self._tear_rules = plan.rules_for("store.tear")
        self._service_rules = {
            site: rules
            for site in sorted(SERVICE_FAULT_SITES)
            if (rules := plan.rules_for(site))
        }
        self._service_events: dict[tuple[str, str], int] = {}
        self._append_index = 0
        self._tear_index = 0
        self._torn = 0

    # -- trial execution ---------------------------------------------------------

    def before_trial(self, spec: "TrialSpec") -> None:
        """Fire any armed trial-targeted fault for *spec*.

        Called inside the trial's error-capture (and timeout) scope, so
        an injected exception is recorded with a full traceback and an
        injected stall is interrupted by the per-trial deadline.
        """
        if not self._trial_rules:
            return
        token = _trial_token(spec)
        pid = os.getpid()
        for rule in self._trial_rules:
            if rule.seeds is not None and spec.seed not in rule.seeds:
                continue
            if not self.plan.fires(rule, token, pid=pid):
                continue
            if rule.site == "worker.starve":
                time.sleep(rule.delay)
            elif rule.site == "worker.kill":
                if signal is not None:  # pragma: no branch
                    os.kill(pid, signal.SIGKILL)  # never returns
            elif rule.site == "trial.exception":
                raise InjectedTransientError(
                    f"injected transient fault at {token} "
                    f"(plan {self.plan.name!r}, attempt {self.plan.attempt})"
                )
            else:  # trial.poison
                raise InjectedPoisonError(
                    f"injected deterministic fault at {token} "
                    f"(plan {self.plan.name!r}; this failure repeats on retry)"
                )

    # -- trial store -------------------------------------------------------------

    def check_fsync(self, retry: int) -> None:
        """Raise in place of a durable ``fsync`` when armed.

        *retry* is the store's own bounded-retry attempt for this
        batch; it takes the attempt slot in the draw, so a rule with
        ``attempts=2`` fails the first two durability attempts and lets
        the third through — the store's backoff absorbs the fault.
        """
        if not self._fsync_rules:
            return
        if retry == 0:
            self._append_index += 1
        token = f"append{self._append_index - 1}"
        for rule in self._fsync_rules:
            if self.plan.fires(rule, token, attempt=retry):
                raise InjectedFsyncError(
                    f"injected fsync failure on {token} retry {retry} "
                    f"(plan {self.plan.name!r})"
                )

    def maybe_tear(self, path) -> int:
        """Tear the store's final record at session close when armed.

        At most one tear per injector: a crash destroys one tail, and
        the battery's recovery pass must be able to converge.
        """
        if not self._tear_rules or self._torn:
            return 0
        token = f"close{self._tear_index}"
        self._tear_index += 1
        for rule in self._tear_rules:
            if self.plan.fires(rule, token):
                self._torn = tear_tail(path)
                return self._torn
        return 0

    # -- campaign service --------------------------------------------------------

    @property
    def arms_trials(self) -> bool:
        """A ``trial.*`` or ``worker.*`` site is armed: those fire in
        the scalar pool, so the campaign pins the scalar engine."""
        return bool(self._trial_rules)

    def link(self, on_fault, on_kill=None) -> "FaultedLink | None":
        """A :class:`FaultedLink` for one new connection; None when no
        ``service.*`` site is armed."""
        if not self._service_rules:
            return None
        return FaultedLink(self.service_event, on_fault, on_kill)

    def service_event(self, site: str, stream: str) -> FaultRule | None:
        """Does *site* fire for the next event on *stream*? A monotone
        per-``(site, stream)`` event index takes the attempt slot, so a
        rule with ``attempts=N`` fails the first N chances it gets."""
        rules = self._service_rules.get(site)
        if not rules:
            return None
        index = self._service_events.get((site, stream), 0)
        self._service_events[(site, stream)] = index + 1
        for rule in rules:
            if self.plan.fires(rule, stream, attempt=index):
                return rule
        return None


class FaultedLink:
    """One connection's ``service.*`` faults, as bytes on the wire.

    Both ends draw when the connection opens and when a request
    crosses, and fault the reply bytes: the daemon as it writes them
    (:meth:`accept`), the client as it reads them (:meth:`reader`).
    ``conn_refuse`` refuses the connection, ``frame_tear`` delivers half
    a reply line and closes, ``conn_drop`` closes after one reply line,
    ``slow_peer`` stalls the reply and ``daemon_kill`` calls *on_kill*
    when a request arrives (the client passes none). *on_fault* is told
    each site that fires."""

    def __init__(self, service_event, on_fault, on_kill=None) -> None:
        self._event = service_event
        self._on_fault = on_fault
        self._on_kill = on_kill
        self._stall = 0.0
        self._cut = None
        self._held = b""
        self.closed = False

    def _fires(self, site: str, stream: str) -> FaultRule | None:
        rule = self._event(site, stream)
        if rule is not None:
            self._on_fault(site)
        return rule

    def request(self) -> bool:
        """A request crossed: draw what its reply meets. False when it
        killed the daemon."""
        if self._on_kill is not None and self._fires("service.daemon_kill", "submit"):
            self._on_kill()
            return False
        slow = self._fires("service.slow_peer", "submit")
        self._stall = slow.delay if slow is not None else 0.0
        for site in ("service.conn_drop", "service.frame_tear"):
            if self._fires(site, "reply"):
                self._cut = site  # a tear preempts a drop
        return True

    def deliver(self, data: bytes) -> bytes:
        """What the peer receives of reply bytes *data*."""
        if self.closed:
            return b""
        if self._cut is None:
            return data
        self.closed = True
        line = data[: data.find(b"\n") + 1] or data
        if self._cut == "service.frame_tear":
            return line[: max(1, len(line) // 2)]
        return line

    # -- the daemon's end: the link is the accepted connection's streams ------

    def accept(self, reader, writer) -> tuple["FaultedLink", "FaultedLink"]:
        self._reader, self._writer = reader, writer
        if self._fires("service.conn_refuse", "accept"):
            self.closed = True
            writer.transport.abort()  # the accept never happened
        return self, self

    async def readline(self) -> bytes:
        line = await self._reader.readline()
        if line.strip() and not self.request():
            await self._reader.read()  # dead: answers nothing until hung up
            return b""
        return line

    def write(self, data: bytes) -> None:
        self._held += data

    async def drain(self) -> None:
        data, self._held = self._held, b""
        if self.closed:
            return
        delay, self._stall = self._stall, 0.0
        if delay:
            import asyncio  # not at module level: every campaign imports this

            await asyncio.sleep(delay)
        self._writer.write(self.deliver(data))
        if not self.closed:
            return await self._writer.drain()
        with contextlib.suppress(ConnectionError, OSError):
            await self._writer.drain()
        self._writer.transport.abort()

    def close(self) -> None:
        self._writer.close()

    async def wait_closed(self) -> None:
        await self._writer.wait_closed()

    # -- the client's end: a blocking socket -----------------------------------

    def connect(self) -> None:
        if self._fires("service.conn_refuse", "accept"):
            raise ConnectionRefusedError(errno.ECONNREFUSED, "Connection refused")

    def reader(self, sock: socket.socket) -> "_LinkFile":
        return _LinkFile(self, sock)


class _LinkFile:
    """The client's reply stream through a link. A stall waits on a
    silent socket under the reply socket's own timeout, so one longer
    than the reader's deadline raises the real ``socket.timeout``."""

    def __init__(self, link: FaultedLink, sock: socket.socket) -> None:
        self._link, self._sock = link, sock
        self._file = sock.makefile("rb")

    def readline(self, limit: int = -1) -> bytes:
        delay, self._link._stall = self._link._stall, 0.0
        timeout = self._sock.gettimeout()
        if delay:
            silent, peer = socket.socketpair()
            with silent, peer:
                silent.settimeout(delay if timeout is None else min(delay, timeout))
                try:
                    silent.recv(1)
                except TimeoutError:
                    if timeout is not None and timeout < delay:
                        raise
        return self._link.deliver(self._file.readline(limit))

    def close(self) -> None:
        self._file.close()
