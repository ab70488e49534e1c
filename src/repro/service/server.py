"""The campaign-service daemon: one shared cache, many clients.

:class:`TrialService` is an asyncio server speaking the NDJSON frame
protocol of :mod:`repro.service.protocol` over TCP and/or a unix
socket. It owns exactly one :class:`~repro.campaign.Campaign` — and
through it the trial store, the worker pool, and the
scalar/batch backend router — and multiplexes any number of client
connections onto it.

The scheduling core is the **in-flight table**: ``content address →
asyncio.Future``. Every submitted trial resolves its key; a key with a
live future attaches to it (counted ``dedup_inflight`` — the second
requester never recomputes, it *waits*), a fresh key enqueues. A
single scheduler task drains the queue in waves of at most
``MAX_SUBMIT_TRIALS`` trials, each one call on a one-thread executor
(the campaign and its store are not thread-safe): a key the store holds
is answered from its line's bytes, spliced into the frame; the misses
run through the campaign with their claimed keys, fanning out across
the worker pool / batch engine as locally. As each wave finishes, its
futures resolve and every waiting connection writes the frames that
wave owes it in one write, in claim order within the wave.

Each connection reads a line and either starts a submit task or sends
the reply ``_answer`` builds for any other frame; ``_error`` builds
every counted error reply, ``_count`` bumps a counter with its metric.

Together the two layers give the fleet guarantee (docs/SERVICE.md):
the store dedups across time, the in-flight table dedups across *now*
— each unique content address is computed at most once, ever, no
matter how many clients race.

Failure posture (docs/SERVICE.md "Failure model"): a malformed frame
gets an ``error`` frame, not a dropped connection; a failing trial
gets a ``failed`` outcome frame carrying the worker traceback; a
batch-level execution crash fails only the futures of that batch. A
submit that would push a non-empty pending queue past ``max_pending``
(or arrives while draining) is refused with a typed ``busy`` frame
carrying a ``retry_after`` hint; a connection idle past
``idle_timeout`` is closed (``idle_closed``); a submitter that
vanishes mid-wait has its dead streams counted (``aborted_streams``)
while the computations keep running for whoever else deduplicated
onto them. ``SIGTERM`` drains gracefully — stop accepting, finish
in-flight waves (each wave persists its outcomes as it completes),
then exit and flush the store — while ``SIGINT`` stops immediately.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import pathlib
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Iterable

from repro.campaign.keys import trial_key
from repro.errors import CampaignError, ConfigurationError
from repro.experiments.config import TrialSpec
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    MAX_SUBMIT_TRIALS,
    PROTO_VERSION,
    SERVER_NAME,
    ServiceAddress,
    decode_frame,
    encode_frame,
    spec_from_wire,
)

__all__ = ["TrialService", "ServiceThread", "serve_forever"]

#: Memo entries the daemon's campaign retains (see Campaign.memo_limit):
#: a long-lived process must not accumulate one resident Outcome per
#: trial it ever served — the store already holds them on disk.
DAEMON_MEMO_LIMIT = 4096

#: Admission-control ceiling: most trials that may sit in the pending
#: queue before new submits are refused with a ``busy`` frame.
DEFAULT_MAX_PENDING = 4096

#: The ``retry_after`` hint a ``busy`` frame carries, in seconds —
#: long enough for a scheduler wave to make room, short enough that a
#: retrying client barely notices.
DEFAULT_RETRY_AFTER = 0.5


class TrialService:
    """The daemon: in-flight dedup over one campaign session.

    *campaign* is owned by the caller (``serve_forever`` and
    :class:`ServiceThread` construct and close theirs); the service
    only promises to use it from a single executor thread.

    *max_pending* bounds the pending-submit queue (admission control)
    and a refused submit's ``busy`` frame carries *retry_after*;
    *idle_timeout* closes connections with no traffic and no running
    submit streams. The campaign's fault plan, if it arms a
    ``service.*`` site, faults each accepted connection's streams.
    """

    def __init__(
        self,
        campaign,
        *,
        max_pending: int = DEFAULT_MAX_PENDING,
        idle_timeout: float | None = None,
        retry_after: float = DEFAULT_RETRY_AFTER,
    ) -> None:
        self.campaign = campaign
        self.max_pending = max_pending
        self.idle_timeout = idle_timeout
        self.retry_after = retry_after
        self._injector = getattr(campaign, "_injector", None)
        self._inflight: dict[str, asyncio.Future] = {}
        self._queue: asyncio.Queue = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="trial-service"
        )
        self._scheduler_task: asyncio.Task | None = None
        self._servers: list[asyncio.AbstractServer] = []
        self._conn_tasks: set[asyncio.Task] = set()
        self._submit_tasks: set[asyncio.Task] = set()
        self._unix_path: pathlib.Path | None = None
        self._draining = False
        #: Set by an injected ``service.daemon_kill``: the host tears
        #: the service down abruptly (no drain, no goodbye frames).
        self.dead = asyncio.Event()
        self.addresses: list[ServiceAddress] = []
        #: Lifetime counters, served by the ``stats`` op. Kept apart
        #: from the metrics registry so they exist even metrics-off.
        self.counters: dict[str, int] = {
            "connections": 0,
            "requests": 0,
            "trials": 0,
            "hits": 0,
            "computed": 0,
            "dedup_inflight": 0,
            "failed": 0,
            "errors": 0,
            "busy_rejections": 0,
            "aborted_streams": 0,
            "idle_closed": 0,
            "injected_faults": 0,
            "drains": 0,
        }

    # -- observability -------------------------------------------------------------

    def _emit_event(self, event: str, **fields: Any) -> None:
        """One ``service`` telemetry record per rejection, abort,
        injected fault and drain phase — auditable after the fact."""
        telemetry = getattr(self.campaign, "telemetry", None)
        if telemetry is not None:
            telemetry.emit("service", event=event, **fields)

    def _count(self, name: str, n: int = 1) -> None:
        """Bump the lifetime counter *name* and its ``service.<name>``
        metric."""
        self.counters[name] += n
        self._count_metric(f"service.{name}", n)

    def _note_injected(self, site: str) -> None:
        self._count("injected_faults")
        self._emit_event("injected_fault", site=site)

    def _note_abort(self) -> None:
        self._count("aborted_streams")
        self._emit_event("aborted_stream")

    # -- lifecycle -----------------------------------------------------------------

    async def start(
        self,
        *,
        host: str | None = None,
        port: int | None = None,
        unix_path: "str | os.PathLike | None" = None,
    ) -> list[ServiceAddress]:
        """Bind the requested listeners and start the scheduler.

        ``port=0`` binds an ephemeral TCP port; the actual address is
        in :attr:`addresses` (and the return value).
        """
        if self._scheduler_task is None:
            self._scheduler_task = asyncio.create_task(
                self._scheduler(), name="trial-service-scheduler"
            )
        if host is not None and port is not None:
            server = await asyncio.start_server(
                self._handle_connection, host=host, port=port,
                limit=MAX_FRAME_BYTES,
            )
            self._servers.append(server)
            for sock in server.sockets:
                bound = sock.getsockname()
                self.addresses.append(
                    ServiceAddress(scheme="tcp", host=bound[0], port=bound[1])
                )
        if unix_path is not None:
            path = pathlib.Path(unix_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            with contextlib.suppress(OSError):
                path.unlink()
            server = await asyncio.start_unix_server(
                self._handle_connection, path=str(path), limit=MAX_FRAME_BYTES
            )
            self._servers.append(server)
            self._unix_path = path
            self.addresses.append(ServiceAddress(scheme="unix", path=str(path)))
        if not self._servers:
            raise ConfigurationError(
                "the service needs a TCP host/port and/or a unix socket path"
            )
        return self.addresses

    async def close(self) -> None:
        """Stop listeners and the scheduler; fail any queued work."""
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        # Cancel live connection handlers: their finally blocks close
        # the sockets, so a mid-request client sees EOF (a clean
        # ServiceError) instead of hanging on a dead daemon.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._scheduler_task
            self._scheduler_task = None
        while not self._queue.empty():
            key, _spec, fut = self._queue.get_nowait()
            self._inflight.pop(key, None)
            self._fail_future(fut)
        for key, fut in list(self._inflight.items()):
            self._fail_future(fut)
        self._inflight.clear()
        self._executor.shutdown(wait=True)
        if self._unix_path is not None:
            with contextlib.suppress(OSError):
                self._unix_path.unlink()
            self._unix_path = None

    @staticmethod
    def _fail_future(
        fut: asyncio.Future, message: str = "service shutting down"
    ) -> None:
        if not fut.done():
            fut.set_exception(CampaignError(message))
            # The waiting stream may already be cancelled; mark the
            # exception retrieved so teardown never logs phantoms.
            fut.exception()

    async def drain(self, *, timeout: float = 30.0) -> None:
        """Graceful shutdown, phase one: stop accepting, finish work.

        Closes the listeners (new connects are refused by the OS),
        flips admission control so surviving connections get ``busy``
        frames, then waits — up to *timeout* seconds — for the pending
        queue, the in-flight table and every live submit stream to
        finish. Each scheduler wave persists its outcomes as it
        completes, so when this returns the store holds everything
        that was accepted. The caller follows with :meth:`close`.
        """
        if self._draining:
            return
        self._draining = True
        self.counters["drains"] += 1
        self._count_metric("service.drain_started")
        self._emit_event("drain", phase="start", inflight=self.inflight)
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, timeout)
        busy = True
        while True:
            busy = (
                not self._queue.empty()
                or bool(self._inflight)
                or any(not t.done() for t in self._submit_tasks)
            )
            if not busy or loop.time() >= deadline:
                break
            await asyncio.sleep(0.02)
        if busy:
            self._count_metric("service.drain_timeouts")
        self._count_metric("service.drain_finished")
        self._emit_event("drain", phase="finished", clean=not busy)

    # -- scheduling ----------------------------------------------------------------

    def _claim(self, key: str, spec: TrialSpec):
        """The future that will hold *key*'s result.

        Returns ``(future, attached)`` — *attached* means an in-flight
        computation already existed and this requester deduplicated
        onto it. Runs entirely on the event loop thread with no await,
        so check-then-claim is atomic.
        """
        fut = self._inflight.get(key)
        if fut is not None:
            self._count("dedup_inflight")
            return fut, True
        fut = asyncio.get_running_loop().create_future()
        self._inflight[key] = fut
        self._queue.put_nowait((key, spec, fut))
        return fut, False

    async def _scheduler(self) -> None:
        """Drain the queue in waves through the campaign executor."""
        loop = asyncio.get_running_loop()
        while True:
            items = [await self._queue.get()]
            while len(items) < MAX_SUBMIT_TRIALS:
                try:
                    items.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                answers = await loop.run_in_executor(self._executor, self._run_wave, items)
            except Exception as exc:
                for key, _spec, fut in items:
                    self._inflight.pop(key, None)
                    self._fail_future(fut, f"batch execution failed: {exc}")
                continue
            for (key, _spec, fut), answer in zip(items, answers):
                self._inflight.pop(key, None)
                # Once per claim, here: a request cut off mid-stream
                # still counts what was computed for it.
                self.counters["hits" if answer[0] == "hit" else answer[0]] += 1
                if not fut.done():
                    fut.set_result(answer)

    def _run_wave(self, items: list[tuple]) -> list[tuple]:
        """``(status, wire text or error, backend)`` per claimed ``(key,
        spec, future)``, on the executor thread: a stored key is a hit
        (counted ``service.hits``), the misses run through the campaign
        with their keys, and a computed wire is read back from its line."""
        campaign, store = self.campaign, self.campaign.store
        look = store is not None and not campaign.fresh
        keys = [key for key, _spec, _fut in items]
        answers: list[Any] = [("hit", look and store.wire_text(key), None) for key in keys]
        misses = [i for i, answer in enumerate(answers) if not answer[1]]
        if len(misses) < len(keys):
            self._count_metric("service.hits", len(keys) - len(misses))
        if not misses:
            return answers
        results = campaign.run_trials(
            [items[i][1] for i in misses], keys=[keys[i] for i in misses]
        )
        for i, result in zip(misses, results):
            if result.outcome is None:
                answers[i] = ("failed", result.error, None)
                continue
            read_back = store is not None and not result.cached and store.wire_text(keys[i])
            text = read_back or json.dumps(result.outcome.to_wire(), separators=(",", ":")).encode()
            answers[i] = ("hit" if result.cached else "computed", text, result.backend)
        return answers

    def _count_metric(self, name: str, value: int = 1) -> None:
        metrics = getattr(self.campaign, "metrics", None)
        if metrics is not None:
            metrics.count(name, value)

    @property
    def inflight(self) -> int:
        """Unique content addresses currently being computed."""
        return len(self._inflight)

    # -- connection handling -------------------------------------------------------

    async def _send(
        self, writer: asyncio.StreamWriter, lock: asyncio.Lock, frame: dict
    ) -> None:
        await self._write(writer, lock, [encode_frame({"v": PROTO_VERSION, **frame})])

    @staticmethod
    async def _write(
        writer: asyncio.StreamWriter, lock: asyncio.Lock, frames: list[bytes]
    ) -> None:
        """Encoded frames onto the socket as one write and one drain."""
        async with lock:
            writer.write(b"".join(frames))
            await writer.drain()

    def _error(self, message: str, **ids: Any) -> dict:
        """A counted ``error`` reply to a frame the daemon cannot honour."""
        self.counters["errors"] += 1
        return {"op": "error", **ids, "error": message}

    def _answer(self, frame: dict) -> dict:
        """The reply to any frame but a correctly versioned submit."""
        version = frame.get("v", PROTO_VERSION)
        if version != PROTO_VERSION:
            return self._error(
                f"protocol version {version!r} unsupported "
                f"(server speaks {PROTO_VERSION})"
            )
        op = frame.get("op")
        store = getattr(self.campaign, "store", None)
        if op == "ping":
            return {"op": "pong"}
        if op == "hello":
            return {
                "op": "hello",
                "server": SERVER_NAME,
                "store": str(getattr(store, "cache_dir", "")),
            }
        if op == "stats":
            return {
                "op": "stats",
                "counters": dict(self.counters),
                "inflight": self.inflight,
                "store_records": len(store) if store is not None else 0,
            }
        return self._error(f"unknown op {op!r}")

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        link = self._injector and self._injector.link(self._note_injected, self.dead.set)
        if link is not None:
            reader, writer = link.accept(reader, writer)
            if link.closed:
                return
        self._count("connections")
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        lock = asyncio.Lock()
        submits: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await asyncio.wait_for(reader.readline(), self.idle_timeout)
                except asyncio.TimeoutError:
                    # Only genuinely idle connections are shed: one
                    # with a submit stream still running is waiting on
                    # its own computation, so re-arm.
                    if any(not s.done() for s in submits):
                        continue
                    self._count("idle_closed")
                    self._emit_event("idle_closed")
                    break
                except (ValueError, ConnectionError):
                    # Frame over the stream limit, or transport death.
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    frame = decode_frame(line)
                except ConfigurationError as exc:
                    await self._send(writer, lock, self._error(str(exc)))
                    continue
                if frame.get("op") == "submit" and frame.get("v", PROTO_VERSION) == PROTO_VERSION:
                    submit = asyncio.create_task(self._guarded_submit(frame, writer, lock))
                    submits.add(submit)
                    submit.add_done_callback(submits.discard)
                    self._submit_tasks.add(submit)
                    submit.add_done_callback(self._submit_tasks.discard)
                else:
                    await self._send(writer, lock, self._answer(frame))
        except asyncio.CancelledError:
            # Shutdown path: close() cancelled us on purpose; finish
            # the cleanup below instead of logging a phantom error.
            pass
        finally:
            # The client is gone: its submit streams have nowhere to
            # go. The *computations* keep running — other clients may
            # be deduplicated onto the same futures — but each stream
            # cancelled mid-wait is counted, never silently dropped.
            for submit in list(submits):
                if not submit.done():
                    self._note_abort()
                    submit.cancel()
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _guarded_submit(
        self, frame: dict, writer: asyncio.StreamWriter, lock: asyncio.Lock
    ) -> None:
        try:
            await self._handle_submit(frame, writer, lock)
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError):
            # The submitter vanished mid-stream. The computations keep
            # running for whoever else deduplicated onto them; only
            # this reply stream died, and it is counted, not silent.
            self._note_abort()

    async def _handle_submit(
        self, frame: dict, writer: asyncio.StreamWriter, lock: asyncio.Lock
    ) -> None:
        req_id = frame.get("id")
        trials = frame.get("trials")
        if not isinstance(trials, list):
            error = self._error("submit frame carries no 'trials' list", id=req_id)
            await self._send(writer, lock, error)
            return
        # An empty queue admits any frame, so none is refused forever.
        pending = self._queue.qsize()
        if self._draining or pending >= self.max_pending or (
            pending and pending + len(trials) > self.max_pending
        ):
            reason = (
                "draining"
                if self._draining
                else f"pending queue full ({pending}/{self.max_pending})"
            )
            self._count("busy_rejections")
            self._emit_event("busy_rejection", reason=reason)
            await self._send(writer, lock, {
                "op": "busy", "id": req_id, "retry_after": self.retry_after, "reason": reason,
            })
            return
        self._count("requests")
        self._count("trials", len(trials))
        counts = {"hit": 0, "computed": 0, "dedup": 0, "failed": 0}
        # Frames owed but not yet written; specs that do not parse are
        # answered with the first wave.
        frames: list[bytes] = []
        # Deduplicated duplicates within the request share one future.
        claims: dict[asyncio.Future, list[tuple[int, str, bool]]] = {}
        for i, wire in enumerate(trials):
            try:
                spec = spec_from_wire(wire)
                key = trial_key(spec)
            except ConfigurationError as exc:
                counts["failed"] += 1
                self.counters["failed"] += 1
                frames.append(encode_frame({
                    "v": PROTO_VERSION, "op": "outcome", "id": req_id, "i": i,
                    "status": "failed", "error": str(exc),
                }))
                continue
            fut, attached = self._claim(key, spec)
            claims.setdefault(fut, []).append((i, key, attached))

        # One write per scheduler wave. asyncio.wait never cancels what
        # it waits on: a stream cut off here leaves the computations
        # running for every client attached to them.
        head = encode_frame({"v": PROTO_VERSION, "op": "outcome", "id": req_id})[:-2]
        waiting = set(claims)
        while waiting:
            done, waiting = await asyncio.wait(
                waiting, return_when=asyncio.FIRST_COMPLETED
            )
            wave = sorted((claim, fut) for fut in done for claim in claims[fut])
            for (i, key, attached), fut in wave:
                if fut.exception() is not None:
                    # A batch-level failure surfaced through the future.
                    frames.append(encode_frame({
                        "v": PROTO_VERSION, "op": "error", "id": req_id,
                        "error": str(fut.exception()),
                    }))
                    continue
                status, body, backend = fut.result()
                if attached and status != "failed":
                    status = "dedup"
                counts[status] += 1
                if status != "failed":
                    frames.append(splice_outcome_frame(head, i, key, status, body, backend))
                    continue
                frames.append(encode_frame({
                    "v": PROTO_VERSION, "op": "outcome", "id": req_id, "i": i,
                    "key": key, "status": status, "error": body,
                }))
            await self._write(writer, lock, frames)
            frames = []
        final = {"v": PROTO_VERSION, "op": "done", "id": req_id, "counts": counts}
        await self._write(writer, lock, [*frames, encode_frame(final)])


def splice_outcome_frame(
    head: bytes, i: int, key: str, status: str, wire: bytes, backend: str | None
) -> bytes:
    """:func:`encode_frame` of ``{v, op, id, i, key, status, wire[, backend]}``
    around *wire*'s JSON text; *head* is ``{v, op, id`` encoded."""
    fields = b',"i":%d,"key":"%s","status":"%s","wire":' % (i, key.encode(), status.encode())
    tail = b"}\n" if backend is None else b',"backend":%s}\n' % json.dumps(backend).encode()
    return head + fields + wire + tail


# -- hosting -------------------------------------------------------------------


async def _run_service(
    campaign,
    *,
    host: str | None,
    port: int | None,
    unix_path,
    ready,
    stop_event: asyncio.Event,
    announce=None,
    drain_event: asyncio.Event | None = None,
    drain_timeout: float = 30.0,
    **service_kwargs: Any,
) -> None:
    service = TrialService(campaign, **service_kwargs)
    await service.start(host=host, port=port, unix_path=unix_path)
    if announce is not None:
        for address in service.addresses:
            announce(address)
    ready(service)
    try:
        # Three ways down: stop (immediate), drain (graceful), dead
        # (an injected daemon_kill — abrupt, no drain).
        events = [stop_event, service.dead]
        if drain_event is not None:
            events.append(drain_event)
        waiters = [asyncio.create_task(event.wait()) for event in events]
        try:
            await asyncio.wait(waiters, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for waiter in waiters:
                waiter.cancel()
            await asyncio.gather(*waiters, return_exceptions=True)
        if (
            drain_event is not None
            and drain_event.is_set()
            and not stop_event.is_set()
            and not service.dead.is_set()
        ):
            await service.drain(timeout=drain_timeout)
    finally:
        await service.close()


def serve_forever(
    campaign,
    *,
    host: str | None = None,
    port: int | None = None,
    unix_path: "str | os.PathLike | None" = None,
    announce=None,
    drain_timeout: float = 30.0,
    **service_kwargs: Any,
) -> None:
    """Run the daemon on the current thread until SIGINT/SIGTERM.

    The CLI entry point (``repro-ugf serve``). *announce* is called
    with each bound :class:`ServiceAddress` once listening. ``SIGTERM``
    drains first — stop accepting, finish in-flight waves, then exit
    (the store flushes when the caller closes the campaign) — while
    ``SIGINT`` stops immediately, failing queued work cleanly.
    """
    import signal

    async def main() -> None:
        stop = asyncio.Event()
        drain = asyncio.Event()
        loop = asyncio.get_running_loop()
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(signal.SIGINT, stop.set)
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(signal.SIGTERM, drain.set)
        await _run_service(
            campaign,
            host=host,
            port=port,
            unix_path=unix_path,
            ready=lambda _service: None,
            stop_event=stop,
            announce=announce,
            drain_event=drain,
            drain_timeout=drain_timeout,
            **service_kwargs,
        )

    asyncio.run(main())


class ServiceThread:
    """Host a :class:`TrialService` on a background thread.

    For tests, benchmarks, and embedding: the caller's thread stays
    free while a private event loop runs the daemon. The campaign is
    closed by :meth:`stop` (on the service thread, where it ran).
    """

    def __init__(
        self,
        campaign,
        *,
        host: str | None = None,
        port: int | None = None,
        unix_path: "str | os.PathLike | None" = None,
        drain_timeout: float = 30.0,
        **service_kwargs: Any,
    ) -> None:
        self.campaign = campaign
        self._host = host
        self._port = port
        self._unix_path = unix_path
        self._drain_timeout = drain_timeout
        self._service_kwargs = service_kwargs
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._drain_event: asyncio.Event | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self.service: TrialService | None = None
        self.addresses: list[ServiceAddress] = []

    def start(self) -> "ServiceThread":
        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop

            async def main() -> None:
                self._stop_event = asyncio.Event()
                self._drain_event = asyncio.Event()

                def ready(service: TrialService) -> None:
                    self.service = service
                    self.addresses = list(service.addresses)
                    self._ready.set()

                await _run_service(
                    self.campaign,
                    host=self._host,
                    port=self._port,
                    unix_path=self._unix_path,
                    ready=ready,
                    stop_event=self._stop_event,
                    drain_event=self._drain_event,
                    drain_timeout=self._drain_timeout,
                    **self._service_kwargs,
                )

            try:
                loop.run_until_complete(main())
            except BaseException as exc:  # surfaced to the caller
                self._failure = exc
                self._ready.set()
            finally:
                self.campaign.close()
                loop.close()

        self._thread = threading.Thread(
            target=run, name="trial-service-host", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._failure is not None:
            raise CampaignError(f"service failed to start: {self._failure}")
        if self.service is None:
            raise CampaignError("service did not come up within 30s")
        return self

    @property
    def url(self) -> str:
        """A client-ready url for the first bound listener."""
        return str(self.addresses[0])

    def stop(self, *, drain: bool = False) -> None:
        """Stop the daemon; ``drain=True`` finishes in-flight work
        first (the SIGTERM path, minus the signal)."""
        event = self._drain_event if drain else self._stop_event
        if self._loop is not None and event is not None:
            # After an injected daemon_kill the loop may already be
            # gone; the thread join below is then immediate.
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(event.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
