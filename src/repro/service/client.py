"""Client side of the campaign service (docs/SERVICE.md).

:class:`ServiceClient` is a small synchronous NDJSON socket client —
connect, submit trial-spec batches, read streamed outcome frames
through one reader, ``_reply``, which raises ``busy`` and ``error``
replies as typed errors. On top of it, :class:`ServiceCampaign` subclasses
:class:`~repro.campaign.Campaign` as its remote executor, so every
experiment module (and the CLI via ``--cache-url``) can execute against
the shared daemon without changing a line: the campaign loop is the
inherited one, so the :class:`~repro.campaign.campaign.TrialResult`
surface, outcome wires and stats/progress/telemetry are those of a
local run.

Failure posture (docs/SERVICE.md "Failure model") — the daemon is an
*accelerator*, not a dependency. A transport failure is retried under
a :class:`~repro.campaign.retry.RetryPolicy` (bounded attempts,
exponential backoff, deterministic hashed jitter), resubmitting only
the trials not yet answered; resubmission is idempotent because trials are
content-addressed and the daemon's in-flight dedup table attaches a
resubmit to the running computation instead of recomputing. Only when
the policy is exhausted does the campaign warn once, count
``service.fallbacks``, and run the trials still without a reply through
its inherited local executor (worker pool, local store) — and on
*later* batches it
probes the daemon and resumes remote execution the moment it
recovers. Results are correct either way; only the fleet-level dedup
is lost while the daemon is down.
"""

from __future__ import annotations

import socket
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Container, Iterator, Sequence

from repro.campaign.campaign import Campaign, TrialResult
from repro.campaign.retry import RetryPolicy
from repro.errors import CampaignError, ConfigurationError
from repro.experiments.config import TrialSpec
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    MAX_SUBMIT_TRIALS,
    PROTO_VERSION,
    ServiceAddress,
    decode_frame,
    encode_frame,
    parse_service_url,
    spec_to_wire,
)
from repro.sim.outcome import Outcome

__all__ = [
    "DEFAULT_SERVICE_TIMEOUT",
    "DEFAULT_RETRY_POLICY",
    "ServiceError",
    "ServiceProtocolError",
    "ServiceTimeout",
    "ServiceBusy",
    "ServiceClient",
    "ServiceCampaign",
    "TrialReply",
]

#: Finite read deadline the CLI path applies by default
#: (``--service-timeout``): a wedged daemon must never block a sweep
#: forever. Generous because a cold batch of slow trials legitimately
#: takes minutes between reply frames.
DEFAULT_SERVICE_TIMEOUT = 120.0

#: Longest a connect may take; a shorter read ``timeout`` caps it too.
CONNECT_TIMEOUT = 10.0

#: Read and connect deadline of the liveness probe against a downed
#: daemon: the most a wedged daemon costs a batch.
PROBE_TIMEOUT = 2.0

#: The reconnect loop :class:`ServiceCampaign` runs unless told
#: otherwise: three tries per batch with fast exponential backoff —
#: enough to ride out a daemon restart without stalling a sweep.
DEFAULT_RETRY_POLICY = RetryPolicy(
    max_retries=2,
    base_backoff=0.05,
    backoff_factor=4.0,
    max_backoff=1.0,
    jitter=0.1,
)


class ServiceError(CampaignError):
    """The daemon is unreachable or broke protocol.

    Deliberately *not* raised for an individual failing trial — those
    come back as ordinary failed :class:`TrialReply` / ``TrialResult``
    entries, exactly as local execution reports them.
    """


class ServiceProtocolError(ServiceError):
    """The peer sent bytes that are not a well-formed protocol frame:
    torn NDJSON, undecodable UTF-8, an oversized line, a non-object."""


class ServiceTimeout(ServiceError):
    """No reply within the configured deadline (a wedged or stalled
    daemon); the connection is closed so a retry starts clean."""


class ServiceBusy(ServiceError):
    """The daemon refused admission (pending queue full or draining).

    Carries the server's ``Retry-After`` hint in seconds; the retry
    loop waits at least that long before resubmitting.
    """

    def __init__(self, message: str, *, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


@dataclass(frozen=True, slots=True)
class TrialReply:
    """One trial's answer from the daemon, in submission order."""

    spec: TrialSpec
    key: str | None
    #: ``hit`` (store/memo hit server-side), ``computed`` (this request
    #: paid for the execution), ``dedup`` (attached to another client's
    #: in-flight computation), ``failed``.
    status: str
    wire: list | None = None
    error: str | None = None
    backend: str | None = None

    @property
    def cached(self) -> bool:
        return self.status in ("hit", "dedup")


class ServiceClient:
    """Synchronous connection to a :class:`~repro.service.server.
    TrialService` over TCP or a unix socket.

    :meth:`submit` is a bounded reconnect-and-resubmit loop under
    *retry_policy*: transport failures, torn frames, timeouts and
    ``busy`` rejections are retried with exponential backoff and
    deterministic hashed jitter, resubmitting the trials not yet
    answered — idempotent because the daemon deduplicates by content
    address, so a resubmit attaches to work already in flight instead
    of recomputing it. The default, a zero-retry policy, surfaces every
    failure immediately.

    *timeout* is the one read deadline, per reply frame; it also caps
    the connect, which never waits longer than ``CONNECT_TIMEOUT``.
    """

    def __init__(
        self,
        address: "ServiceAddress | str",
        *,
        timeout: float | None = None,
        retry_policy: RetryPolicy = RetryPolicy(max_retries=0),
        injector=None,
        metrics=None,
        on_event: Callable[[str, dict[str, Any]], None] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.address = (
            parse_service_url(address) if isinstance(address, str) else address
        )
        #: Per-reply read timeout once connected. None (the default)
        #: waits as long as the daemon needs — a cold batch of slow
        #: trials legitimately takes minutes. The CLI path passes
        #: DEFAULT_SERVICE_TIMEOUT so a wedged daemon cannot hang it.
        self.timeout = timeout
        self.retry_policy = retry_policy
        #: Client-side chaos hooks (repro.chaos.inject.FaultInjector);
        #: None in production. Service sites fault each connection.
        self.injector = injector
        self.metrics = metrics
        self.on_event = on_event
        self._sleep = sleep
        self._sock: socket.socket | None = None
        self._rfile = None
        self._link = None
        self._next_id = 0
        self._batch_index = 0

    # -- observability -------------------------------------------------------------

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.count(name)

    def _event(self, event: str, **fields: Any) -> None:
        if self.on_event is not None:
            self.on_event(event, fields)

    def _note_injection(self, site: str) -> None:
        self._count("service.injected_faults")
        self._event("injected_fault", site=site)

    # -- transport -----------------------------------------------------------------

    def connect(self) -> "ServiceClient":
        if self._sock is not None:
            return self
        link = self.injector and self.injector.link(self._note_injection)
        deadline = min(self.timeout or CONNECT_TIMEOUT, CONNECT_TIMEOUT)
        try:
            if link is not None:
                link.connect()
            if self.address.scheme == "unix":
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(deadline)
                try:
                    sock.connect(self.address.path)
                except OSError:
                    sock.close()
                    raise
            else:
                sock = socket.create_connection(
                    (self.address.host, self.address.port),
                    timeout=deadline,
                )
        except OSError as exc:
            raise ServiceError(
                f"cannot reach campaign service at {self.address}: {exc}"
            ) from exc
        sock.settimeout(self.timeout)
        self._sock = sock
        self._rfile = sock.makefile("rb") if link is None else link.reader(sock)
        self._link = link
        return self

    def close(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _send_frame(self, frame: dict[str, Any]) -> None:
        self.connect()
        assert self._sock is not None
        try:
            self._sock.sendall(encode_frame(frame))
        except OSError as exc:
            self.close()
            raise ServiceError(f"send to {self.address} failed: {exc}") from exc
        if self._link is not None:
            self._link.request()

    def _read_frame(self) -> dict[str, Any]:
        assert self._rfile is not None
        try:
            line = self._rfile.readline(MAX_FRAME_BYTES + 1)
        except TimeoutError as exc:
            # socket.timeout is TimeoutError; a stalled peer must not
            # wedge the campaign — close so the retry starts clean.
            self.close()
            raise ServiceTimeout(
                f"no reply from {self.address} within deadline: {exc}"
            ) from exc
        except OSError as exc:
            self.close()
            raise ServiceError(f"read from {self.address} failed: {exc}") from exc
        if not line:
            self.close()
            raise ServiceError(f"connection to {self.address} closed before reply")
        if not line.endswith(b"\n"):
            self.close()
            if len(line) > MAX_FRAME_BYTES:
                raise ServiceProtocolError(
                    f"frame from {self.address} exceeds {MAX_FRAME_BYTES} bytes"
                )
            raise ServiceProtocolError(
                f"connection to {self.address} closed mid-frame (torn NDJSON)"
            )
        try:
            return decode_frame(line)
        except ConfigurationError as exc:
            self.close()
            raise ServiceProtocolError(str(exc)) from exc

    def _reply(self, pending: Container[int] = ()) -> dict[str, Any]:
        """The next frame; a ``busy`` reply raises :class:`ServiceBusy`
        and an ``error`` reply :class:`ServiceError`, typed even when
        their fields are missing or garbage — a misbehaving daemon must
        not crash the client. Given the *pending* request ids, a frame
        addressed to another request (a stray from an abandoned
        attempt) is returned as is, for the caller to skip."""
        frame = self._read_frame()
        req_id = frame.get("id")
        if pending and isinstance(req_id, int) and req_id not in pending:
            return frame
        op = frame.get("op")
        if op == "busy":
            hint = frame.get("retry_after")
            retry_after = (
                float(hint)
                if isinstance(hint, (int, float)) and not isinstance(hint, bool) and hint >= 0
                else None
            )
            reason = frame.get("reason")
            detail = f" ({reason})" if isinstance(reason, str) and reason else ""
            raise ServiceBusy(
                f"service refused admission{detail}", retry_after=retry_after
            )
        if op == "error":
            error = frame.get("error") or "unspecified error"
            raise ServiceError(f"service error: {error}")
        return frame

    def _roundtrip(self, op: str) -> dict[str, Any]:
        self._send_frame({"v": PROTO_VERSION, "op": op})
        return self._reply()

    # -- ops -----------------------------------------------------------------------

    def hello(self) -> dict[str, Any]:
        frame = self._roundtrip("hello")
        version = frame.get("v")
        if version != PROTO_VERSION:
            raise ServiceError(
                f"service at {self.address} speaks protocol {version!r}, "
                f"this client speaks {PROTO_VERSION}"
            )
        return frame

    def ping(self) -> bool:
        return self._roundtrip("ping").get("op") == "pong"

    def stats(self) -> dict[str, Any]:
        return self._roundtrip("stats")

    def submit(self, specs: Sequence[TrialSpec]) -> list[TrialReply]:
        """Run *specs* through the daemon (see :meth:`iter_submit`);
        replies in submission order.

        Raises :class:`ServiceError` only for transport/protocol
        failure — per-trial failures are ``failed`` replies.
        """
        replies = dict(self.iter_submit(specs))
        return [replies[i] for i in range(len(replies))]

    def iter_submit(
        self, specs: Sequence[TrialSpec]
    ) -> Iterator[tuple[int, TrialReply]]:
        """Yield ``(index, reply)`` for each of *specs* as it arrives.

        The batch crosses as submit frames of at most
        ``MAX_SUBMIT_TRIALS`` trials, so none outgrows the daemon's
        admission bound, sent one frame ahead of the replies so the
        daemon never waits on a round trip between frames. A retry
        resubmits only the trials not yet answered; once the policy is
        exhausted the last error surfaces, after every reply that did
        arrive.
        """
        specs = list(specs)
        if not specs:
            return
        answered: set[int] = set()
        self._batch_index += 1
        token = f"batch{self._batch_index - 1}"
        last_error: Exception | None = None
        for attempt in range(1 + self.retry_policy.max_retries):
            if attempt:
                busy = isinstance(last_error, ServiceBusy)
                floor = last_error.retry_after if busy else None
                wait = self.retry_policy.wait(
                    attempt, token, floor=floor, sleep=self._sleep
                )
                self._count("service.retries")
                self._event(
                    "retry",
                    token=token,
                    attempt=attempt,
                    backoff=round(wait, 4),
                    error=str(last_error)[:240],
                )
            todo = [i for i in range(len(specs)) if i not in answered]
            try:
                for i, reply in self._submit_once(specs, todo):
                    answered.add(i)
                    yield i, reply
                return
            except ServiceBusy as exc:
                last_error = exc
                self._count("service.busy")
                self._event("busy", token=token, retry_after=exc.retry_after)
                # Admission refusals keep the connection healthy; no close.
            except (ServiceError, OSError) as exc:
                last_error = exc
                self.close()
        assert last_error is not None
        if isinstance(last_error, ServiceError):
            raise last_error
        raise ServiceError(
            f"submit to {self.address} failed: {last_error}"
        ) from last_error

    def _submit_once(
        self, specs: list[TrialSpec], todo: list[int]
    ) -> Iterator[tuple[int, TrialReply]]:
        """One submission attempt of the trials *todo* indexes; raises
        on any transport/protocol fault so :meth:`iter_submit`'s loop
        can decide whether to retry."""
        frames = [
            todo[start : start + MAX_SUBMIT_TRIALS]
            for start in range(0, len(todo), MAX_SUBMIT_TRIALS)
        ]
        # Request id -> (indices the frame carries, positions unanswered).
        inflight: dict[int, tuple[list[int], set[int]]] = {}
        while frames or inflight:
            while frames and len(inflight) < 2:  # one frame ahead of the replies
                chunk = frames.pop(0)
                self._next_id += 1
                self._send_frame(
                    {
                        "v": PROTO_VERSION,
                        "op": "submit",
                        "id": self._next_id,
                        "trials": [spec_to_wire(specs[i]) for i in chunk],
                    }
                )
                inflight[self._next_id] = (chunk, set(range(len(chunk))))
            frame = self._reply(inflight)
            req_id = frame.get("id")
            if not isinstance(req_id, int) or req_id not in inflight:
                continue  # stray frame from another request on this socket
            chunk, unanswered = inflight[req_id]
            op = frame.get("op")
            if op == "done":
                if unanswered:
                    raise ServiceError(
                        f"service answered {len(chunk) - len(unanswered)}"
                        f"/{len(chunk)} trials before done"
                    )
                del inflight[req_id]
                continue
            if op != "outcome":
                continue
            i = frame.get("i")
            if not isinstance(i, int) or i not in unanswered:
                raise ServiceProtocolError(f"outcome frame with bad index: {i!r}")
            unanswered.discard(i)
            yield chunk[i], TrialReply(
                spec=specs[chunk[i]],
                key=frame.get("key"),
                status=str(frame.get("status")),
                wire=frame.get("wire"),
                error=frame.get("error"),
                backend=frame.get("backend"),
            )


class ServiceCampaign(Campaign):
    """A campaign whose cache and execution live in the shared daemon.

    Construct with the same keyword arguments as
    :class:`~repro.campaign.Campaign` plus the service *url*; the local
    configuration (cache dir, workers, backend mode…) stays live as the
    fallback path. Only the executor differs from a local campaign:
    while the daemon is healthy, :meth:`_execute` submits a batch's
    cache misses remotely, and outcomes come back as wires rebuilt with
    :meth:`Outcome.from_wire`, byte-identical at the
    ``json.dumps(outcome.to_wire())`` level to inline execution. The
    in-session memo still applies (a repeated spec never re-crosses the
    network); the local store is neither read nor written, and
    telemetry trial records carry ``via="service"``.

    Transport failures are retried under the client's
    :class:`~repro.campaign.retry.RetryPolicy`
    (:data:`DEFAULT_RETRY_POLICY` unless overridden); only when a
    batch exhausts the policy, or a reply's wire does not decode, does
    the campaign fall back to the local store and local execution for
    the trials without a usable reply (``service.fallbacks`` counts it,
    one RuntimeWarning per session explains it). The daemon is then
    *probed* on later batches (``service.probes`` /
    ``service.reconnects``) and remote execution resumes the moment it
    answers — a single transient transport error never disables the
    service for the session.
    """

    def __init__(
        self,
        url: "str | ServiceAddress",
        *,
        timeout: float | None = None,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
        **campaign_kwargs: Any,
    ) -> None:
        super().__init__(**campaign_kwargs)
        self.retry_policy = retry_policy
        self.client = ServiceClient(
            url,
            timeout=timeout,
            retry_policy=self.retry_policy,
            injector=self._injector,
            metrics=self.metrics,
            on_event=self._service_event,
        )
        self._remote_down = False
        self._warned_fallback = False

    # -- remote execution ----------------------------------------------------------

    def _service_event(self, event: str, fields: dict[str, Any]) -> None:
        """Telemetry for every retry, rejection, fallback and probe —
        the transport's failure handling stays auditable offline."""
        if self.telemetry is not None:
            self.telemetry.emit(
                "service", event=event, address=str(self.client.address), **fields
            )

    def _fall_back(self, exc: Exception) -> None:
        self._remote_down = True
        if self.metrics is not None:
            self.metrics.count("service.fallbacks")
        self._service_event("fallback", {"error": str(exc)[:240]})
        if not self._warned_fallback:
            self._warned_fallback = True
            warnings.warn(
                f"campaign service at {self.client.address} unavailable "
                f"({exc}); falling back to local execution and probing "
                f"for recovery on later batches",
                RuntimeWarning,
                stacklevel=6,  # the caller of run_trials, through _execute
            )
        self.client.close()

    def _probe(self) -> bool:
        """One cheap liveness check against a downed daemon.

        Runs on a throwaway short-deadline connection so a wedged
        daemon costs at most ``PROBE_TIMEOUT`` per batch; on success
        the campaign resumes remote execution.
        """
        if self.metrics is not None:
            self.metrics.count("service.probes")
        probe = ServiceClient(self.client.address, timeout=PROBE_TIMEOUT)
        try:
            alive = probe.connect().ping()
        except (ServiceError, OSError):
            alive = False
        finally:
            probe.close()
        if alive:
            self._remote_down = False
            if self.metrics is not None:
                self.metrics.count("service.reconnects")
            self._service_event("reconnect", {})
        else:
            if self.metrics is not None:
                self.metrics.count("service.probe_failures")
            self._service_event("probe_failed", {})
        return alive

    @property
    def _via(self) -> str | None:
        # --no-cache means "force every execution": dedup through the
        # shared daemon would defeat the point, so it runs locally.
        return "service" if self.use_cache and not self._remote_down else None

    def run_trials(self, specs, **kwargs) -> list[TrialResult]:
        specs = list(specs)
        if specs and self.use_cache and self._remote_down:
            self._probe()  # once per batch, before any lookup
        return super().run_trials(specs, **kwargs)

    def _execute(self, pending):
        """The daemon as executor: submit the cache misses and decode
        each reply. A transport failure, or a wire that does not
        decode, falls back once; the trials left without a usable reply
        are then served from the local store where it holds them and
        run through the inherited local executor where it does not."""
        if not pending:
            return
        if self._via is None:
            yield from super()._execute(pending)
            return
        replies, unanswered, failure = {}, [], None
        try:
            for i, reply in self.client.iter_submit([spec for _, spec, _ in pending]):
                replies[i] = reply
        except (ServiceError, OSError) as exc:
            failure = exc
        for i, item in enumerate(pending):
            reply = replies.get(i)
            if reply is None:
                unanswered.append(item)
                continue
            wire = reply.wire
            try:
                outcome = None if wire is None else Outcome.from_wire(wire)
            except Exception as exc:
                unanswered.append(item)
                failure = ServiceError(f"undecodable outcome wire: {exc}")
                continue
            result = TrialResult(
                item[1], outcome, reply.error, reply.cached, reply.backend
            )
            yield item, result, None, "service"
        if not unanswered:
            return
        self._fall_back(failure)
        misses = []
        for item in unanswered:
            hit = self._lookup(item[2])  # the local store, now _via is None
            if hit is None:
                misses.append(item)
            else:
                yield item, TrialResult(item[1], hit, cached=True), None, None
        yield from super()._execute(misses)

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        self.client.close()
        super().close()
