"""Client side of the campaign service (docs/SERVICE.md).

:class:`ServiceClient` is a small synchronous NDJSON socket client —
connect, submit trial-spec batches, read streamed outcome frames. On
top of it, :class:`ServiceCampaign` subclasses
:class:`~repro.campaign.Campaign` as its remote executor, so every
experiment module (and the CLI via ``--cache-url``) can execute against
the shared daemon without changing a line: the campaign loop is the
inherited one, so the :class:`~repro.campaign.campaign.TrialResult`
surface, outcome wires and stats/progress/telemetry are those of a
local run.

Failure posture (docs/SERVICE.md "Failure model") — the daemon is an
*accelerator*, not a dependency. A transport failure is retried under
a :class:`~repro.chaos.supervisor.RetryPolicy` (bounded attempts,
exponential backoff, deterministic hashed jitter, per-request
deadlines); resubmission is idempotent because trials are
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
from typing import Any, Callable, Sequence

from repro.campaign.campaign import Campaign, TrialResult
from repro.chaos.supervisor import RetryPolicy
from repro.errors import CampaignError, ConfigurationError
from repro.experiments.config import TrialSpec
from repro.service.protocol import (
    MAX_FRAME_BYTES,
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

    With a *retry_policy*, :meth:`submit` becomes a bounded
    reconnect-and-resubmit loop: transport failures, torn frames,
    timeouts and ``busy`` rejections are retried with exponential
    backoff and deterministic hashed jitter, resubmitting the whole
    batch — idempotent because the daemon deduplicates by content
    address, so a resubmit attaches to work already in flight instead
    of recomputing it. Without one (the default), every failure
    surfaces immediately, preserving the PR-7 single-shot behaviour.
    """

    def __init__(
        self,
        address: "ServiceAddress | str",
        *,
        timeout: float | None = None,
        connect_timeout: float = 10.0,
        request_timeout: float | None = None,
        retry_policy: RetryPolicy | None = None,
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
        self.connect_timeout = connect_timeout
        #: Optional wall-clock deadline for one whole submit attempt.
        self.request_timeout = request_timeout
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
        try:
            if link is not None:
                link.connect()
            if self.address.scheme == "unix":
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.connect_timeout)
                try:
                    sock.connect(self.address.path)
                except OSError:
                    sock.close()
                    raise
            else:
                sock = socket.create_connection(
                    (self.address.host, self.address.port),
                    timeout=self.connect_timeout,
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

    def _read_frame(self, deadline: float | None = None) -> dict[str, Any]:
        assert self._rfile is not None
        restore = False
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.close()
                raise ServiceTimeout(
                    f"request deadline expired waiting on {self.address}"
                )
            if self._sock is not None and (
                self.timeout is None or remaining < self.timeout
            ):
                try:
                    self._sock.settimeout(remaining)
                    restore = True
                except OSError:
                    pass
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
        finally:
            if restore and self._sock is not None:
                try:
                    self._sock.settimeout(self.timeout)
                except OSError:
                    pass
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

    @staticmethod
    def _busy_error(frame: dict[str, Any]) -> ServiceBusy:
        """A typed rejection even when the frame's fields are missing
        or garbage — a misbehaving daemon must not crash the client."""
        hint = frame.get("retry_after")
        retry_after = (
            float(hint)
            if isinstance(hint, (int, float)) and not isinstance(hint, bool) and hint >= 0
            else None
        )
        reason = frame.get("reason")
        detail = f" ({reason})" if isinstance(reason, str) and reason else ""
        return ServiceBusy(
            f"service refused admission{detail}", retry_after=retry_after
        )

    def _roundtrip(self, op: str, **fields: Any) -> dict[str, Any]:
        deadline = (
            time.monotonic() + self.request_timeout
            if self.request_timeout is not None
            else None
        )
        self._send_frame({"v": PROTO_VERSION, "op": op, **fields})
        frame = self._read_frame(deadline)
        if frame.get("op") == "busy":
            raise self._busy_error(frame)
        if frame.get("op") == "error":
            error = frame.get("error") or "unspecified error"
            raise ServiceError(f"service refused {op!r}: {error}")
        return frame

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
        """Run *specs* through the daemon; replies in submission order.

        Frames arrive one scheduler wave at a time, in claim order
        within a wave, and are restored to submission order by index.
        Raises :class:`ServiceError` only for transport/protocol
        failure — per-trial failures are ``failed`` replies. With a
        retry policy armed, transport failures and ``busy`` rejections
        are retried by resubmitting the whole batch (idempotent: the
        daemon's store and in-flight dedup answer already-finished
        trials as hits); the last error surfaces once the policy is
        exhausted.
        """
        specs = list(specs)
        if not specs:
            return []
        self._batch_index += 1
        token = f"batch{self._batch_index - 1}"
        policy = self.retry_policy
        tries = 1 + (policy.max_retries if policy is not None else 0)
        last_error: Exception | None = None
        for attempt in range(tries):
            if attempt:
                assert policy is not None and last_error is not None
                wait = policy.backoff_seconds(attempt, token)
                if isinstance(last_error, ServiceBusy) and last_error.retry_after:
                    wait = max(wait, last_error.retry_after)
                self._count("service.retries")
                self._event(
                    "retry",
                    token=token,
                    attempt=attempt,
                    backoff=round(wait, 4),
                    error=str(last_error)[:240],
                )
                if wait > 0:
                    self._sleep(wait)
            try:
                return self._submit_once(specs)
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

    def _submit_once(self, specs: list[TrialSpec]) -> list[TrialReply]:
        """One submission attempt; raises on any transport/protocol
        fault so :meth:`submit`'s loop can decide whether to retry."""
        deadline = (
            time.monotonic() + self.request_timeout
            if self.request_timeout is not None
            else None
        )
        self._next_id += 1
        req_id = self._next_id
        self._send_frame(
            {
                "v": PROTO_VERSION,
                "op": "submit",
                "id": req_id,
                "trials": [spec_to_wire(spec) for spec in specs],
            }
        )
        replies: list[TrialReply | None] = [None] * len(specs)
        received = 0
        while True:
            frame = self._read_frame(deadline)
            op = frame.get("op")
            if op == "busy":
                raise self._busy_error(frame)
            if op == "error":
                error = frame.get("error") or "unspecified error"
                raise ServiceError(f"service error: {error}")
            if op == "done":
                if frame.get("id") != req_id:
                    continue
                break
            if op != "outcome" or frame.get("id") != req_id:
                continue  # stray frame from another request on this socket
            i = frame.get("i")
            if not isinstance(i, int) or not 0 <= i < len(specs):
                raise ServiceProtocolError(f"outcome frame with bad index: {i!r}")
            replies[i] = TrialReply(
                spec=specs[i],
                key=frame.get("key"),
                status=str(frame.get("status")),
                wire=frame.get("wire"),
                error=frame.get("error"),
                backend=frame.get("backend"),
            )
            received += 1
        if received != len(specs) or any(r is None for r in replies):
            raise ServiceError(
                f"service answered {received}/{len(specs)} trials before done"
            )
        return replies  # type: ignore[return-value]


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
    :class:`~repro.chaos.supervisor.RetryPolicy`
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
        client: ServiceClient | None = None,
        timeout: float | None = None,
        retry_policy: RetryPolicy | None = None,
        probe_timeout: float = 2.0,
        **campaign_kwargs: Any,
    ) -> None:
        super().__init__(**campaign_kwargs)
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        )
        self._probe_timeout = probe_timeout
        if client is not None:
            self.client = client
        else:
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
        daemon costs at most ``probe_timeout`` per batch; on success
        the campaign resumes remote execution.
        """
        if self.metrics is not None:
            self.metrics.count("service.probes")
        probe = ServiceClient(
            self.client.address,
            timeout=self._probe_timeout,
            connect_timeout=self._probe_timeout,
        )
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
        unanswered, failure = [], None
        try:
            replies = self.client.submit([spec for _, spec, _ in pending])
        except (ServiceError, OSError) as exc:
            unanswered, failure = pending, exc
        else:
            for item, reply in zip(pending, replies):
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
