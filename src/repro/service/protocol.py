"""Wire protocol of the campaign service (docs/SERVICE.md).

Framing is newline-delimited JSON: every frame is one JSON object on
one line, UTF-8, ``\\n``-terminated — the same crash-tolerant framing
the trial store and telemetry stream already use, so the protocol
inherits their property that a reader can never misparse a partial
write. Frames are small (specs and outcome wires are JSON-native);
there is deliberately no binary layer to keep ``nc``/``socat``
debuggability.

Client → server ops (every frame carries ``"v": PROTO_VERSION`` and
``"op"``):

- ``hello`` — handshake; the server answers with its protocol version
  and identity. Optional but recommended: a version mismatch surfaces
  here instead of as a confusing submit failure.
- ``submit`` — ``{"id": <client-chosen tag>, "trials": [<spec wire>…]}``,
  at most :data:`MAX_SUBMIT_TRIALS` trials a frame. A spec wire is the
  spec's key fingerprint (:func:`~repro.campaign.keys.spec_fingerprint`)
  plus ``"sanitize"`` when the spec sets it. The server streams
  one ``outcome`` frame per trial, one scheduler wave at a time (claim
  order within a wave), and finishes with a ``done`` frame. ``i``
  indexes into the submitted batch so the client can restore
  submission order.
- ``stats`` — dedup/hit/compute counters snapshot.
- ``ping`` — liveness.

Server → client frames:

- ``{"op": "outcome", "id": …, "i": <index>, "key": <sha256>,
  "status": "hit"|"computed"|"dedup"|"failed", "wire": [...]}`` plus
  per-trial telemetry fields (``backend``, ``seconds``) when known;
  failed trials carry ``error`` instead of ``wire``.
- ``{"op": "done", "id": …, "counts": {...}}``
- ``{"op": "error", "error": …}`` — a frame the server could not
  honour (malformed JSON, unknown op, bad spec). The connection stays
  open unless the transport itself broke.
- ``{"op": "busy", "id": …, "retry_after": <seconds>, "reason": …}`` —
  admission refused (pending queue full, or the daemon is draining).
  The connection stays open; a well-behaved client waits at least
  ``retry_after`` before resubmitting (the retry loop in
  :class:`repro.service.client.ServiceClient` does exactly that).

The outcome ``wire`` payload is exactly
:meth:`repro.sim.outcome.Outcome.to_wire` — JSON-native by contract —
so an outcome fetched through the service is byte-identical at the
``json.dumps(outcome.to_wire())`` level to one computed inline; the
differential battery in ``tests/service`` holds the daemon to that.

Trial identity on the wire is the spec, not the key: the server
decodes the fingerprint and recomputes the content address from the
decoded spec itself (never trusting a client hash), exactly as the
local campaign does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any

from repro.campaign.keys import spec_fingerprint, spec_from_fingerprint
from repro.errors import CampaignError, ConfigurationError
from repro.experiments.config import TrialSpec

__all__ = [
    "PROTO_VERSION",
    "SERVER_NAME",
    "MAX_SUBMIT_TRIALS",
    "ServiceAddress",
    "parse_service_url",
    "spec_to_wire",
    "spec_from_wire",
    "encode_frame",
    "decode_frame",
]

#: Bump on breaking frame-shape changes; both ends refuse a mismatch
#: at hello time rather than guessing.
PROTO_VERSION = 2

SERVER_NAME = "repro-ugf-service"

#: Upper bound on one frame line; a client that ships a larger frame
#: is broken or hostile, and unbounded readline() is a memory DoS.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Most trials one submit frame carries, and most one scheduler wave
#: hands the daemon's campaign: a larger batch crosses as several
#: submits, each admitted on its own, so none outgrows the daemon's
#: pending-queue bound, and the client keeps at most two in flight,
#: so a late arrival waits behind at most two frames of a huge batch.
MAX_SUBMIT_TRIALS = 512


@dataclass(frozen=True, slots=True)
class ServiceAddress:
    """A parsed ``--cache-url``: TCP host/port or a unix socket path."""

    scheme: str  # "tcp" | "unix"
    host: str | None = None
    port: int | None = None
    path: str | None = None

    def __str__(self) -> str:
        if self.scheme == "tcp":
            return f"tcp://{self.host}:{self.port}"
        return f"unix://{self.path}"


def parse_service_url(url: str) -> ServiceAddress:
    """Parse ``tcp://host:port`` or ``unix:///path/to.sock``.

    A bare ``host:port`` is accepted as TCP shorthand.
    """
    raw = url.strip()
    if raw.startswith("unix://"):
        path = raw[len("unix://") :]
        if not path:
            raise ConfigurationError(f"unix service url has no path: {url!r}")
        return ServiceAddress(scheme="unix", path=path)
    if raw.startswith("tcp://"):
        raw = raw[len("tcp://") :]
    elif "://" in raw:
        scheme = raw.split("://", 1)[0]
        raise ConfigurationError(
            f"unsupported service url scheme {scheme!r} (tcp:// or unix://)"
        )
    host, sep, port_text = raw.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"service url must be tcp://host:port or unix:///path, got {url!r}"
        )
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ConfigurationError(
            f"service url port is not an integer: {url!r}"
        ) from exc
    if not 0 < port < 65536:
        raise ConfigurationError(f"service url port out of range: {url!r}")
    return ServiceAddress(scheme="tcp", host=host, port=port)


# -- spec encoding -------------------------------------------------------------


def spec_to_wire(spec: TrialSpec) -> dict[str, Any]:
    """One :class:`TrialSpec` as a submit frame carries it: its key
    fingerprint (:func:`~repro.campaign.keys.spec_fingerprint`), plus
    ``sanitize`` when set — instrumentation, not trial identity, but
    the *executing* side honours it."""
    wire = spec_fingerprint(spec)
    if spec.sanitize is not None:
        wire["sanitize"] = spec.sanitize
    return wire


def spec_from_wire(wire: dict[str, Any]) -> TrialSpec:
    """Rebuild a :class:`TrialSpec`; raises ``ConfigurationError`` on a
    malformed payload (the server answers those with an error frame,
    never a crash)."""
    if not isinstance(wire, dict):
        raise ConfigurationError(f"trial spec wire must be an object, got {type(wire).__name__}")
    try:
        spec = spec_from_fingerprint(wire)
    except CampaignError as exc:
        raise ConfigurationError(f"malformed trial spec wire: {exc}") from exc
    sanitize = wire.get("sanitize")
    return spec if sanitize is None else replace(spec, sanitize=sanitize)


# -- frame encoding ------------------------------------------------------------


def encode_frame(frame: dict[str, Any]) -> bytes:
    """One NDJSON frame, newline-terminated, ready for the socket."""
    return json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> dict[str, Any]:
    """Parse one received line; raises ``ConfigurationError`` when it
    is not a JSON object (the caller converts that to an error frame
    or a client-side :class:`~repro.service.client.ServiceError`)."""
    try:
        frame = json.loads(line.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigurationError(f"undecodable service frame: {exc}") from exc
    if not isinstance(frame, dict):
        raise ConfigurationError(
            f"service frame must be a JSON object, got {type(frame).__name__}"
        )
    return frame
