"""The campaign service: a shared trial-cache daemon and its client.

``repro.service`` promotes the content-addressed trial cache from a
per-run-dir artifact into a long-lived *service* (docs/SERVICE.md):

- :class:`TrialService` / ``repro-ugf serve`` — an asyncio daemon
  (TCP and/or unix socket, newline-delimited JSON frames) that owns
  one trial store, accepts trial-spec batches from many
  concurrent clients, dedups in-flight work by content address (the
  second requester awaits the first's future instead of recomputing),
  schedules misses across the campaign worker pool / backend router,
  and streams outcome wires plus per-trial telemetry back as they
  complete.
- :class:`ServiceClient` — a synchronous client speaking that
  protocol.
- :class:`ServiceCampaign` — a drop-in :class:`~repro.campaign.
  Campaign` substitute (the CLI's ``--cache-url``): same outcome
  wires, byte-identical, with graceful fallback to local execution
  when the daemon is unreachable.

The fleet-level guarantee: N researchers (or CI jobs) hammering one
daemon never recompute a trial any of them has already run — the store
dedups across time, the in-flight futures dedup across *now*.
"""

from repro.service.client import ServiceCampaign, ServiceClient, ServiceError
from repro.service.protocol import PROTO_VERSION, ServiceAddress, parse_service_url
from repro.service.server import TrialService, serve_forever

__all__ = [
    "PROTO_VERSION",
    "ServiceAddress",
    "ServiceCampaign",
    "ServiceClient",
    "ServiceError",
    "TrialService",
    "parse_service_url",
    "serve_forever",
]
