"""Content-addressed trial keys.

A :class:`~repro.experiments.config.TrialSpec` fully determines its
:class:`~repro.sim.outcome.Outcome` (the simulation is a pure function
of the spec — protocols and adversaries are rebuilt from registry
names and seeded from ``seed``), so a stable hash of the spec is a
valid content address for the result. :func:`trial_key` produces that
hash: canonical JSON over every spec field, kwargs sorted by name so
call-site ordering cannot split the cache, SHA-256 over the bytes.

The key embeds ``KEY_VERSION``; bump it whenever the simulation
semantics change in a result-affecting way, which orphans (but does
not corrupt) previously cached entries.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.errors import CampaignError, ConfigurationError
from repro.experiments.config import TrialSpec
from repro.sim.topology import canonical_topology

__all__ = [
    "KEY_VERSION",
    "trial_key",
    "spec_fingerprint",
    "fingerprint_key",
    "spec_from_fingerprint",
]

#: Bump on any result-affecting change to the simulation semantics.
KEY_VERSION = 1


def _canonical_kwargs(kwargs: tuple[tuple[str, Any], ...]) -> list[list[Any]]:
    if not kwargs:
        return []
    pairs = sorted(kwargs, key=lambda kv: kv[0])
    names = [k for k, _ in pairs]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate kwarg names in spec: {names}")
    return [[k, v] for k, v in pairs]


def spec_fingerprint(spec: TrialSpec) -> dict[str, Any]:
    """The canonical JSON-safe payload :func:`trial_key` hashes.

    Also the spec's one codec: stored verbatim next to each cache entry
    (so the store is auditable) and carried by service submit frames.

    The ``topology`` key is present only for non-clique specs:
    ``None`` and every spelling of the complete graph canonicalise to
    *absence*, so clique fingerprints are byte-for-byte what they were
    before topology existed and pre-topology caches stay warm.
    """
    payload = {
        "version": KEY_VERSION,
        "protocol": spec.protocol,
        "protocol_kwargs": _canonical_kwargs(spec.protocol_kwargs),
        "adversary": spec.adversary,
        "adversary_kwargs": _canonical_kwargs(spec.adversary_kwargs),
        "n": spec.n,
        "f": spec.f,
        "seed": spec.seed,
        "max_steps": spec.max_steps,
        "environment": spec.environment,
    }
    topology = canonical_topology(spec.topology)
    if topology is not None:
        payload["topology"] = topology
    return payload


def spec_from_fingerprint(fingerprint: dict[str, Any]) -> TrialSpec:
    """Rebuild the :class:`TrialSpec` a stored fingerprint describes.

    Raises :class:`~repro.errors.CampaignError` for fingerprints written
    by a different ``KEY_VERSION`` — their semantics are not ours to
    re-execute.
    """
    version = fingerprint.get("version")
    if version != KEY_VERSION:
        raise CampaignError(
            f"fingerprint version {version!r} != supported {KEY_VERSION}"
        )
    try:
        return TrialSpec(
            protocol=fingerprint["protocol"],
            adversary=fingerprint["adversary"],
            n=int(fingerprint["n"]),
            f=int(fingerprint["f"]),
            seed=int(fingerprint["seed"]),
            max_steps=int(fingerprint["max_steps"]),
            protocol_kwargs=tuple(
                (k, v) for k, v in fingerprint["protocol_kwargs"]
            ),
            adversary_kwargs=tuple(
                (k, v) for k, v in fingerprint["adversary_kwargs"]
            ),
            environment=fingerprint.get("environment"),
            topology=fingerprint.get("topology"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CampaignError(f"malformed spec fingerprint: {exc}") from exc


def fingerprint_key(fingerprint: dict[str, Any]) -> str:
    """The content address of a spec fingerprint: SHA-256 over its
    canonical JSON (sorted keys, fixed separators)."""
    text = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trial_key(spec: TrialSpec) -> str:
    """Stable content address of one trial, identical across processes.

    Non-JSON kwarg values are rejected rather than hashed by ``repr``,
    which would be representation- not content-stable.
    """
    payload = spec_fingerprint(spec)
    try:
        return fingerprint_key(payload)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"spec kwargs must be JSON-serialisable to be cacheable: {exc}"
        ) from exc
