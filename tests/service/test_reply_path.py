"""The daemon's reply path: one write per scheduler wave, one hash per trial.

A submit's claims resolve a scheduler wave at a time, and each wave
leaves the daemon as a single socket write whose frames are byte for
byte what :func:`encode_frame` makes of the same dict. The scheduler
hands the campaign the keys it claimed, so ``trial_key`` runs once per
trial in the daemon process. These tests pin all of that at the
transport: raw unix-socket conversations, a spy on
``StreamWriter.write``, and a counter on the one hashing function.
"""

import asyncio
import json
import socket
from dataclasses import replace

import pytest

import repro.campaign.keys as keys_module
from repro.campaign import Campaign, trial_key
from repro.chaos import shipped_service_plans
from repro.errors import ConfigurationError
from repro.experiments.config import TrialSpec
from repro.service import ServiceClient
from repro.service.protocol import (
    PROTO_VERSION,
    encode_frame,
    spec_from_wire,
    spec_to_wire,
)
from repro.service.server import ServiceThread


def trial(seed: int = 0, **overrides) -> TrialSpec:
    base = dict(protocol="flood", adversary="none", n=8, f=2, seed=seed)
    base.update(overrides)
    return TrialSpec(**base)


def submit_frame(req_id: int, wires: list) -> dict:
    return {"v": PROTO_VERSION, "op": "submit", "id": req_id, "trials": wires}


def converse(path: str, frame: dict) -> list[bytes]:
    """Send *frame* on a fresh connection; every line received until
    ``done`` or EOF (a torn final line keeps its missing newline)."""
    lines: list[bytes] = []
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(60)
        sock.connect(path)
        sock.sendall(encode_frame(frame))
        with sock.makefile("rb") as stream:
            try:
                for line in stream:
                    lines.append(line)
                    if line.endswith(b"\n") and json.loads(line)["op"] == "done":
                        break
            except ConnectionResetError:
                pass
    return lines


def outcome_frame(req_id, i, key, status, result) -> dict:
    """The outcome dict the daemon owes, in its documented field order."""
    frame = {
        "v": PROTO_VERSION,
        "op": "outcome",
        "id": req_id,
        "i": i,
        "key": key,
        "status": status,
        "wire": result.outcome.to_wire(),
    }
    if status != "hit" and result.backend is not None:
        frame["backend"] = result.backend
    return frame


@pytest.fixture
def host(tmp_path):
    campaign = Campaign(cache_dir=tmp_path / "shared", workers=0)
    with ServiceThread(campaign, unix_path=str(tmp_path / "svc.sock")) as host:
        yield host


def test_mixed_submit_frames_are_encode_frame_of_the_same_dict(host):
    """A hit, a computed trial, its in-request duplicate and a spec that
    does not parse: each frame line is exactly encode_frame of the dict
    the daemon owes, fields in the order v, op, id, i, key, status,
    wire[, backend] (failures: v, op, id, i, status, error)."""
    path = host.addresses[0].path
    warm, cold = trial(0), trial(1)
    with Campaign(workers=0) as local:
        hit_result, cold_result = local.run_trials([warm, cold])
    converse(path, submit_frame(1, [spec_to_wire(warm)]))  # prime the hit
    bad = {"protocol": "flood"}
    with pytest.raises(ConfigurationError) as bad_error:
        spec_from_wire(bad)

    lines = converse(
        path, submit_frame(2, [spec_to_wire(warm), spec_to_wire(cold), spec_to_wire(cold), bad])
    )

    expected = {
        0: outcome_frame(2, 0, trial_key(warm), "hit", hit_result),
        1: outcome_frame(2, 1, trial_key(cold), "computed", cold_result),
        2: outcome_frame(2, 2, trial_key(cold), "dedup", cold_result),
        3: {
            "v": PROTO_VERSION,
            "op": "outcome",
            "id": 2,
            "i": 3,
            "status": "failed",
            "error": str(bad_error.value),
        },
    }
    *outcomes, done = lines
    assert sorted(json.loads(line)["i"] for line in outcomes) == [0, 1, 2, 3]
    for line in outcomes:
        assert line == encode_frame(expected[json.loads(line)["i"]])
    assert json.loads(done) == {
        "v": PROTO_VERSION,
        "op": "done",
        "id": 2,
        "counts": {"hit": 1, "computed": 1, "dedup": 1, "failed": 1},
    }


def test_an_all_hit_submit_is_two_writes(host, monkeypatch):
    """120 warm hits resolve in one scheduler wave: one write carries
    all 120 outcome frames in claim order, a second carries ``done``."""
    path = host.addresses[0].path
    wires = [spec_to_wire(trial(seed)) for seed in range(120)]
    converse(path, submit_frame(1, wires))  # cold: fills memo and store

    writes: list[bytes] = []
    real_write = asyncio.StreamWriter.write

    def spy(self, data):
        writes.append(bytes(data))
        return real_write(self, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", spy)
    lines = converse(path, submit_frame(2, wires))

    assert len(writes) == 2
    outcomes = [json.loads(line) for line in writes[0].splitlines()]
    assert [frame["i"] for frame in outcomes] == list(range(120))
    assert {frame["status"] for frame in outcomes} == {"hit"}
    assert json.loads(writes[1])["op"] == "done"
    assert b"".join(lines) == b"".join(writes)


def test_trial_key_runs_once_per_trial_in_the_daemon(host, monkeypatch):
    """The scheduler hands the campaign the keys it claimed: an N-trial
    submit hashes N specs in the daemon process, not 2N."""
    calls = []
    real = keys_module.fingerprint_key

    def counted(fingerprint):
        calls.append(fingerprint)
        return real(fingerprint)

    monkeypatch.setattr(keys_module, "fingerprint_key", counted)
    specs = [trial(seed) for seed in range(24)]
    with ServiceClient(host.url, timeout=60) as client:
        replies = client.submit(specs)
    assert [r.status for r in replies] == ["computed"] * len(specs)
    assert len(calls) == len(specs)


@pytest.mark.parametrize("campaign_sanitize", [None, "warn"])
def test_claimed_keys_are_the_keys_run_trials_computes(
    campaign_sanitize, tmp_path, monkeypatch
):
    """Keys ignore ``sanitize``, so the keys the daemon claimed (from
    specs that carry a sanitize value, or get the campaign's) are the
    keys ``run_trials`` computes for the same specs."""
    handed: list[list] = []
    real = Campaign._run_keyed

    def spy(self, specs, keys, **kwargs):
        handed.append(list(keys))
        return real(self, specs, keys, **kwargs)

    monkeypatch.setattr(Campaign, "_run_keyed", spy)
    specs = [trial(0, sanitize="warn"), trial(1, sanitize="strict:counters"), trial(2)]
    with Campaign(workers=0, sanitize=campaign_sanitize) as local:
        inline = local.run_trials(specs)
    (computed_keys,) = handed
    handed.clear()

    daemon = Campaign(
        cache_dir=tmp_path / "shared", workers=0, sanitize=campaign_sanitize
    )
    with ServiceThread(daemon, unix_path=str(tmp_path / "svc.sock")) as host:
        with ServiceClient(host.url, timeout=60) as client:
            replies = client.submit(specs)

    assert handed == [computed_keys]
    assert computed_keys == [trial_key(replace(s, sanitize=None)) for s in specs]
    assert [r.key for r in replies] == computed_keys
    assert [r.wire for r in replies] == [r.outcome.to_wire() for r in inline]


@pytest.mark.parametrize(
    "plan_name, n_trials",
    [("frame-tear", 4), ("conn-drop", 4), ("conn-drop", 1)],
)
def test_chaos_sites_cut_the_wave_where_they_always_did(
    plan_name, n_trials, tmp_path
):
    """``service.frame_tear`` tears the first outcome frame;
    ``service.conn_drop`` lets exactly one outcome frame through, or on
    a one-trial batch cuts between the outcome and ``done``."""
    campaign = Campaign(
        cache_dir=tmp_path / "shared",
        workers=0,
        fault_plan=shipped_service_plans()[plan_name],
    )
    specs = [trial(seed) for seed in range(n_trials)]
    with Campaign(workers=0) as local:
        first = local.run_trials(specs[:1])[0]
    first_frame = encode_frame(
        outcome_frame(1, 0, trial_key(specs[0]), "computed", first)
    )
    with ServiceThread(campaign, unix_path=str(tmp_path / "svc.sock")) as host:
        lines = converse(
            host.addresses[0].path,
            submit_frame(1, [spec_to_wire(s) for s in specs]),
        )
        counters = dict(host.service.counters)

    assert counters["injected_faults"] == 1
    if plan_name == "frame-tear":
        assert lines == [first_frame[: len(first_frame) // 2]]
    else:
        assert lines == [first_frame]
