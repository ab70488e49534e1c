"""Unit tests for the campaign-service wire protocol (docs/SERVICE.md)."""

import json

import pytest

from repro.campaign.keys import trial_key
from repro.errors import ConfigurationError
from repro.experiments.config import TrialSpec
from repro.service.protocol import (
    PROTO_VERSION,
    ServiceAddress,
    decode_frame,
    encode_frame,
    parse_service_url,
    spec_from_wire,
    spec_to_wire,
)


# -- service urls --------------------------------------------------------------


def test_parse_tcp_url():
    addr = parse_service_url("tcp://cache.lab:7341")
    assert addr == ServiceAddress(scheme="tcp", host="cache.lab", port=7341)
    assert str(addr) == "tcp://cache.lab:7341"


def test_bare_host_port_is_tcp_shorthand():
    addr = parse_service_url("127.0.0.1:7341")
    assert addr.scheme == "tcp"
    assert addr.host == "127.0.0.1"
    assert addr.port == 7341


def test_parse_unix_url():
    addr = parse_service_url("unix:///run/repro/cache.sock")
    assert addr == ServiceAddress(scheme="unix", path="/run/repro/cache.sock")
    assert str(addr) == "unix:///run/repro/cache.sock"


def test_parsed_url_round_trips_through_str():
    for url in ("tcp://h:1", "unix:///tmp/x.sock"):
        assert str(parse_service_url(url)) == url


@pytest.mark.parametrize(
    "bad",
    [
        "unix://",  # no path
        "http://h:80",  # unsupported scheme
        "tcp://h:notaport",
        "tcp://h:0",  # out of range
        "tcp://h:70000",
        "justahost",  # no port at all
        "tcp://:7341",  # no host
    ],
)
def test_bad_urls_raise_configuration_error(bad):
    with pytest.raises(ConfigurationError):
        parse_service_url(bad)


# -- spec wires ----------------------------------------------------------------


def trial(**overrides) -> TrialSpec:
    base = dict(protocol="flood", adversary="none", n=8, f=2, seed=3)
    base.update(overrides)
    return TrialSpec(**base)


def test_spec_wire_round_trip_minimal():
    spec = trial()
    wire = spec_to_wire(spec)
    json.dumps(wire)  # JSON-native by contract
    rebuilt = spec_from_wire(wire)
    assert rebuilt == spec
    assert trial_key(rebuilt) == trial_key(spec)


def test_spec_wire_round_trip_full():
    spec = trial(
        protocol_kwargs=(("fanout", 3),),
        adversary_kwargs=(("rate", 0.5),),
        environment="lossy",
        sanitize="warn",
        max_steps=1234,
    )
    rebuilt = spec_from_wire(json.loads(json.dumps(spec_to_wire(spec))))
    assert rebuilt == spec
    assert trial_key(rebuilt) == trial_key(spec)


@pytest.mark.parametrize(
    "bad",
    [
        "not an object",
        {"protocol": "flood"},  # missing required fields
        {"protocol": "flood", "adversary": "none", "n": "x", "f": 0, "seed": 0},
    ],
)
def test_malformed_spec_wire_raises(bad):
    with pytest.raises(ConfigurationError):
        spec_from_wire(bad)


# -- frames --------------------------------------------------------------------


def test_frame_round_trip():
    frame = {"v": PROTO_VERSION, "op": "ping"}
    line = encode_frame(frame)
    assert line.endswith(b"\n")
    assert b"\n" not in line[:-1]
    assert decode_frame(line) == frame


@pytest.mark.parametrize(
    "bad",
    [
        b"not json\n",
        b"[1,2,3]\n",
        b"\xff\xfe\n",
        pytest.param(b"[" * 200_000 + b"\n", id="nested-too-deep"),
    ],
)
def test_undecodable_frames_raise(bad):
    with pytest.raises(ConfigurationError):
        decode_frame(bad)
