"""Seeded-random round-trip properties for the wire encodings.

Flat payloads come from a seeded ``np.random.default_rng`` (a
generator would add little for their shapes): each test draws a few
hundred with a fixed seed, so failures replay exactly. The one nested
property, the daemon's spliced outcome frame, draws with hypothesis.

Properties pinned:

- ``MetricsRegistry`` wire round-trips losslessly, including empty
  registries, zero and huge (``2**62``) counters, and empty histograms;
- merging registries commutes with the wire encoding
  (``wire(a.merge(b)) == wire(from_wire(wire(a)).merge(from_wire(wire(b))))``);
- ``Outcome`` wire round-trips losslessly through JSON over randomized
  payloads, and un-versioned / unknown-version wires raise;
- the daemon's outcome frame spliced from a store line's wire text is
  byte for byte ``encode_frame`` of the dict carrying ``to_wire()``,
  for arbitrary outcomes, fingerprints and request ids;
- telemetry records missing a kind load as ``"unknown"``, and
  un-versioned ones are skipped and counted.
"""

from __future__ import annotations

import json
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.store import STORE_FILENAME, TrialStore, encode_record
from repro.obs import Histogram, MetricsRegistry
from repro.obs.registry import DEFAULT_TIME_BOUNDS, DEFAULT_VALUE_BOUNDS
from repro.obs.telemetry import TELEMETRY_FILENAME, read_telemetry
from repro.service.protocol import PROTO_VERSION, encode_frame
from repro.service.server import splice_outcome_frame
from repro.sim.outcome import Outcome

SEED = 0xC0FFEE


def _random_registry(rng: np.random.Generator) -> MetricsRegistry:
    reg = MetricsRegistry()
    for i in range(int(rng.integers(0, 6))):
        # Zero and huge increments are both legal counter territory.
        value = int(rng.choice([0, 1, 7, 10**6, 2**62]))
        reg.count(f"counter.{i}", value)
    for i in range(int(rng.integers(0, 4))):
        reg.gauge(f"gauge.{i}", float(rng.normal() * 10**3))
    for i in range(int(rng.integers(0, 4))):
        # Bounds are a deterministic function of the name: mergeable
        # registries must agree on bounds per histogram, as real
        # producers do (value bounds for data, time bounds for spans).
        bounds = DEFAULT_VALUE_BOUNDS if i % 2 == 0 else DEFAULT_TIME_BOUNDS
        for _ in range(int(rng.integers(0, 8))):  # 0 → empty histogram
            reg.observe(f"hist.{i}", float(abs(rng.normal()) * 100), bounds)
    for i in range(int(rng.integers(0, 4))):
        for _ in range(int(rng.integers(0, 8))):
            reg.observe_span(f"span.{i}", float(abs(rng.normal()) * 0.01))
    return reg


class TestRegistryRoundTrip:
    def test_random_registries_round_trip_through_json(self):
        rng = np.random.default_rng(SEED)
        for _ in range(200):
            reg = _random_registry(rng)
            wire = json.loads(json.dumps(reg.to_wire()))
            clone = MetricsRegistry.from_wire(wire)
            assert clone.to_wire() == reg.to_wire()

    def test_empty_registry_round_trips(self):
        reg = MetricsRegistry()
        assert MetricsRegistry.from_wire(reg.to_wire()).to_wire() == reg.to_wire()

    def test_merge_commutes_with_wire(self):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(100):
            a, b = _random_registry(rng), _random_registry(rng)
            direct = MetricsRegistry.from_wire(a.to_wire()).merge(
                MetricsRegistry.from_wire(b.to_wire())
            )
            via_wire = MetricsRegistry.from_wire(
                json.loads(json.dumps(a.to_wire()))
            ).merge(MetricsRegistry.from_wire(json.loads(json.dumps(b.to_wire()))))
            assert direct.to_wire() == via_wire.to_wire()

    def test_merge_counter_totals_are_exact_at_huge_magnitudes(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.count("big", 2**62)
        b.count("big", 2**62)
        a.merge(b)
        assert a.counter_value("big") == 2**63  # no float truncation
        clone = MetricsRegistry.from_wire(a.to_wire())
        assert clone.counter_value("big") == 2**63

    def test_unversioned_registry_wire_raises(self):
        with pytest.raises(ValueError):
            MetricsRegistry.from_wire([[], [], [], []])

    def test_empty_histogram_round_trips(self):
        hist = Histogram()
        clone = Histogram.from_wire(json.loads(json.dumps(hist.to_wire())))
        assert clone.count == 0
        assert clone.min is None and clone.max is None
        assert clone.to_wire() == hist.to_wire()


def _random_outcome(rng: np.random.Generator) -> Outcome:
    n = int(rng.integers(1, 40))
    f = int(rng.integers(0, n))
    crashed = tuple(
        sorted(int(p) for p in rng.choice(n, size=f, replace=False))
    )
    counters = rng.choice([0, 1, 3, 10**9, 2**62], size=n)
    return Outcome(
        n=n,
        f=f,
        seed=int(rng.integers(0, 2**31)),
        protocol_name=str(rng.choice(["push-pull", "ears", "flood"])),
        adversary_name=str(rng.choice(["none", "ugf", "str-2.1.1"])),
        completed=bool(rng.random() < 0.9),
        rumor_gathering_ok=bool(rng.random() < 0.9),
        t_end=int(rng.integers(0, 10**6)),
        max_local_step_time=int(rng.integers(1, 100)),
        max_delivery_time=int(rng.integers(1, 100)),
        sent=np.asarray(counters, dtype=np.int64),
        received=np.asarray(rng.integers(0, 10**6, size=n), dtype=np.int64),
        bytes_sent=np.asarray(rng.integers(0, 10**9, size=n), dtype=np.int64),
        crashed=crashed,
        crash_steps={p: int(rng.integers(0, 10**6)) for p in crashed},
        sleep_counts=np.asarray(rng.integers(0, 100, size=n), dtype=np.int64),
        wake_counts=np.asarray(rng.integers(0, 100, size=n), dtype=np.int64),
        steps_simulated=int(rng.integers(0, 10**6)),
        strategy_label=[None, "str-2.1.0", "str-1"][int(rng.integers(0, 3))],
        sanitizer=None if rng.random() < 0.7 else {"mode": "warn", "total_violations": 0},
    )


class TestOutcomeRoundTrip:
    def test_random_outcomes_round_trip_through_json(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(150):
            outcome = _random_outcome(rng)
            wire = outcome.to_wire()
            clone = Outcome.from_wire(json.loads(json.dumps(wire)))
            assert clone.to_wire() == wire
            assert clone.to_wire() == outcome.to_wire()

    def test_wire_bytes_are_deterministic(self):
        rng = np.random.default_rng(SEED + 3)
        outcome = _random_outcome(rng)
        a = json.dumps(outcome.to_wire(), separators=(",", ":"))
        b = json.dumps(
            Outcome.from_wire(outcome.to_wire()).to_wire(), separators=(",", ":")
        )
        assert a == b

    def test_unversioned_outcome_wire_raises(self):
        rng = np.random.default_rng(SEED + 4)
        wire = _random_outcome(rng).to_wire()
        with pytest.raises(ValueError):
            Outcome.from_wire(wire[1:])  # version stripped
        with pytest.raises(ValueError):
            Outcome.from_wire([])

    def test_unknown_outcome_wire_version_raises(self):
        rng = np.random.default_rng(SEED + 5)
        wire = _random_outcome(rng).to_wire()
        wire[0] = 999
        with pytest.raises(ValueError):
            Outcome.from_wire(wire)


#: Any JSON value a request id, a fingerprint or a sanitizer report may
#: hold: nested, non-ASCII and escape-heavy text included.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def outcomes(draw) -> Outcome:
    n = draw(st.integers(1, 12))
    counters = st.lists(st.integers(0, 2**62), min_size=n, max_size=n)
    crashed = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return Outcome(
        n=n,
        f=draw(st.integers(0, n)),
        seed=draw(st.integers(0, 2**31)),
        protocol_name=draw(st.text(max_size=10)),
        adversary_name=draw(st.text(max_size=10)),
        completed=draw(st.booleans()),
        rumor_gathering_ok=draw(st.booleans()),
        t_end=draw(st.integers(0, 10**6)),
        max_local_step_time=draw(st.integers(1, 100)),
        max_delivery_time=draw(st.integers(1, 100)),
        sent=np.asarray(draw(counters), dtype=np.int64),
        received=np.asarray(draw(counters), dtype=np.int64),
        bytes_sent=np.asarray(draw(counters), dtype=np.int64),
        crashed=tuple(crashed),
        crash_steps={p: draw(st.integers(0, 10**6)) for p in crashed},
        sleep_counts=np.asarray(draw(counters), dtype=np.int64),
        wake_counts=np.asarray(draw(counters), dtype=np.int64),
        steps_simulated=draw(st.integers(0, 10**6)),
        strategy_label=draw(st.none() | st.text(max_size=10)),
        topology=draw(st.none() | st.sampled_from(["ring:2", "expander", "random-regular:4"])),
        sanitizer=draw(st.none() | st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=4)),
    )


class TestSplicedOutcomeFrame:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        outcome=outcomes(),
        key=st.text("0123456789abcdef", min_size=64, max_size=64),
        fingerprint=st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=4),
        req_id=JSON_VALUES,
        i=st.integers(0, 511),
    )
    def test_spliced_frame_is_encode_frame_of_the_dict(
        self, outcome, key, fingerprint, req_id, i
    ):
        """The wire text :meth:`TrialStore.wire_text` slices from
        ``encode_record``'s line — on a line this process appended, on its
        first read by another process, and on a repeated read — spliced
        into a frame, equals ``encode_frame`` of the frame dict, for
        ``hit``, ``computed`` and ``dedup``, with and without ``backend``."""
        wire = outcome.to_wire()
        with tempfile.TemporaryDirectory() as run_dir:
            with TrialStore(run_dir) as writer:
                writer.put_many([(key, fingerprint, outcome)])
                appended = writer.wire_text(key)
            with open(f"{run_dir}/{STORE_FILENAME}") as fh:
                assert fh.read() == encode_record(key, fingerprint, wire) + "\n"
            reader = TrialStore(run_dir)
            texts = [appended, reader.wire_text(key), reader.wire_text(key)]
            reader.close()
        head = encode_frame({"v": PROTO_VERSION, "op": "outcome", "id": req_id})[:-2]
        for status in ("hit", "computed", "dedup"):
            for backend in (None, "scalar", "batch"):
                frame = {
                    "v": PROTO_VERSION, "op": "outcome", "id": req_id,
                    "i": i, "key": key, "status": status, "wire": wire,
                }
                if backend is not None:
                    frame["backend"] = backend
                for text in texts:
                    spliced = splice_outcome_frame(head, i, key, status, text, backend)
                    assert spliced == encode_frame(frame)


class TestUnversionedTelemetry:
    def test_random_unversioned_records_skipped(self, tmp_path):
        rng = np.random.default_rng(SEED + 6)
        path = tmp_path / TELEMETRY_FILENAME
        lines = []
        expected_kinds = []
        unversioned = 0
        for _ in range(100):
            record: dict = {"x": int(rng.integers(0, 10**6))}
            versioned = rng.random() < 0.5
            if versioned:
                record["v"] = int(rng.integers(1, 5))
            if rng.random() < 0.7:  # kind present or missing
                record["kind"] = str(rng.choice(["trial", "phase", "future"]))
            if versioned:
                expected_kinds.append(record.get("kind", "unknown"))
            else:
                unversioned += 1
            lines.append(json.dumps(record))
        path.write_text("\n".join(lines) + "\n")
        records, skipped = read_telemetry(path)
        assert 0 < unversioned < 100
        assert skipped == unversioned
        assert [r.kind for r in records] == expected_kinds
        assert all(r.version >= 1 for r in records)
