"""Content-addressed trial persistence over pluggable store backends.

The store is split in two layers (docs/SERVICE.md):

- :class:`TrialStore` — the facade every consumer (campaign, doctor,
  auditor, the campaign service) talks to: outcome (de)serialisation,
  metrics, corrupt-record accounting. Its API is backend-agnostic.
- a :class:`StoreBackend` — the persistence engine behind it. Two
  ship: ``jsonl`` (one append-only ``trials.jsonl``, the original
  layout, still the default) and ``sharded``
  (:class:`~repro.campaign.sharded.ShardedBackend`: N jsonl shards
  keyed by content-address prefix with a persisted offset index —
  the layout the long-lived campaign service daemon owns).

Record framing is identical in every backend: one JSON record per
line, in the compact wire encoding::

    {"key": "<sha256>", "spec": {...fingerprint...}, "wire": [...]}

(see :meth:`repro.sim.outcome.Outcome.to_wire`). Every reader — both
backends, compaction, ``doctor`` and ``check`` — reads lines through
:func:`scan_records` / :func:`decode_record`, so all agree on what a
line is. Pre-wire ``"outcome"``-dict records are skipped like any
unusable line until ``repro-ugf doctor --repair`` migrates them.

Append-only makes the store crash-safe by construction — an
interrupted run leaves at most one torn final line per file, which the
reader skips (with a warning count) instead of failing, so a restarted
``repro-ugf report`` resumes from every fully persisted trial. A final
line that is a complete record merely missing its newline is served.
Records with an unknown shape are likewise skipped, which doubles as
forward compatibility: a newer writer never breaks an older reader.

Each append is one ``write()`` of full lines (readers can never
observe a half-record except after a crash mid-write), then ``flush``
+ ``os.fsync`` so the bytes are on disk — not just in the OS buffer —
before the put returns, which is what resumability rests on. The
``fsync`` itself retries with backoff (a transiently failing disk is
absorbed, a persistently failing one raises), and the first append of
a session newline-terminates any torn tail a crash left behind so the
damage never spreads into fresh records (docs/ROBUSTNESS.md). On POSIX
the append additionally holds an exclusive ``flock`` on the store
file, so concurrent campaigns (two terminals, a CI matrix sharing a
cache volume) cannot interleave their lines; where ``fcntl`` is
unavailable the append runs unlocked — warned once per process and
counted (``store.unlocked_appends``) rather than silently.
:meth:`TrialStore.put_many` amortises the lock/write/fsync over a
whole batch — the fsync was a measurable per-trial cost on sweeps of
short trials — while keeping the one-line-per-record framing.

Backends additionally support :meth:`StoreBackend.compact`: rewrite
each file keeping only the latest record per key, dropping superseded
duplicates, unusable lines, and explicitly dropped keys. It is the only
code besides :class:`AppendFile` that writes a store file, and it
rewrites in place (atomic tmp + rename), so it needs exclusive
ownership of the directory — a concurrent writer's later appends would
land in the unlinked file. Only the operator runs it, through
``repro-ugf doctor --repair``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Protocol

try:  # POSIX-only; elsewhere appends are unlocked (warned + counted).
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.errors import CampaignError
from repro.sim.outcome import Outcome

__all__ = [
    "TrialStore",
    "StoreBackend",
    "JsonlBackend",
    "AppendFile",
    "CompactionReport",
    "STORE_FILENAME",
    "STORE_BACKENDS",
    "discover_store_files",
    "resolve_store_backend",
    "encode_record",
    "decode_record",
    "scan_records",
    "RecordDefect",
]

STORE_FILENAME = "trials.jsonl"

#: Shard files of the sharded backend (see repro.campaign.sharded).
SHARD_GLOB = "trials-*.jsonl"

#: Store-backend names accepted by :class:`TrialStore` and the CLI.
#: ``auto`` detects the on-disk layout (sharded if shard files exist).
STORE_BACKENDS = ("auto", "jsonl", "sharded")

#: Durability attempts per batch: ``fsync`` gets this many tries
#: (small exponential backoff between them) before the append fails.
_FSYNC_ATTEMPTS = 4

#: Base backoff between fsync attempts, seconds (doubles per attempt).
_FSYNC_BACKOFF = 0.01


# -- record framing (shared by every backend) ----------------------------------


def encode_record(key: str, fingerprint: dict[str, Any], wire: list[Any]) -> str:
    """One store line (no trailing newline) for a wire-format record."""
    return json.dumps(
        {"key": key, "spec": fingerprint, "wire": wire}, separators=(",", ":")
    )


class RecordDefect(ValueError):
    """Why a store line is not a servable record.

    :attr:`kind` is the ``doctor`` finding: ``corrupt-line``,
    ``torn-tail``, ``foreign-record`` or ``legacy-record`` — a pre-wire
    record, whose ``(key, fingerprint, outcome dict)`` :attr:`legacy`
    holds for the migration.
    """

    def __init__(self, kind: str, detail: str, legacy: Any = None) -> None:
        super().__init__(detail)
        self.kind = kind
        self.legacy = legacy


def decode_record(line: "str | bytes") -> tuple[str, dict[str, Any], list[Any]]:
    """``(key, fingerprint, wire)`` of one store line.

    Raises :class:`RecordDefect` for anything else. One ``json.loads``
    plus shape checks — no hashing and no outcome decode, so it stays
    the whole per-record cost of a load or a sharded seek-read.
    """
    try:
        record = json.loads(line)
    except ValueError:  # JSONDecodeError, UnicodeDecodeError
        raise RecordDefect(
            "corrupt-line", "not valid JSON; readers skip it (data lost)"
        ) from None
    if isinstance(record, dict):
        key = record.get("key")
        fingerprint = record.get("spec")
        wire = record.get("wire")
        if isinstance(key, str) and isinstance(fingerprint, dict):
            if isinstance(wire, list):
                return key, fingerprint, wire
            outcome = record.pop("outcome", None)
            if wire is None and isinstance(outcome, dict):
                raise RecordDefect(
                    "legacy-record",
                    "pre-wire outcome-dict record; readers skip it until "
                    "doctor --repair migrates it",
                    (key, fingerprint, outcome),
                )
    raise RecordDefect("foreign-record", "not a trial record; readers skip it")


def scan_records(data: bytes, start: int = 0) -> Iterator[tuple[int, int, bytes, Any]]:
    """``(line_no, offset, raw, item)`` per non-blank line of *data*.

    *offset* counts from *start* (where *data* was read from), *raw*
    lacks the newline, and *item* is the :func:`decode_record` tuple or
    the :class:`RecordDefect` it raised. The one tail rule: an
    unterminated final line is a record if complete, else a torn tail.
    """
    line_no = 0
    cursor = 0
    size = len(data)
    while cursor < size:
        newline = data.find(b"\n", cursor)
        end = size if newline < 0 else newline
        line_no += 1
        raw = data[cursor:end]
        if raw.strip():
            try:
                item: Any = decode_record(raw)
            except RecordDefect as defect:
                item = defect
                if newline < 0 and defect.kind == "corrupt-line":
                    item = RecordDefect(
                        "torn-tail",
                        f"{len(raw)} trailing byte(s) at offset "
                        f"{start + cursor} are a torn record (crash mid-append)",
                    )
            yield line_no, start + cursor, raw, item
        cursor = end + 1


def discover_store_files(run_dir: "str | os.PathLike") -> list[pathlib.Path]:
    """Every store file a run directory holds, in scan order.

    A jsonl-backend directory has ``trials.jsonl``; a sharded one has
    ``trials-XX.jsonl`` shards. Both can coexist transiently (a cache
    migrated between backends); consumers that work "against the
    protocol, not the file" — doctor, the auditor — scan all of them.
    """
    run_dir = pathlib.Path(run_dir)
    files: list[pathlib.Path] = []
    single = run_dir / STORE_FILENAME
    if single.exists():
        files.append(single)
    files.extend(sorted(run_dir.glob(SHARD_GLOB)))
    return files


@dataclass(frozen=True, slots=True)
class CompactionReport:
    """What one :meth:`StoreBackend.compact` pass rewrote."""

    files: int = 0
    records_kept: int = 0
    #: Superseded rewrites of keys that survive (last write wins).
    duplicates_dropped: int = 0
    #: Unusable lines (corrupt, torn, foreign, legacy) removed from disk.
    corrupt_dropped: int = 0
    #: Records removed because their key was explicitly quarantined.
    quarantined_dropped: int = 0
    bytes_reclaimed: int = 0

    @property
    def dropped(self) -> int:
        return (
            self.duplicates_dropped
            + self.corrupt_dropped
            + self.quarantined_dropped
        )

    def merge(self, other: "CompactionReport") -> "CompactionReport":
        return CompactionReport(
            files=self.files + other.files,
            records_kept=self.records_kept + other.records_kept,
            duplicates_dropped=self.duplicates_dropped + other.duplicates_dropped,
            corrupt_dropped=self.corrupt_dropped + other.corrupt_dropped,
            quarantined_dropped=self.quarantined_dropped
            + other.quarantined_dropped,
            bytes_reclaimed=self.bytes_reclaimed + other.bytes_reclaimed,
        )

    def summary(self) -> str:
        return (
            f"compacted {self.files} file(s): kept {self.records_kept}, "
            f"dropped {self.duplicates_dropped} duplicate(s), "
            f"{self.corrupt_dropped} corrupt, "
            f"{self.quarantined_dropped} quarantined; "
            f"reclaimed {self.bytes_reclaimed} byte(s)"
        )


#: One warning per process when appends cannot be flock-protected; the
#: ``store.unlocked_appends`` counter still ticks per append batch.
_unlocked_warned = False


def _note_unlocked_append(metrics) -> None:
    global _unlocked_warned
    if metrics is not None:
        metrics.count("store.unlocked_appends")
    if not _unlocked_warned:
        _unlocked_warned = True
        warnings.warn(
            "fcntl is unavailable on this platform: trial-store appends run "
            "without file locking — concurrent campaigns sharing this cache "
            "directory can interleave (and corrupt) records",
            RuntimeWarning,
            stacklevel=4,
        )


class AppendFile:
    """One append-only jsonl file: flock + torn-tail healing + fsync.

    The durability unit shared by every backend — a jsonl store has
    one, a sharded store has one per shard. Appends happen under an
    exclusive ``flock`` (where available), the first append of a
    session newline-terminates any torn tail a crash left, and each
    batch is one write + durable fsync.
    """

    def __init__(
        self, path: pathlib.Path, *, metrics=None, injector=None
    ) -> None:
        self.path = path
        self.metrics = metrics
        self.injector = injector
        self._fh = None
        self._tail_checked = False

    def append(self, lines: list[str]) -> int:
        """Append *lines* as one locked write; returns the byte offset
        the batch started at (for offset indexes)."""
        if not lines:
            return self.path.stat().st_size if self.path.exists() else 0
        if self._fh is None:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("a", encoding="utf-8")
            except OSError as exc:
                raise CampaignError(
                    f"cannot write trial cache at {self.path}: {exc}"
                ) from exc
        fd = self._fh.fileno()
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        else:
            _note_unlocked_append(self.metrics)
        try:
            # Offsets are only meaningful under the lock: another
            # process may have appended since our last write.
            self._fh.seek(0, os.SEEK_END)
            if not self._tail_checked:
                self._terminate_torn_tail()
                self._tail_checked = True
            start = self._fh.tell()
            # One write() of whole lines: no torn records mid-batch.
            self._fh.write("\n".join(lines) + "\n")
            self._fh.flush()
            self._durable_fsync(fd)
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
        if self.metrics is not None:
            self.metrics.count("store.fsyncs")
        return start

    def _terminate_torn_tail(self) -> None:
        """Newline-terminate a torn final record before appending.

        A crash mid-append can leave the file ending in a fragment with
        no trailing newline; appending straight onto it would merge the
        fragment with the next record and corrupt *that* too. Writing
        one ``"\\n"`` first confines the damage to the already-lost
        fragment (which the reader skips), so torn tails never compound
        across sessions. ``repro-ugf doctor --repair`` removes the dead
        fragment outright.
        """
        if self._fh is None or self._fh.tell() == 0:
            return
        with self.path.open("rb") as raw:
            raw.seek(-1, os.SEEK_END)
            terminated = raw.read(1) == b"\n"
        if not terminated:
            self._fh.write("\n")
            self._fh.flush()
            if self.metrics is not None:
                self.metrics.count("store.torn_tails_terminated")

    def _durable_fsync(self, fd: int) -> None:
        """``fsync`` with a bounded retry (exponential backoff).

        A transiently failing disk — or an injected ``store.fsync``
        fault — is absorbed by retrying the sync; the written bytes
        are still in the file object/OS buffer, so no record is lost.
        A persistently failing disk still raises ``CampaignError``
        after the last attempt: durability is a contract, not a hope.
        """
        for attempt in range(_FSYNC_ATTEMPTS):
            try:
                if self.injector is not None:
                    self.injector.check_fsync(attempt)
                os.fsync(fd)
                return
            except OSError as exc:
                if self.metrics is not None:
                    self.metrics.count("store.fsync_retries")
                if attempt + 1 == _FSYNC_ATTEMPTS:
                    raise CampaignError(
                        f"cannot make the trial store durable after "
                        f"{_FSYNC_ATTEMPTS} fsync attempts: {exc}"
                    ) from exc
                time.sleep(_FSYNC_BACKOFF * (2 ** attempt))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._tail_checked = False


def compact_file(
    path: pathlib.Path, drop_keys: "frozenset[str] | set[str]" = frozenset()
) -> tuple[CompactionReport, dict[str, tuple[int, int]]]:
    """Rewrite one store file keeping the latest record per key.

    Returns the per-file :class:`CompactionReport` and the surviving
    records' ``key -> (offset, length)`` map (for offset indexes).
    Superseded duplicates, unusable lines (every :class:`RecordDefect`)
    and *drop_keys* records are removed. The rewrite is atomic — tmp file
    in the same directory, fsync, rename — so a crash mid-compaction
    leaves the original untouched.
    """
    if not path.exists():
        return CompactionReport(), {}
    data = path.read_bytes()
    latest: dict[str, bytes] = {}
    duplicates = 0
    corrupt = 0
    quarantined = 0
    for _line_no, _offset, raw, item in scan_records(data):
        if isinstance(item, RecordDefect):
            corrupt += 1
            continue
        key = item[0]
        if key in drop_keys:
            quarantined += 1
            continue
        if key in latest:
            duplicates += 1
        latest[key] = raw.strip()
    tmp = path.with_suffix(path.suffix + ".compact-tmp")
    offsets: dict[str, tuple[int, int]] = {}
    cursor = 0
    with tmp.open("wb") as fh:
        for key, raw in latest.items():
            fh.write(raw + b"\n")
            offsets[key] = (cursor, len(raw))
            cursor += len(raw) + 1
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    report = CompactionReport(
        files=1,
        records_kept=len(latest),
        duplicates_dropped=duplicates,
        corrupt_dropped=corrupt,
        quarantined_dropped=quarantined,
        bytes_reclaimed=max(0, len(data) - cursor),
    )
    return report, offsets


# -- the backend protocol ------------------------------------------------------


class StoreBackend(Protocol):
    """Persistence engine behind a :class:`TrialStore`.

    Payloads are raw outcome wire lists, never :class:`Outcome`
    objects; (de)serialisation is the facade's job. Implementations:
    :class:`JsonlBackend`, :class:`~repro.campaign.sharded.ShardedBackend`.
    """

    #: Registry name (``"jsonl"`` / ``"sharded"``).
    name: str
    #: Lines dropped while loading (every :class:`RecordDefect`).
    skipped_lines: int

    @property
    def primary_path(self) -> pathlib.Path:
        """The store file chaos tearing and display messages target."""
        ...

    def store_files(self) -> list[pathlib.Path]:
        """Every file currently backing this store."""
        ...

    def load(self) -> None:
        """Build (or refresh) the in-memory key index from disk."""
        ...

    def __len__(self) -> int: ...

    def contains(self, key: str) -> bool: ...

    def get_payload(self, key: str) -> Any | None: ...

    def put(self, records: list[tuple[str, str, Any]]) -> None:
        """Durably append ``(key, line, payload)`` records."""
        ...

    def forget(self, key: str) -> None:
        """Drop *key* from the in-memory index only."""
        ...

    def compact(
        self, drop_keys: "frozenset[str] | set[str]" = frozenset()
    ) -> CompactionReport:
        """Rewrite files dropping duplicates/corruption/*drop_keys*."""
        ...

    def close(self) -> None: ...


@dataclass
class JsonlBackend:
    """The original single-file layout: ``<dir>/trials.jsonl``.

    The whole index — key *and* payload — lives in memory after load,
    which is exactly right for run-dir-sized caches; the sharded
    backend trades that for an offset index when the store outgrows
    one file (docs/SERVICE.md).
    """

    cache_dir: pathlib.Path
    metrics: Any = None
    injector: Any = None
    name: str = field(default="jsonl", init=False)
    skipped_lines: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.cache_dir = pathlib.Path(self.cache_dir)
        self.path = self.cache_dir / STORE_FILENAME
        self._file = AppendFile(
            self.path, metrics=self.metrics, injector=self.injector
        )
        self._index: dict[str, Any] | None = None

    @property
    def primary_path(self) -> pathlib.Path:
        return self.path

    def store_files(self) -> list[pathlib.Path]:
        return [self.path] if self.path.exists() else []

    def load(self) -> None:
        index: dict[str, Any] = {}
        self.skipped_lines = 0
        if self.path.exists():
            for _line_no, _offset, _raw, item in scan_records(
                self.path.read_bytes()
            ):
                if isinstance(item, RecordDefect):
                    self.skipped_lines += 1
                else:
                    # Last write wins; duplicates are harmless (the
                    # trial is deterministic, so they are identical).
                    index[item[0]] = item[2]
        self._index = index

    def _loaded(self) -> dict[str, Any]:
        if self._index is None:
            self.load()
        assert self._index is not None
        return self._index

    def __len__(self) -> int:
        return len(self._loaded())

    def contains(self, key: str) -> bool:
        return key in self._loaded()

    def get_payload(self, key: str) -> Any | None:
        return self._loaded().get(key)

    def put(self, records: list[tuple[str, str, Any]]) -> None:
        self._file.append([line for _, line, _ in records])
        index = self._loaded()
        for key, _line, payload in records:
            index[key] = payload

    def forget(self, key: str) -> None:
        self._loaded().pop(key, None)

    def compact(
        self, drop_keys: "frozenset[str] | set[str]" = frozenset()
    ) -> CompactionReport:
        # The append handle must not survive the rename: it would keep
        # writing to the unlinked inode.
        self._file.close()
        report, _offsets = compact_file(self.path, drop_keys)
        self.load()
        return report

    def close(self) -> None:
        self._file.close()


def resolve_store_backend(
    cache_dir: "str | os.PathLike",
    backend: str = "auto",
    *,
    metrics=None,
    injector=None,
    shards: int | None = None,
) -> StoreBackend:
    """Construct the backend *backend* names for *cache_dir*.

    ``auto`` keeps existing layouts working untouched: a directory
    holding shard files loads as ``sharded``, anything else as
    ``jsonl`` (including an empty directory — the single file stays
    the default for plain local campaigns).
    """
    if backend not in STORE_BACKENDS:
        raise CampaignError(
            f"unknown store backend {backend!r} (expected one of {STORE_BACKENDS})"
        )
    cache_dir = pathlib.Path(cache_dir)
    if backend == "auto":
        backend = "sharded" if any(cache_dir.glob(SHARD_GLOB)) else "jsonl"
    if backend == "sharded":
        from repro.campaign.sharded import ShardedBackend

        kwargs: dict[str, Any] = {}
        if shards is not None:
            kwargs["shards"] = shards
        return ShardedBackend(
            cache_dir, metrics=metrics, injector=injector, **kwargs
        )
    return JsonlBackend(cache_dir, metrics=metrics, injector=injector)


# -- the facade ----------------------------------------------------------------


class TrialStore:
    """Content-addressed, append-only persistence for outcomes.

    *backend* selects the persistence engine (``"auto"`` — the default
    — detects the on-disk layout; ``"jsonl"`` / ``"sharded"`` force
    one). A :class:`StoreBackend` instance is also accepted directly.

    *metrics* is an optional write-only
    :class:`~repro.obs.registry.MetricsRegistry`: store I/O is timed
    as ``store.load`` / ``store.append`` spans and record counts are
    tracked, so ``repro-ugf stats`` can show where campaign wall-clock
    goes between engine time and persistence.

    *injector* is an optional armed
    :class:`~repro.chaos.inject.FaultInjector`: its ``store.fsync``
    hook sits inside the durability retry loop (so injected fsync
    failures exercise the same bounded-retry path real ``EIO`` takes).
    ``None`` — the default — skips the chaos plane entirely.
    """

    def __init__(
        self,
        cache_dir: "str | os.PathLike",
        *,
        metrics=None,
        injector=None,
        backend: "str | StoreBackend" = "auto",
        shards: int | None = None,
    ) -> None:
        self.cache_dir = pathlib.Path(cache_dir)
        self.metrics = metrics
        self.injector = injector
        if isinstance(backend, str):
            self.backend: StoreBackend = resolve_store_backend(
                self.cache_dir,
                backend,
                metrics=metrics,
                injector=injector,
                shards=shards,
            )
        else:
            self.backend = backend
        self._loaded = False

    @property
    def path(self) -> pathlib.Path:
        """Primary store file (chaos tearing, user messages)."""
        return self.backend.primary_path

    @property
    def skipped_lines(self) -> int:
        """Lines dropped while loading (every :class:`RecordDefect`)."""
        return self.backend.skipped_lines

    def store_files(self) -> list[pathlib.Path]:
        return self.backend.store_files()

    # -- loading -----------------------------------------------------------------

    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        if self.metrics is not None:
            with self.metrics.span("store.load"):
                self.backend.load()
            self.metrics.count("store.records_loaded", len(self.backend))
            if self.backend.skipped_lines:
                self.metrics.count(
                    "store.lines_skipped", self.backend.skipped_lines
                )
        else:
            self.backend.load()
        self._loaded = True

    # -- queries -----------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        self._ensure_loaded()
        return self.backend.contains(key)

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self.backend)

    def get(self, key: str) -> Outcome | None:
        """The cached outcome for *key*, or None on a miss.

        A record whose wire fails to deserialise (e.g. hand-edited) is
        a miss, forgotten in memory and counted as
        ``store.corrupt_records``; the recompute's append wins on the
        next load, and ``doctor --repair`` removes the bad line.
        """
        self._ensure_loaded()
        wire = self.backend.get_payload(key)
        if wire is None:
            return None
        try:
            return Outcome.from_wire(wire)
        except (KeyError, TypeError, ValueError):
            self.backend.forget(key)
            if self.metrics is not None:
                self.metrics.count("store.corrupt_records")
            return None

    # -- writes ------------------------------------------------------------------

    def put(self, key: str, spec_fingerprint: dict[str, Any], outcome: Outcome) -> None:
        """Append one record and make it durable before returning."""
        self.put_many([(key, spec_fingerprint, outcome)])

    def put_many(
        self, items: Iterable[tuple[str, dict[str, Any], Outcome]]
    ) -> None:
        """Append a batch of records under one lock/write/fsync.

        Framing is unchanged — one JSON record per line — so readers,
        the auditor, and crash recovery see exactly what per-record
        puts would have produced; only the durability cost is paid
        once per batch instead of once per trial.
        """
        records: list[tuple[str, str, Any]] = []
        for key, fingerprint, outcome in items:
            wire = outcome.to_wire()
            records.append((key, encode_record(key, fingerprint, wire), wire))
        if not records:
            return
        self._ensure_loaded()
        metrics = self.metrics
        append_t0 = time.perf_counter() if metrics is not None else 0.0
        self.backend.put(records)
        if metrics is not None:
            metrics.observe_span("store.append", time.perf_counter() - append_t0)
            metrics.count("store.records_appended", len(records))

    # -- maintenance -------------------------------------------------------------

    def compact(
        self, *, drop_keys: "frozenset[str] | set[str]" = frozenset()
    ) -> CompactionReport:
        """Rewrite the store dropping duplicate/torn/quarantined records.

        Requires exclusive ownership of the directory (no concurrent
        writer); ``repro-ugf doctor --repair`` is the operator entry
        point.
        """
        self._ensure_loaded()
        report = self.backend.compact(frozenset(drop_keys))
        if self.metrics is not None:
            self.metrics.count("store.compactions")
            if report.dropped:
                self.metrics.count("store.compact_dropped", report.dropped)
        return report

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "TrialStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
