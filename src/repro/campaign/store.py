"""Content-addressed trial persistence: one append-only file behind an offset index.

A run directory's store is two files (docs/CAMPAIGN.md):

- ``trials.jsonl`` — one JSON record per line, in the compact wire
  encoding::

      {"key": "<sha256>", "spec": {...fingerprint...}, "wire": [...]}

  (see :meth:`repro.sim.outcome.Outcome.to_wire`). Every reader — the
  loader, compaction, ``doctor`` and ``check`` — reads lines through
  :func:`scan_records` / :func:`decode_record`, so all agree on what a
  line is. Any other line (the pre-wire ``"outcome"``-dict record
  included) is a miss: every trial is recomputable from its spec, so
  the store is a cache and a line it cannot serve costs one recompute.
- ``store-index.json`` — the persisted offset index, ``{"v": 2,
  "size": W, "skipped": S, "entries": {key: [offset, length]}}``. *W*
  is the *synced watermark*: the byte offset up to which the entries
  (and *S*, the unusable lines) describe the file. Watermarks, not raw
  file sizes: another process's records interleave with ours, and an
  index claiming bytes it never scanned would hide them from the next
  load. So an append that starts past the watermark first indexes the
  gap another writer left.

Load reads the index, then scans only the bytes past the watermark; a
file shorter than its watermark — or with no line boundary there — was
rewritten behind the index and is rescanned in full. Payloads stay on
disk and are seek-read (:meth:`TrialStore.get`, or the daemon's
:meth:`TrialStore.wire_text`), so a store of millions of trials costs a
long-lived daemon an index entry, not a resident outcome, per record.
The index is a pure cache: deleting it makes the next load a full scan
(which is how a store written before the index existed is first read),
and it is rewritten atomically (tmp + rename) on close and compaction.

Append-only makes the store crash-safe by construction — an
interrupted run leaves at most one torn final line, which the reader
skips (with a warning count) instead of failing, so a restarted
``repro-ugf report`` resumes from every fully persisted trial. A final
line that is a complete record merely missing its newline is served.
Records with an unknown shape are likewise skipped, which doubles as
forward compatibility: a newer writer never breaks an older reader.

Each append is one ``write()`` of full lines (readers can never
observe a half-record except after a crash mid-write), then ``flush``
+ ``os.fsync`` so the bytes are on disk — not just in the OS buffer —
before the put returns, which is what resumability rests on. A failed
``fsync`` retries with backoff, re-writing the batch each time (after a
writeback error the buffered bytes may be gone; readers resolve the
copies last-write-wins): a transiently failing disk is absorbed, a
persistently failing one raises. The first append of
a session newline-terminates any torn tail a crash left behind so the
damage never spreads into fresh records (docs/ROBUSTNESS.md). On POSIX
the append additionally holds an exclusive ``flock`` on the store
file, so concurrent campaigns (two terminals, a CI matrix sharing a
cache volume) cannot interleave their lines; where ``fcntl`` is
unavailable the append runs unlocked — warned once per process and
counted (``store.unlocked_appends``) rather than silently.
:meth:`TrialStore.put_many` amortises the lock/write/fsync over a
whole batch — one fsync per batch, the cost that dominates a sweep of
short trials — while keeping the one-line-per-record framing.

:meth:`TrialStore.compact` rewrites the file keeping only the latest
record per key, dropping superseded duplicates, unusable lines, and
explicitly dropped keys, then rewrites the index. It is the only code
besides the append that writes the store file, and it rewrites in
place (atomic tmp + rename), so it needs exclusive ownership of the
directory — a concurrent writer's later appends would land in the
unlinked file. Only the operator runs it, through ``repro-ugf doctor
--repair``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
import warnings
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

try:  # POSIX-only; elsewhere appends are unlocked (warned + counted).
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.campaign.retry import RetryPolicy
from repro.errors import CampaignError
from repro.sim.outcome import Outcome

__all__ = [
    "TrialStore",
    "CompactionReport",
    "STORE_FILENAME",
    "INDEX_FILENAME",
    "encode_record",
    "decode_record",
    "scan_records",
    "RecordDefect",
]

STORE_FILENAME = "trials.jsonl"

INDEX_FILENAME = "store-index.json"

#: Offset-index schema version (v1 indexed the retired sharded layout).
INDEX_VERSION = 2

#: Durability retries per batch: ``fsync`` gets four tries, waiting
#: 0.01, 0.02 and 0.04 s between them, before the append fails.
_FSYNC_POLICY = RetryPolicy(
    max_retries=3, base_backoff=0.01, backoff_factor=2.0, jitter=0.0
)


# -- record framing ------------------------------------------------------------


def encode_record(key: str, fingerprint: dict[str, Any], wire: list[Any]) -> str:
    """One store line (no trailing newline) for a wire-format record.

    ``json.dumps`` escapes non-ASCII, so the line's length in characters
    is its length in bytes — what the offset index records.
    """
    return json.dumps(
        {"key": key, "spec": fingerprint, "wire": wire}, separators=(",", ":")
    )


class RecordDefect(ValueError):
    """Why a store line is not a servable record.

    :attr:`kind` is the ``doctor`` finding: ``corrupt-line``,
    ``torn-tail`` or ``foreign-record``.
    """

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(detail)
        self.kind = kind


def decode_record(line: "str | bytes") -> tuple[str, dict[str, Any], list[Any]]:
    """``(key, fingerprint, wire)`` of one store line.

    Raises :class:`RecordDefect` for anything else. One ``json.loads``
    plus shape checks — no hashing and no outcome decode, so it stays
    the whole per-record cost of a load or a seek-read.
    """
    try:
        record = json.loads(line)
    except (ValueError, RecursionError):  # JSONDecodeError, UnicodeDecodeError, deep nesting
        raise RecordDefect(
            "corrupt-line", "not valid JSON; readers skip it (data lost)"
        ) from None
    if isinstance(record, dict):
        key = record.get("key")
        fingerprint = record.get("spec")
        wire = record.get("wire")
        if isinstance(key, str) and isinstance(fingerprint, dict) and isinstance(wire, list):
            return key, fingerprint, wire
    raise RecordDefect("foreign-record", "not a wire trial record; readers skip it")


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


@dataclass(frozen=True, slots=True)
class CompactionReport:
    """What one :meth:`TrialStore.compact` pass rewrote."""

    records_kept: int = 0
    #: Superseded rewrites of keys that survive (last write wins).
    duplicates_dropped: int = 0
    #: Unusable lines (corrupt, torn, foreign) removed from disk.
    corrupt_dropped: int = 0
    #: Records of the *drop_keys* the caller named: ``doctor`` drops each
    #: key whose latest record it cannot serve (mis-addressed, bad wire).
    unservable_dropped: int = 0
    bytes_reclaimed: int = 0

    @property
    def dropped(self) -> int:
        return (
            self.duplicates_dropped
            + self.corrupt_dropped
            + self.unservable_dropped
        )

    def summary(self) -> str:
        return (
            f"compacted {STORE_FILENAME}: kept {self.records_kept}, "
            f"dropped {self.duplicates_dropped} duplicate(s), "
            f"{self.corrupt_dropped} corrupt, "
            f"{self.unservable_dropped} unservable; "
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


class TrialStore:
    """Content-addressed, append-only persistence for outcomes.

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

    *backend* selects nothing: there is one layout. It accepts exactly
    ``"auto"``, ``"jsonl"`` and ``"sharded"`` and stays only because the
    frozen benchmark suite passes it (``benchmarks/suite/runner.py``,
    ``layers.py``); ROADMAP item 2's benchmark change deletes it.
    """

    def __init__(
        self,
        cache_dir: "str | os.PathLike",
        *,
        metrics=None,
        injector=None,
        backend: str = "auto",
    ) -> None:
        if backend not in ("auto", "jsonl", "sharded"):
            raise CampaignError(
                f"unknown store backend {backend!r} (the store has one "
                "layout; 'auto', 'jsonl' and 'sharded' all name it)"
            )
        self.cache_dir = pathlib.Path(cache_dir)
        self.path = self.cache_dir / STORE_FILENAME
        self.index_path = self.cache_dir / INDEX_FILENAME
        self.metrics = metrics
        self.injector = injector
        #: Unusable lines the last load found (every :class:`RecordDefect`).
        self.skipped_lines = 0
        #: key -> (byte offset, record length); None until loaded.
        self._entries: dict[str, Any] | None = None
        #: The synced watermark, and the unusable lines below it.
        self._size = 0
        self._skipped = 0
        self._dirty = False
        self._append_fh = None
        self._reader = None
        self._tail_checked = False
        #: Offset -> wire start (None: not found yet) of lines checked or appended here.
        self._checked: dict[int, int | None] = {}

    def store_files(self) -> list[pathlib.Path]:
        """``[trials.jsonl]`` once it exists (the benchmark suite sizes
        the store through it)."""
        return [self.path] if self.path.exists() else []

    # -- loading -----------------------------------------------------------------

    def _ensure_loaded(self) -> dict[str, Any]:
        if self._entries is None:
            if self.metrics is not None:
                with self.metrics.span("store.load"):
                    self._load()
                self.metrics.count("store.records_loaded", len(self._entries))
                if self.skipped_lines:
                    self.metrics.count("store.lines_skipped", self.skipped_lines)
            else:
                self._load()
        assert self._entries is not None
        return self._entries

    def _load(self, *, full: bool = False) -> None:
        """Read the index (unless *full*), then scan past its watermark."""
        self._close_reader()
        self._checked = {}
        index = None if full else self._read_index()
        if index is None:
            self._entries, self._size, self._skipped = {}, 0, 0
        else:
            self._entries = index["entries"]
            self._size, self._skipped = index["size"], index["skipped"]
        indexed = self._size
        torn = self._scan(self._size)
        self.skipped_lines = self._skipped + torn
        self._dirty = self._size != indexed

    def _read_index(self) -> "dict[str, Any] | None":
        """The persisted index, or None when absent, unusable, or no
        longer describing the file (no line boundary at its watermark)."""
        try:
            index = json.loads(self.index_path.read_bytes())
            size = index["size"]
            if (
                index["v"] != INDEX_VERSION
                or not isinstance(size, int)
                or not isinstance(index["skipped"], int)
                or not isinstance(index["entries"], dict)
            ):
                return None
            if size:
                with self.path.open("rb") as fh:
                    fh.seek(size - 1)
                    if fh.read(1) != b"\n":
                        return None
        except (OSError, ValueError, KeyError, TypeError, RecursionError):
            return None
        return index

    def _scan(self, start: int, end: "int | None" = None) -> int:
        """Index the records in bytes ``[start, end)`` of the file (*end*
        None = through EOF) and move the watermark past the last newline.

        Returns the unusable lines on the unterminated final line: it
        stays past the watermark (indexed if it is a complete record) so
        the next scan reads it again once it is terminated.
        """
        try:
            with self.path.open("rb") as fh:
                fh.seek(start)
                data = fh.read() if end is None else fh.read(end - start)
        except FileNotFoundError:
            return 0
        entries = self._entries
        assert entries is not None
        synced = start + data.rfind(b"\n") + 1
        torn = 0
        for _line_no, offset, raw, item in scan_records(data, start):
            if not isinstance(item, RecordDefect):
                # Last write wins; duplicates are harmless (the trial is
                # deterministic, so they are identical).
                entries[item[0]] = (offset, len(raw))
            elif offset < synced:
                self._skipped += 1
            else:
                torn += 1
        self._size = synced
        return torn

    # -- queries -----------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._ensure_loaded()

    def __len__(self) -> int:
        return len(self._ensure_loaded())

    def get(self, key: str) -> Outcome | None:
        """The cached outcome for *key*, or None on a miss.

        A record whose wire fails to deserialise (e.g. hand-edited) is
        a miss, counted as ``store.corrupt_records``; the recompute's
        append wins from then on, and ``doctor --repair`` removes the
        bad line.
        """
        entry = self._ensure_loaded().get(key)
        if entry is None:
            return None
        wire = self._seek_read(key, entry)
        if wire is None:
            # The bytes under this entry no longer hold this record: the
            # file was rewritten behind the index. Rescan it in full
            # once rather than serve garbage.
            self._load(full=True)
            entry = self._entries.get(key)
            wire = None if entry is None else self._seek_read(key, entry)
            if wire is None:
                return None
        try:
            return Outcome.from_wire(wire)
        except (KeyError, TypeError, ValueError):
            if self.metrics is not None:
                self.metrics.count("store.corrupt_records")
            return None

    def _seek_read(self, key: str, entry: Any) -> list[Any] | None:
        """The wire stored at *entry*, or None unless it is *key*'s."""
        try:
            found, _fingerprint, wire = decode_record(self._read_line(entry))
        except (OSError, TypeError, ValueError):  # RecordDefect is a ValueError
            return None
        return wire if found == key else None

    def _read_line(self, entry: Any) -> bytes:
        offset, length = entry
        if self._reader is None:
            self._reader = self.path.open("rb")
        self._reader.seek(offset)
        return self._reader.read(length)

    def wire_text(self, key: str) -> bytes | None:
        """*key*'s wire as its line's bytes, which are a frame's ``to_wire()``
        text; None if the line does not start as *key*'s record or fails
        its first read's full check (decode, ``from_wire``, canonical dump),
        uncounted: :meth:`get` then serves or counts it."""
        entry = self._ensure_loaded().get(key)
        if entry is None:
            return None
        head, offset = b'{"key":"%s","spec":' % key.encode(), entry[0]
        try:
            line = self._read_line(entry)
            if not line.startswith(head):
                return None
            start = self._checked.get(offset)
            if start is None:
                _fingerprint, end = json.JSONDecoder().raw_decode(line.decode("ascii"), len(head))
                start = end + len(b',"wire":')
                if offset not in self._checked:
                    found, _fingerprint, wire = decode_record(line)
                    Outcome.from_wire(wire)
                    canonical = json.dumps(wire, separators=(",", ":")).encode()
                    if found != key or line[start:-1] != canonical:
                        return None
                self._checked[offset] = start
        except (OSError, LookupError, TypeError, ValueError, RecursionError):
            return None
        return line[start:-1]

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
        records = [
            (key, encode_record(key, fingerprint, outcome.to_wire()))
            for key, fingerprint, outcome in items
        ]
        if not records:
            return
        entries = self._ensure_loaded()
        metrics = self.metrics
        append_t0 = time.perf_counter() if metrics is not None else 0.0
        start = self._append([line for _, line in records])
        if start > self._size:
            # Another process appended in [watermark, start): index that
            # gap now — those bytes are fully flushed (they precede our
            # locked append), so this read is race-free, and the index
            # we persist stays complete under concurrent writers.
            self._scan(self._size, start)
        cursor = start
        for key, line in records:
            entries[key] = (cursor, len(line))
            self._checked[cursor] = None
            cursor += len(line) + 1
        self._size = cursor
        self._dirty = True
        if metrics is not None:
            metrics.observe_span("store.append", time.perf_counter() - append_t0)
            metrics.count("store.records_appended", len(records))

    def _append(self, lines: list[str]) -> int:
        """Append *lines* as one locked write + durable fsync; returns
        the byte offset of the copy that synced.

        A failed ``fsync`` is retried with backoff, each attempt writing
        the whole batch again: after a writeback error Linux may drop
        the dirty pages or mark them clean, so a bare second ``fsync``
        can succeed with nothing on disk. A persistently failing disk
        raises ``CampaignError``: durability is a contract, not a hope.
        """
        if self._append_fh is None:
            try:
                self.cache_dir.mkdir(parents=True, exist_ok=True)
                self._append_fh = self.path.open("ab")
            except OSError as exc:
                raise CampaignError(
                    f"cannot write trial cache at {self.path}: {exc}"
                ) from exc
        fh = self._append_fh
        fd = fh.fileno()
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        else:
            _note_unlocked_append(self.metrics)
        try:
            # Offsets are only meaningful under the lock: another
            # process may have appended since our last write.
            fh.seek(0, os.SEEK_END)
            if not self._tail_checked:
                self._terminate_torn_tail()
                self._tail_checked = True
            payload = ("\n".join(lines) + "\n").encode()
            for attempt in range(_FSYNC_POLICY.max_retries + 1):
                start = fh.tell()
                # One write() of whole lines: no torn records mid-batch.
                fh.write(payload)
                fh.flush()
                try:
                    if self.injector is not None:
                        self.injector.check_fsync(attempt)
                    os.fsync(fd)
                    break
                except OSError as exc:
                    if self.metrics is not None:
                        self.metrics.count("store.fsync_retries")
                    if attempt == _FSYNC_POLICY.max_retries:
                        raise CampaignError(
                            f"cannot make the trial store durable after "
                            f"{attempt + 1} fsync attempts: {exc}"
                        ) from exc
                    _FSYNC_POLICY.wait(attempt + 1, "fsync")
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
        fh = self._append_fh
        if fh is None or fh.tell() == 0:
            return
        with self.path.open("rb") as raw:
            raw.seek(-1, os.SEEK_END)
            terminated = raw.read(1) == b"\n"
        if not terminated:
            fh.write(b"\n")
            fh.flush()
            if self.metrics is not None:
                self.metrics.count("store.torn_tails_terminated")

    # -- maintenance -------------------------------------------------------------

    def compact(
        self, *, drop_keys: "frozenset[str] | set[str]" = frozenset()
    ) -> CompactionReport:
        """Rewrite the file keeping the latest record per key, then the index.

        Superseded duplicates, unusable lines (every
        :class:`RecordDefect`) and *drop_keys* records are removed. The
        rewrite is atomic — tmp file in the same directory, fsync,
        rename — so a crash mid-compaction leaves the original
        untouched. Requires exclusive ownership of the directory (no
        concurrent writer); ``repro-ugf doctor --repair`` is the
        operator entry point.
        """
        self._ensure_loaded()
        # Neither handle may survive the rename: the append handle
        # would keep writing to the unlinked inode.
        self._close_handles()
        if not self.path.exists():
            return CompactionReport()
        data = self.path.read_bytes()
        latest: dict[str, bytes] = {}
        duplicates = corrupt = unservable = 0
        for _line_no, _offset, raw, item in scan_records(data):
            if isinstance(item, RecordDefect):
                corrupt += 1
                continue
            key = item[0]
            if key in drop_keys:
                unservable += 1
                continue
            if key in latest:
                duplicates += 1
            latest[key] = raw.strip()
        tmp = self.path.with_suffix(self.path.suffix + ".compact-tmp")
        entries: dict[str, Any] = {}
        cursor = 0
        with tmp.open("wb") as fh:
            for key, raw in latest.items():
                fh.write(raw + b"\n")
                entries[key] = (cursor, len(raw))
                cursor += len(raw) + 1
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._entries, self._size, self._skipped = entries, cursor, 0
        self._checked = {}
        self.skipped_lines = 0
        self._write_index()
        report = CompactionReport(
            records_kept=len(latest),
            duplicates_dropped=duplicates,
            corrupt_dropped=corrupt,
            unservable_dropped=unservable,
            bytes_reclaimed=max(0, len(data) - cursor),
        )
        if self.metrics is not None:
            self.metrics.count("store.compactions")
            if report.dropped:
                self.metrics.count("store.compact_dropped", report.dropped)
        return report

    def _write_index(self) -> None:
        """Persist the offset index atomically (tmp + rename)."""
        index = {
            "v": INDEX_VERSION,
            "size": self._size,
            "skipped": self._skipped,
            "entries": self._entries,
        }
        tmp = self.index_path.with_suffix(".json.tmp")
        try:
            tmp.write_text(json.dumps(index, separators=(",", ":")), encoding="utf-8")
            os.replace(tmp, self.index_path)
        except OSError:
            # The index is a cache; failing to persist it only costs
            # the next load a full scan.
            return
        self._dirty = False

    def _close_reader(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None

    def _close_handles(self) -> None:
        self._close_reader()
        if self._append_fh is not None:
            self._append_fh.close()
            self._append_fh = None
        self._tail_checked = False

    def close(self) -> None:
        if self._dirty:
            self._write_index()
        self._close_handles()

    def __enter__(self) -> "TrialStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
