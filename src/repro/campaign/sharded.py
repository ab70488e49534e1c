"""Sharded trial-store backend: N jsonl shards + a persisted offset index.

The layout the campaign service daemon owns (docs/SERVICE.md):

- ``<dir>/trials-00.jsonl`` … ``trials-<S-1>.jsonl`` — append-only
  shard files with exactly the single-file record framing. A record
  lands in the shard its content address names: the first two hex
  digits of the key, modulo the shard count, so lock contention and
  compaction cost divide by S and the placement needs no coordination.
- ``<dir>/store-index.json`` — the persisted offset index: for every
  key, ``(shard file, byte offset, record length)``, plus the shard
  count and a per-shard *synced watermark* — the byte offset up to
  which the entries fully describe the shard. Watermarks, not raw
  file sizes: a concurrent writer's records interleave with ours, and
  an index claiming coverage over bytes it never scanned would make
  the next load miss them. The count matters too: empty shards leave
  no file behind, so the index — not the directory listing — is what
  keeps placement (``key % shards``) stable across sessions.

The index turns reload from "parse every record of every shard" into
"read one JSON file, then parse only the bytes appended since it was
written": on load, a shard whose current size exceeds its indexed size
is scanned from that offset (new records from other sessions are
picked up); a shard *smaller* than its indexed size was rewritten
behind our back (external compaction, truncation) and is rescanned in
full. Unlike the in-memory jsonl backend, payloads stay on disk —
:meth:`get_payload` seek-reads one record — so a store of millions of
trials costs the daemon an index entry, not a resident outcome,
per record.

The index is a pure cache: deleting ``store-index.json`` merely makes
the next load a full scan. It is rewritten atomically (tmp + rename)
on :meth:`close` and after :meth:`compact`.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any

from repro.campaign.store import (
    AppendFile,
    CompactionReport,
    RecordDefect,
    compact_file,
    decode_record,
    scan_records,
)
from repro.errors import CampaignError

__all__ = ["ShardedBackend", "DEFAULT_SHARDS", "INDEX_FILENAME", "shard_of"]

#: Default shard count: plenty of lock/compaction granularity for one
#: daemon without turning a small cache into a directory of stubs.
DEFAULT_SHARDS = 16

INDEX_FILENAME = "store-index.json"

#: Offset-index schema version.
INDEX_VERSION = 1


def shard_of(key: str, shards: int) -> int:
    """The shard a content address lives in (first two hex digits)."""
    try:
        return int(key[:2], 16) % shards
    except ValueError:
        # Foreign keys still deserve a deterministic home.
        return hash(key) % shards


class ShardedBackend:
    """N-shard jsonl store with offset-indexed lazy payload reads.

    Satisfies :class:`~repro.campaign.store.StoreBackend`. *shards*
    fixes the file fan-out for a fresh directory; an existing sharded
    directory keeps the count its index (or, failing that, its highest
    shard file) implies — record placement must stay stable across
    sessions.
    """

    name = "sharded"

    def __init__(
        self,
        cache_dir: "str | os.PathLike",
        *,
        shards: int = DEFAULT_SHARDS,
        metrics=None,
        injector=None,
    ) -> None:
        if shards < 1:
            raise CampaignError(f"shard count must be >= 1, got {shards}")
        self.cache_dir = pathlib.Path(cache_dir)
        self.metrics = metrics
        self.injector = injector
        # Placement (key % shards) must stay stable across sessions, so
        # an existing directory keeps its count: the persisted index is
        # authoritative; without one, the highest shard-file number
        # bounds it from below (empty shards leave no file behind, so
        # *counting* files would under-estimate).
        existing = self._existing_shard_numbers()
        index = self._read_index()
        if index is not None:
            self.shards = index["shards"]
        elif existing:
            self.shards = existing[-1] + 1
        else:
            self.shards = shards
        #: Append handles, opened lazily per shard actually written.
        self._files: dict[int, AppendFile] = {}
        #: key -> (shard id, byte offset, record length in bytes)
        self._entries: dict[str, tuple[int, int, int]] | None = None
        #: Cached read handles, one per shard, opened lazily.
        self._readers: dict[int, Any] = {}
        #: Per-shard watermark: the byte offset up to which _entries
        #: describe the file. Bytes beyond it (another process wrote
        #: them) are scanned when discovered — at append time or on the
        #: next load's tail scan. The *persisted* index records these
        #: watermarks, never raw file sizes, so a concurrently written
        #: store always reloads completely.
        self._synced: dict[int, int] = {}
        self.skipped_lines = 0
        self._index_dirty = False

    # -- layout ------------------------------------------------------------------

    def _shard_path(self, shard: int) -> pathlib.Path:
        return self.cache_dir / f"trials-{shard:02d}.jsonl"

    def _existing_shard_numbers(self) -> list[int]:
        numbers = []
        for path in self.cache_dir.glob("trials-*.jsonl"):
            tail = path.stem[len("trials-") :]
            if tail.isdigit():
                numbers.append(int(tail))
        return sorted(numbers)

    def _shard_numbers(self) -> list[int]:
        """Every shard to scan: our own range plus any foreign-numbered
        shard file on disk (written under a different count — reads
        must still see its records)."""
        found = set(range(self.shards))
        found.update(self._existing_shard_numbers())
        return sorted(found)

    def _file(self, shard: int) -> AppendFile:
        file = self._files.get(shard)
        if file is None:
            file = AppendFile(
                self._shard_path(shard),
                metrics=self.metrics,
                injector=self.injector,
            )
            self._files[shard] = file
        return file

    @property
    def index_path(self) -> pathlib.Path:
        return self.cache_dir / INDEX_FILENAME

    @property
    def primary_path(self) -> pathlib.Path:
        return self._shard_path(0)

    def store_files(self) -> list[pathlib.Path]:
        return [
            self._shard_path(shard)
            for shard in self._shard_numbers()
            if self._shard_path(shard).exists()
        ]

    # -- loading -----------------------------------------------------------------

    def _read_index(self) -> "dict[str, Any] | None":
        """The persisted index, or None when absent/unusable."""
        try:
            raw = json.loads(self.index_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):  # JSONDecodeError, UnicodeDecodeError
            return None
        if (
            not isinstance(raw, dict)
            or raw.get("v") != INDEX_VERSION
            or not isinstance(raw.get("shards"), int)
            or raw["shards"] < 1
            or not isinstance(raw.get("sizes"), dict)
            or not isinstance(raw.get("entries"), dict)
        ):
            return None
        return raw

    def _scan_shard(
        self,
        shard: int,
        entries: dict[str, tuple[int, int, int]],
        *,
        start: int = 0,
        end: "int | None" = None,
    ) -> int:
        """Index every record of one shard in ``[start, end)`` (*end*
        None = through EOF); returns the offset just past the last
        newline — the new synced watermark. A complete final record
        without its newline is indexed but stays past the watermark,
        so the next scan reads it again once it is terminated."""
        path = self._shard_path(shard)
        if not path.exists():
            return start
        with path.open("rb") as fh:
            fh.seek(start)
            data = fh.read() if end is None else fh.read(max(0, end - start))
        for _line_no, offset, raw, item in scan_records(data, start):
            if isinstance(item, RecordDefect):
                self.skipped_lines += 1
            else:
                # Last write wins, same as the jsonl backend.
                entries[item[0]] = (shard, offset, len(raw))
        return start + data.rfind(b"\n") + 1

    def load(self) -> None:
        self.skipped_lines = 0
        self._close_readers()
        self._synced = {}
        entries: dict[str, tuple[int, int, int]] = {}
        index = self._read_index()
        if index is not None and index["shards"] == self.shards:
            sizes: dict[int, int] = {}
            for raw_shard, size in index["sizes"].items():
                try:
                    sizes[int(raw_shard)] = int(size)
                except (TypeError, ValueError):
                    continue
            stale = False
            for shard in self._shard_numbers():
                path = self._shard_path(shard)
                actual = path.stat().st_size if path.exists() else 0
                if actual < sizes.get(shard, 0):
                    # Rewritten/truncated behind the index: rebuild.
                    stale = True
                    break
            if not stale:
                for key, entry in index["entries"].items():
                    try:
                        shard, offset, length = entry
                        entries[key] = (int(shard), int(offset), int(length))
                    except (TypeError, ValueError):
                        continue
                for shard in self._shard_numbers():
                    self._synced[shard] = self._scan_shard(
                        shard, entries, start=sizes.get(shard, 0)
                    )
                self._entries = entries
                self._index_dirty = False
                return
        for shard in self._shard_numbers():
            self._synced[shard] = self._scan_shard(shard, entries)
        self._entries = entries
        self._index_dirty = True

    def _loaded(self) -> dict[str, tuple[int, int, int]]:
        if self._entries is None:
            self.load()
        assert self._entries is not None
        return self._entries

    # -- queries -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._loaded())

    def contains(self, key: str) -> bool:
        return key in self._loaded()

    def get_payload(self, key: str) -> Any | None:
        entry = self._loaded().get(key)
        if entry is None:
            return None
        wire = self._seek_read(key, entry)
        if wire is None:
            # The bytes under this entry no longer hold this record —
            # the index went stale (external rewrite). Fall back to a
            # full reload once rather than serving garbage.
            self.load()
            entry = self._loaded().get(key)
            if entry is not None:
                wire = self._seek_read(key, entry)
        return wire

    def _seek_read(self, key: str, entry: tuple[int, int, int]) -> Any | None:
        """The wire stored at *entry*, or None unless it is *key*'s."""
        shard, offset, length = entry
        try:
            reader = self._readers.get(shard)
            if reader is None:
                reader = self._readers[shard] = self._shard_path(shard).open("rb")
            reader.seek(offset)
            found, _fingerprint, wire = decode_record(reader.read(length))
        except (OSError, ValueError):  # RecordDefect is a ValueError
            return None
        return wire if found == key else None

    # -- writes ------------------------------------------------------------------

    def put(self, records: list[tuple[str, str, Any]]) -> None:
        entries = self._loaded()
        by_shard: dict[int, list[tuple[str, str]]] = {}
        for key, line, _payload in records:
            by_shard.setdefault(shard_of(key, self.shards), []).append(
                (key, line)
            )
        for shard, items in sorted(by_shard.items()):
            start = self._file(shard).append([line for _, line in items])
            synced = self._synced.get(shard, 0)
            if start > synced:
                # Another process appended in [synced, start): index that
                # gap now — those bytes are fully flushed (they precede
                # our locked append), so this read is race-free, and the
                # index we later persist stays complete under concurrent
                # writers.
                self._scan_shard(shard, entries, start=synced, end=start)
            cursor = start
            for key, line in items:
                length = len(line.encode("utf-8"))
                entries[key] = (shard, cursor, length)
                cursor += length + 1
            self._synced[shard] = cursor
        self._index_dirty = True

    def forget(self, key: str) -> None:
        self._loaded().pop(key, None)
        self._index_dirty = True

    # -- maintenance -------------------------------------------------------------

    def compact(
        self, drop_keys: "frozenset[str] | set[str]" = frozenset()
    ) -> CompactionReport:
        """Rewrite every shard; duplicates, torn lines and *drop_keys*
        records leave the disk for good. Assumes exclusive ownership of
        the directory (the daemon's situation)."""
        report = CompactionReport()
        entries: dict[str, tuple[int, int, int]] = {}
        self._close_readers()
        for file in self._files.values():
            file.close()
        for shard in self._shard_numbers():
            path = self._shard_path(shard)
            if not path.exists():
                continue
            file_report, offsets = compact_file(path, drop_keys)
            report = report.merge(file_report)
            for key, (offset, length) in offsets.items():
                entries[key] = (shard, offset, length)
            self._synced[shard] = path.stat().st_size if path.exists() else 0
        self.skipped_lines = 0
        self._entries = entries
        self._index_dirty = True
        self.write_index()
        return report

    def write_index(self) -> None:
        """Persist the offset index atomically (tmp + rename)."""
        if self._entries is None or not self._index_dirty:
            return
        # Persist the synced watermarks, never raw file sizes: with a
        # concurrent writer the file may hold records beyond (or, at
        # offsets this session never scanned, below) what _entries
        # describe, and an index claiming byte coverage it does not
        # have would make the next load's tail scan skip real records.
        sizes: dict[str, int] = {}
        for shard, synced in self._synced.items():
            if synced > 0:
                sizes[str(shard)] = synced
        payload = {
            "v": INDEX_VERSION,
            "shards": self.shards,
            "sizes": sizes,
            "entries": {
                key: [shard, offset, length]
                for key, (shard, offset, length) in self._entries.items()
            },
        }
        tmp = self.index_path.with_suffix(".json.tmp")
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            tmp.write_text(
                json.dumps(payload, separators=(",", ":")), encoding="utf-8"
            )
            os.replace(tmp, self.index_path)
        except OSError:
            # The index is a cache; failing to persist it only costs
            # the next session a full scan.
            return
        self._index_dirty = False

    def _close_readers(self) -> None:
        for reader in self._readers.values():
            try:
                reader.close()
            except OSError:
                pass
        self._readers.clear()

    def close(self) -> None:
        self.write_index()
        self._close_readers()
        for file in self._files.values():
            file.close()
