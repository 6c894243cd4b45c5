"""The persistent, sharded NPN class store.

A :class:`ClassStore` is a directory::

    MANIFEST.json              store version, shard count, format notes
    shards/shard-XXXX.jsonl    record segments, one line per class (self-
                               checking: each ends in a count+CRC footer line)

Records are routed to shards by the CRC-32 of the class's **coarse
pre-key** (:func:`repro.engine.prekey.coarse_prekey` of the canonical
representative).  The pre-key is npn-invariant, so every member of a
class — and every future query function of that class — hashes to the
same shard; a warm-start lookup touches exactly one segment no matter
how large the store grows.

Write model: new and superseding records buffer in memory (visible to
the owning instance immediately) and hit disk on :meth:`flush` /
:meth:`close`, the store's only write: each flush atomically replaces
every dirty shard's segment with the latest record of each of its
classes, sorted by ``(n, canon_bits)`` (tmp + fsync + rename, see
:mod:`repro.store.shard`), so superseded records never reach disk.
Concurrent readers in other threads or processes therefore always see a
complete on-disk snapshot; a reader's loaded shards are cached until
:meth:`refresh`.

The store is single-writer.  Nothing enforces that across processes —
two writers flushing the same shard would last-write-win at whole-
segment granularity (never interleave bytes) — so coordinate writers
externally; readers need no coordination at all.
"""

from __future__ import annotations

import json
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.boolfunc.truthtable import TruthTable
from repro.engine.prekey import coarse_prekey
from repro.obs import runtime as _obs
from repro.obs.profile import scoped_timer

from repro.store.errors import StoreCorruptionError, StoreError
from repro.store.records import StoreRecord, WitnessTuple, encode_prekey
from repro.store.shard import load_shard, segment_name, write_shard

MANIFEST_NAME = "MANIFEST.json"
STORE_VERSION = 1
DEFAULT_NUM_SHARDS = 64


@dataclass
class _LoadedShard:
    """In-memory image of one shard: the latest record of each class."""

    by_key: Dict[Tuple[int, int], StoreRecord] = field(default_factory=dict)
    by_group: Dict[Tuple[int, str], Dict[int, StoreRecord]] = field(default_factory=dict)
    dirty: int = 0  # count of buffered, unflushed records

    def absorb(self, record: StoreRecord) -> None:
        self.by_key[record.key] = record
        group = self.by_group.setdefault((record.n, record.prekey), {})
        group[record.canon_bits] = record

    def latest(self) -> List[StoreRecord]:
        """One record per class, sorted by ``(n, canon_bits)``."""
        return [self.by_key[key] for key in sorted(self.by_key)]


class ClassStore:
    """On-disk sharded database of npn classes."""

    def __init__(
        self,
        path,
        num_shards: int = DEFAULT_NUM_SHARDS,
        create: bool = True,
    ):
        self.path = Path(path)
        self.shard_dir = self.path / "shards"
        self._lock = threading.RLock()
        self._shards: Dict[int, _LoadedShard] = {}
        manifest_path = self.path / MANIFEST_NAME
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text())
            except json.JSONDecodeError as exc:
                raise StoreCorruptionError(f"{manifest_path}: unparseable manifest") from exc
            if manifest.get("version") != STORE_VERSION:
                raise StoreError(
                    f"{self.path}: unsupported store version {manifest.get('version')!r}"
                )
            self.num_shards = int(manifest["num_shards"])
        elif create:
            if num_shards <= 0:
                raise StoreError("num_shards must be positive")
            self.num_shards = num_shards
            self.shard_dir.mkdir(parents=True, exist_ok=True)
            manifest = {
                "version": STORE_VERSION,
                "num_shards": num_shards,
                "format": "sharded JSONL npn-class segments, coarse-prekey routed",
            }
            tmp = manifest_path.parent / f".{MANIFEST_NAME}.tmp"
            tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
            tmp.replace(manifest_path)
        else:
            raise StoreError(f"{self.path}: not a class store (no {MANIFEST_NAME})")

    # -- routing --------------------------------------------------------

    def shard_of_prekey(self, prekey_str: str) -> int:
        return (zlib.crc32(prekey_str.encode("utf-8")) & 0xFFFFFFFF) % self.num_shards

    @staticmethod
    def prekey_of(n: int, bits: int) -> str:
        """Serialized coarse pre-key of a function (= of its whole class)."""
        return encode_prekey(coarse_prekey(TruthTable(n, bits)))

    # -- shard cache ----------------------------------------------------

    def _shard(self, shard_id: int) -> _LoadedShard:
        with self._lock:
            loaded = self._shards.get(shard_id)
            if loaded is None:
                loaded = _LoadedShard()
                for record in load_shard(self.shard_dir, shard_id):
                    loaded.absorb(record)
                self._shards[shard_id] = loaded
            return loaded

    def refresh(self) -> None:
        """Drop cached shards so the next query re-reads disk.

        Refuses (to protect buffered appends) when dirty records exist.
        """
        with self._lock:
            if any(s.dirty for s in self._shards.values()):
                raise StoreError("refresh() with unflushed records; flush() first")
            self._shards.clear()

    # -- writes ---------------------------------------------------------

    def add_class(
        self,
        n: int,
        canon_bits: int,
        rep_bits: int,
        witness: WitnessTuple,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> bool:
        """Record an npn class; returns True when the store changed.

        ``witness`` is the ``(perm, input_neg, output_neg)`` tuple with
        ``NpnTransform(*witness).apply(rep) == canon``.  Re-adding an
        identical fact is a no-op; a record with the same class key but
        different representative/witness/metadata supersedes the old
        one, and the next flush writes only the new one.
        """
        prekey = self.prekey_of(n, canon_bits)
        record = StoreRecord(
            n=n,
            canon_bits=canon_bits,
            rep_bits=rep_bits,
            witness=(tuple(witness[0]), witness[1], bool(witness[2])),
            prekey=prekey,
            meta=dict(meta or {}),
        )
        if not record.verify_witness():
            raise StoreError(
                f"refusing to store class (n={n}, canon={canon_bits:#x}): "
                "witness does not map the representative to the canonical bits"
            )
        shard_id = self.shard_of_prekey(prekey)
        with self._lock:
            loaded = self._shard(shard_id)
            existing = loaded.by_key.get(record.key)
            if existing is not None and existing.same_fact(record):
                return False
            loaded.absorb(record)
            loaded.dirty += 1
            return True

    def dirty_count(self) -> int:
        """Buffered records not yet on disk (drives background flushers)."""
        with self._lock:
            return sum(s.dirty for s in self._shards.values())

    def flush(self) -> int:
        """Rewrite every dirty shard's segment; returns flushed record count.

        A segment holds the latest record of each of the shard's classes,
        sorted by ``(n, canon_bits)``.
        """
        flushed = 0
        with self._lock, scoped_timer("store.flush"):
            for shard_id, loaded in sorted(self._shards.items()):
                if not loaded.dirty:
                    continue
                write_shard(self.shard_dir, shard_id, loaded.latest())
                flushed += loaded.dirty
                loaded.dirty = 0
        if flushed and _obs.enabled:
            _obs.registry.counter("store.records_flushed").inc(flushed)
        return flushed

    def close(self) -> None:
        self.flush()

    def __enter__(self) -> "ClassStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reads ----------------------------------------------------------

    def _present_shard_ids(self) -> List[int]:
        if not self.shard_dir.exists():
            return sorted(self._shards)
        ids = set(self._shards)
        for path in self.shard_dir.glob("shard-*.jsonl"):
            ids.add(int(path.stem.split("-")[1], 16))
        return sorted(ids)

    def has(self, n: int, canon_bits: int) -> bool:
        return self.get(n, canon_bits) is not None

    def get(self, n: int, canon_bits: int) -> Optional[StoreRecord]:
        """The latest record of a class, by canonical key."""
        prekey = self.prekey_of(n, canon_bits)
        loaded = self._shard(self.shard_of_prekey(prekey))
        return loaded.by_key.get((n, canon_bits))

    def warm_records(self, n: int, prekey: Tuple) -> List[StoreRecord]:
        """Stored classes a warm-started classifier should seed with.

        Reads exactly one shard and returns the records of the coarse
        ``prekey`` group, sorted by canonical bits so seeding order is
        deterministic.
        """
        prekey_str = encode_prekey(prekey)
        loaded = self._shard(self.shard_of_prekey(prekey_str))
        group = loaded.by_group.get((n, prekey_str), {})
        return [group[bits] for bits in sorted(group)]

    def records(self) -> Iterator[StoreRecord]:
        """Latest record of every stored class."""
        for shard_id in self._present_shard_ids():
            yield from self._shard(shard_id).latest()

    # -- maintenance / introspection ------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Store-wide summary: class counts from the loaded shards (so
        including unflushed records), segment bytes from disk."""
        shards = 0
        classes = 0
        size_bytes = 0
        by_n: Dict[str, int] = {}
        for shard_id in self._present_shard_ids():
            loaded = self._shard(shard_id)
            if not loaded.by_key:
                continue
            shards += 1
            classes += len(loaded.by_key)
            seg = self.shard_dir / segment_name(shard_id)
            if seg.exists():
                size_bytes += seg.stat().st_size
            for key_n, _ in loaded.by_key:
                by_n[str(key_n)] = by_n.get(str(key_n), 0) + 1
        return {
            "path": str(self.path),
            "num_shards": self.num_shards,
            "shards_present": shards,
            "classes": classes,
            "bytes": size_bytes,
            "classes_by_n": dict(sorted(by_n.items(), key=lambda kv: int(kv[0]))),
        }

    def verify(self, witnesses: bool = True) -> int:
        """Full integrity sweep: re-read every shard from disk, checking
        segment framing, record checksums, shard routing and (by default)
        every witness identity.  Returns the record count;
        raises :class:`StoreCorruptionError` / :class:`StoreError` on
        the first problem found.
        """
        with self._lock, scoped_timer("store.verify"):
            if any(s.dirty for s in self._shards.values()):
                raise StoreError("verify() with unflushed records; flush() first")
            total = 0
            for shard_id in self._present_shard_ids():
                records = load_shard(self.shard_dir, shard_id)
                for record in records:
                    expected = self.shard_of_prekey(record.prekey)
                    if expected != shard_id:
                        raise StoreCorruptionError(
                            f"{segment_name(shard_id)}: record for class "
                            f"(n={record.n}, canon={record.canon_bits:#x}) "
                            f"belongs in shard {expected:#06x}"
                        )
                    if witnesses and not record.verify_witness():
                        raise StoreCorruptionError(
                            f"{segment_name(shard_id)}: witness of class "
                            f"(n={record.n}, canon={record.canon_bits:#x}) "
                            "does not reproduce the canonical bits"
                        )
                total += len(records)
            if _obs.enabled:
                _obs.registry.counter("store.records_verified").inc(total)
            return total
