"""Shard segment I/O: self-checking JSONL with paranoid, race-safe loads.

One shard is one file in the store's ``shards/`` directory::

    shard-00a3.jsonl      the segment: StoreRecord lines + one footer line

**All integrity metadata lives inside the segment itself**, as a final
footer line carrying the record count and the CRC-32 of every byte
before it.  Segments are replaced atomically (staged as a temp file in
the same directory, fsynced, ``os.replace``d), so a reader always sees
one internally consistent segment.  Stores written by earlier versions
may also hold ``shard-XXXX.idx.json`` stats files; nothing reads them,
and they may be deleted.

What raises :class:`~repro.store.errors.StoreCorruptionError`:

* a segment that does not end in a newline (a torn tail write),
* a missing or unparseable footer (truncation, including truncation at
  a line boundary — the footer is the last line, so cutting whole
  records cuts it too),
* a footer whose CRC or count disagrees with the record bytes (bit
  flips, spliced lines),
* a record line that fails to parse or fails its own checksum.

Superseding: the store writes a segment whole, with one line per class
sorted by ``(n, canon_bits)``.  Loads still let a later line with the
same ``(n, canon_bits)`` replace an earlier one, so a segment from an
earlier version that carries superseded lines loads the same latest
records.
"""

from __future__ import annotations

import contextlib
import json
import os
import zlib
from pathlib import Path
from typing import List, Sequence

from repro.obs import runtime as _obs
from repro.obs.profile import scoped_timer
from repro.store.errors import StoreCorruptionError
from repro.store.records import StoreRecord

FOOTER_VERSION = 1


def segment_name(shard_id: int) -> str:
    return f"shard-{shard_id:04x}.jsonl"


def _crc_hex(data: bytes) -> str:
    return format(zlib.crc32(data) & 0xFFFFFFFF, "08x")


def _atomic_write(path: Path, data: bytes) -> None:
    """Stage-and-rename write; the destination is never partially written.

    When the write, the fsync or the rename fails, the staged file is
    removed (on a full disk it would keep holding the space) and the
    original error propagates.
    """
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise


def write_shard(shard_dir: Path, shard_id: int, records: Sequence[StoreRecord]) -> None:
    """Atomically replace a shard's segment with ``records`` plus footer."""
    with scoped_timer("store.shard_write"):
        body = "".join(r.to_line() + "\n" for r in records).encode("utf-8")
        footer = {
            "footer": FOOTER_VERSION,
            "count": len(records),
            "crc": _crc_hex(body),
        }
        data = body + (json.dumps(footer, sort_keys=True) + "\n").encode("utf-8")
        _atomic_write(shard_dir / segment_name(shard_id), data)
    if _obs.enabled:
        _obs.registry.counter("store.records_written").inc(len(records))
        _obs.registry.counter("store.bytes_written").inc(len(data))


def load_shard(shard_dir: Path, shard_id: int) -> List[StoreRecord]:
    """Load and integrity-check one shard's records (segment order).

    Verification is self-contained in the segment: footer presence,
    footer CRC over the record bytes, footer count, and every record's
    own checksum.
    """
    seg = shard_dir / segment_name(shard_id)
    if not seg.exists():
        return []
    with scoped_timer("store.shard_read"):
        records = _parse_segment(seg)
    if _obs.enabled:
        _obs.registry.counter("store.records_read").inc(len(records))
        _obs.registry.counter("store.checksum_verifies").inc()
    return records


def _parse_segment(seg: Path) -> List[StoreRecord]:
    data = seg.read_bytes()
    if not data.endswith(b"\n"):
        raise StoreCorruptionError(
            f"{seg.name}: segment does not end in a newline (torn tail write)"
        )
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise StoreCorruptionError(f"{seg.name}: undecodable segment: {exc}") from exc
    footer_line = lines[-1]
    try:
        footer = json.loads(footer_line)
    except json.JSONDecodeError as exc:
        raise StoreCorruptionError(
            f"{seg.name}: unparseable final line — segment truncated or torn: {exc}"
        ) from exc
    if not isinstance(footer, dict) or "footer" not in footer:
        raise StoreCorruptionError(
            f"{seg.name}: last line is not a segment footer "
            "(truncated at a line boundary?)"
        )
    if footer.get("footer") != FOOTER_VERSION:
        raise StoreCorruptionError(
            f"{seg.name}: unsupported footer version {footer.get('footer')!r}"
        )
    body = data[: len(data) - len(footer_line.encode("utf-8")) - 1]
    if footer.get("crc") != _crc_hex(body):
        raise StoreCorruptionError(
            f"{seg.name}: footer CRC mismatch — record bytes were altered"
        )
    record_lines = lines[:-1]
    if footer.get("count") != len(record_lines):
        raise StoreCorruptionError(
            f"{seg.name}: segment holds {len(record_lines)} records but the "
            f"footer claims {footer.get('count')} (truncated at a line boundary)"
        )
    return [
        StoreRecord.from_line(line, where=f"{seg.name}:{lineno}")
        for lineno, line in enumerate(record_lines, start=1)
    ]
