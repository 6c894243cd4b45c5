"""Persistent sharded NPN class store.

Public surface:

* :class:`ClassStore` — the on-disk database: coarse-prekey-routed
  JSONL shards, checksum-verified loads, atomic flushes that write one
  line per class;
* :class:`StoreRecord` — one persisted class (canonical bits, witness,
  representative, metadata);
* :class:`StoreError` / :class:`StoreCorruptionError` — failure modes.

The classification engine warm-starts from a store
(``ClassificationEngine(store=...)``) and the cell library builds its
match index into one (:meth:`repro.library.CellLibrary.build_store`).
"""

from repro.store.errors import StoreCorruptionError, StoreError
from repro.store.records import StoreRecord, encode_prekey
from repro.store.store import DEFAULT_NUM_SHARDS, ClassStore

__all__ = [
    "ClassStore",
    "StoreRecord",
    "StoreError",
    "StoreCorruptionError",
    "DEFAULT_NUM_SHARDS",
    "encode_prekey",
]
