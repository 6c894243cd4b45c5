"""A bounded LRU cache for canonical keys.

The engine keys the cache on the exact function identity ``(n, bits)``
and stores ``(canon_bits, transform)`` where ``transform`` is the plain
``(perm, input_neg, output_neg)`` tuple of the witnessing
:class:`~repro.boolfunc.transform.NpnTransform`.  Invariants:

* entries are immutable facts — ``canon_bits`` is *the* canonical key of
  ``(n, bits)``, so stale entries cannot exist and eviction only ever
  costs recomputation, never correctness;
* results never depend on what the cache holds, because the values
  are content-derived, not order-derived;
* concurrent access within a process is safe: a single lock guards the
  OrderedDict mutation and the ``hits``/``misses``/``evictions``
  counters together, so lookups from threads (the CLI's traced runs,
  thread-pooled consumers) can never corrupt LRU order or drop counts.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

CacheKey = Tuple[int, int]
CacheValue = Tuple[int, Tuple[Tuple[int, ...], int, bool]]


class CanonicalKeyCache:
    """Bounded LRU mapping ``(n, bits) -> (canon_bits, transform tuple)``."""

    def __init__(self, maxsize: int = 1 << 16):
        if maxsize <= 0:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._data: "OrderedDict[CacheKey, CacheValue]" = OrderedDict()

    def get(self, key: CacheKey) -> Optional[CacheValue]:
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: CacheKey, value: CacheValue) -> None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._data

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = self.misses = self.evictions = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }
