"""Batch NPN classification engine.

Public surface:

* :class:`ClassificationEngine` / :func:`classify_batch` — cached,
  pre-key-bucketed, in-process classification producing the same
  canonical keys as per-function
  :func:`repro.core.canonical.canonical_form`;
* :class:`EngineOptions`, :class:`EngineStats`, :class:`EngineResult`,
  :class:`ClassKey` — configuration, counters, and result types;
* :func:`coarse_prekey` / :func:`fine_prekey` — the npn-invariant
  semi-canonical pre-keys;
* :class:`CanonicalKeyCache` — the bounded LRU canonical-key cache.
"""

from repro.engine.cache import CanonicalKeyCache
from repro.engine.classifier import (
    ClassificationEngine,
    ClassKey,
    EngineOptions,
    EngineResult,
    EngineStats,
    classify_batch,
    npn_class_count_engine,
    probe_known,
    store_lookup,
)
from repro.engine.prekey import coarse_prekey, fine_prekey, symmetry_counts

__all__ = [
    "CanonicalKeyCache",
    "ClassificationEngine",
    "ClassKey",
    "EngineOptions",
    "EngineResult",
    "EngineStats",
    "classify_batch",
    "npn_class_count_engine",
    "probe_known",
    "store_lookup",
    "coarse_prekey",
    "fine_prekey",
    "symmetry_counts",
]
