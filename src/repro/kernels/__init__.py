"""Bit-parallel batch kernels: SIMD-on-bigints for the engine's pre-key tiers.

This package packs a batch of ``B`` truth tables (width ``2**n``) into
the lanes of one wide Python integer and replaces per-function Python
loops with a handful of big-integer operations that CPython executes in
C.  The layer is dependency-free (no numpy): the "vector unit" is the
arbitrary-precision integer itself.

Modules
-------
:mod:`repro.kernels.lanes`
    Lane layout, packing/extraction, replicated-mask builders.
:mod:`repro.kernels.prekey`
    The shared popcount butterfly and the fused pipeline producing the
    engine's coarse NPN pre-keys plus cofactor-weight vectors for a
    whole bucket in one pass.
:mod:`repro.kernels.wordarray`
    The word-array ("slab") layout for large ``n``: the batch is held
    as ``2**h`` slab integers, each slicing one ``2**(n-h)``-bit chunk
    out of every table, so the butterfly runs O(n) wide passes instead
    of the flat layout's O(n^2) and per-word popcounts come from one
    ``bytes.translate`` per slab.
:mod:`repro.kernels.influence`
    Per-lane influence vectors for the engine's influence pre-key tier.

Dispatch
--------
Call sites decide whether to batch through :func:`should_batch`, driven
by a ``kernel`` mode string: ``"scalar"`` never batches and ``"auto"``
(default) batches once a group reaches :data:`KERNEL_MIN_BATCH` lanes —
below that the packing overhead eats the win.  The pre-key pipeline
needs byte-aligned lanes (``n >= 3``); narrower groups silently take
the scalar path, counted in ``kernels.scalar_fallbacks``.

:func:`coarse_prekeys` then picks the *layout* from ``n`` alone: the
flat lane-packed layout up to ``n = 10``, the slab word-array layout
from :data:`repro.kernels.wordarray.SLAB_MIN_N` up (where the flat
butterfly's O(n^2) rounds over a megabyte-scale integer fall behind the
scalar loop — measured in BENCH_kernels.json).  Both layouts stay
reachable directly as :func:`repro.kernels.prekey.batch_prekeys` and
:func:`repro.kernels.wordarray.batch_prekeys`.

When observability is enabled (:mod:`repro.obs.runtime`) the wrappers
record call counts, lane throughput and wall time under the
``kernels.*`` namespace.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

from repro.kernels import influence, lanes, prekey, wordarray
from repro.kernels.influence import batch_influence
from repro.kernels.prekey import batch_prekeys
from repro.obs import runtime as _obs

__all__ = [
    "KERNEL_MIN_BATCH",
    "KERNEL_MODES",
    "batch_influence",
    "batch_prekeys",
    "coarse_prekeys",
    "influence",
    "influence_vectors",
    "lanes",
    "prekey",
    "should_batch",
    "wordarray",
]

KERNEL_MODES = ("auto", "scalar")
"""Valid values of the ``kernel`` dispatch mode: ``"auto"`` batches
groups of at least :data:`KERNEL_MIN_BATCH` functions, ``"scalar"``
never batches."""

KERNEL_MIN_BATCH = 8
"""``"auto"`` crossover: batch groups of at least this many distinct
functions.  The packed pipeline was never slower than scalar from 16
lanes up in BENCH_kernels.json; 8 leaves margin for the pack cost on
cache-cold lanes."""


def should_batch(n: int, count: int, kernel: str = "auto") -> bool:
    """Whether a group of ``count`` ``n``-variable functions should go
    through the packed pre-key pipeline under dispatch mode ``kernel``."""
    if kernel not in KERNEL_MODES:
        raise ValueError(
            f"unknown kernel mode {kernel!r}; expected one of {KERNEL_MODES}"
        )
    if kernel == "scalar" or count < 2:
        return False
    if not prekey.supported(n):
        if _obs.enabled:
            _obs.registry.counter("kernels.scalar_fallbacks").inc()
        return False
    return count >= KERNEL_MIN_BATCH


def coarse_prekeys(
    bits_list: Sequence[int], n: int
) -> Tuple[List[tuple], List[tuple]]:
    """Instrumented entry point for the fused pre-key + weights kernel.

    Runs :func:`repro.kernels.prekey.batch_prekeys` (flat lanes) below
    :data:`repro.kernels.wordarray.SLAB_MIN_N` and
    :func:`repro.kernels.wordarray.batch_prekeys` (slabs) from there up,
    plus ``kernels.*`` metrics when observability is on.  Callers gate
    on :func:`should_batch`; this function itself still falls back to
    scalar below the supported width.  Both layouts return
    scalar-identical ``(keys, weights)``.
    """
    slabs = n >= wordarray.SLAB_MIN_N
    impl = wordarray.batch_prekeys if slabs else batch_prekeys
    if not _obs.enabled:
        return impl(bits_list, n)
    t0 = time.perf_counter()
    result = impl(bits_list, n)
    registry = _obs.registry
    registry.counter("kernels.prekey_calls").inc()
    registry.counter("kernels.prekey_lanes").inc(len(bits_list))
    registry.counter("kernels.prekey_seconds").inc(time.perf_counter() - t0)
    if slabs:
        registry.counter("kernels.prekey_slab_calls").inc()
    return result


def influence_vectors(bits_list: Sequence[int], n: int) -> List[tuple]:
    """Instrumented entry point for the batch influence kernel.

    Identical to :func:`repro.kernels.influence.batch_influence`, plus
    ``kernels.*`` metrics when observability is on.
    """
    if not _obs.enabled:
        return batch_influence(bits_list, n)
    t0 = time.perf_counter()
    result = batch_influence(bits_list, n)
    registry = _obs.registry
    registry.counter("kernels.influence_calls").inc()
    registry.counter("kernels.influence_lanes").inc(len(bits_list))
    registry.counter("kernels.influence_seconds").inc(time.perf_counter() - t0)
    return result
