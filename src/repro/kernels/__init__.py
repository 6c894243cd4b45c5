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
:mod:`repro.kernels.influence`
    Per-lane influence vectors for the engine's influence pre-key tier.

Dispatch
--------
The engine decides whether to batch through :func:`should_batch`, from
what it can see alone: a group batches once it holds at least
:data:`KERNEL_MIN_BATCH` tables of a width the packed pipelines cover
(``3 <= n <=`` :data:`repro.kernels.prekey.BATCH_MAX_N`).  Below that
count the packing overhead eats the win; below ``n = 3`` lanes are not
byte-aligned, and above ``BATCH_MAX_N`` the O(n^2) butterfly over a
megabyte-scale integer falls behind the scalar loop (measured in
BENCH_kernels.json).  Every other group runs the scalar loop; groups
refused for their width are counted in ``kernels.scalar_fallbacks``.

When observability is enabled (:mod:`repro.obs.runtime`) the wrappers
record call counts, lane throughput and wall time under the
``kernels.*`` namespace.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

from repro.kernels import influence, lanes, prekey
from repro.kernels.influence import batch_influence
from repro.kernels.prekey import batch_prekeys
from repro.obs import runtime as _obs

__all__ = [
    "KERNEL_MIN_BATCH",
    "batch_influence",
    "batch_prekeys",
    "coarse_prekeys",
    "influence",
    "influence_vectors",
    "lanes",
    "prekey",
    "should_batch",
]

KERNEL_MIN_BATCH = 8
"""Batch groups of at least this many distinct functions.  The packed
pipeline was never slower than scalar from 16 lanes up in
BENCH_kernels.json; 8 leaves margin for the pack cost on cache-cold
lanes."""


def should_batch(n: int, count: int) -> bool:
    """Whether a group of ``count`` ``n``-variable functions should go
    through the packed pre-key pipeline."""
    if count < 2:
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

    Identical to :func:`repro.kernels.prekey.batch_prekeys`, plus
    ``kernels.*`` metrics when observability is on.  Callers gate on
    :func:`should_batch`; outside the supported widths this function
    still returns scalar-identical ``(keys, weights)`` through the
    scalar loop.
    """
    if not _obs.enabled:
        return batch_prekeys(bits_list, n)
    t0 = time.perf_counter()
    result = batch_prekeys(bits_list, n)
    registry = _obs.registry
    registry.counter("kernels.prekey_calls").inc()
    registry.counter("kernels.prekey_lanes").inc(len(bits_list))
    registry.counter("kernels.prekey_seconds").inc(time.perf_counter() - t0)
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
