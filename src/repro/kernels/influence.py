"""Batch influence vectors, lane-packed.

The scalar reference lives in :mod:`repro.core.sensitivity`; this module
reproduces its raw counts bit-for-bit for a whole batch at once.
Influence is one XOR + axis mask per lane pair — the Boolean difference
``(packed ^ (packed >> 2**i)) & rep_axis(i)`` — followed by the same
strided popcount main chain the weight butterfly uses, so every lane's
``inf_i`` falls out of ``n`` reduction rounds per axis.

:func:`batch_influence` silently falls back to the scalar implementation
outside :func:`repro.kernels.prekey.supported` widths, the same bound
as the pre-key kernel: below the byte-aligned lane floor (``n < 3``)
and above :data:`repro.kernels.prekey.BATCH_MAX_N`.  The pipeline is n
reduction rounds per axis (n^2 total) over the whole packed batch, and
from ``n = 11`` up that loses to the scalar per-table masked-popcount
loop by ~7x (28ms vs 4ms at n=14, B=256): bare popcounts are already
C-speed, so the packing buys nothing.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.kernels import lanes
from repro.kernels.prekey import supported

__all__ = ["batch_influence"]


def _lane_counts(x: int, n: int, count: int, lb: int, total_bits: int):
    """Per-lane popcounts of ``x`` via the strided reduction main chain."""
    S = x
    for j in range(n):
        w = 1 << j
        m = lanes.rep_mask(w, total_bits)
        S = (S & m) + ((S >> w) & m)
    return lanes.extract_lanes(S, lb, count, 1 << n)


def batch_influence(bits_list: Sequence[int], n: int) -> List[Tuple[int, ...]]:
    """Influence vector of every table in the batch.

    Matches ``repro.core.sensitivity.influence_vector`` bit-for-bit;
    scalar fallback below the supported width.
    """
    count = len(bits_list)
    if not count:
        return []
    if not supported(n):
        return _scalar_influence(bits_list, n)
    packed = lanes.pack_tables(bits_list, n)
    total_bits = count << n
    lb = lanes.lane_bytes(n)
    cols = []
    for i in range(n):
        span = 1 << i
        am = lanes.rep_axis(n, i, total_bits)
        x = (packed ^ (packed >> span)) & am
        cols.append(_lane_counts(x, n, count, lb, total_bits))
    return [tuple(col[k] for col in cols) for k in range(count)]


def _scalar_influence(bits_list: Sequence[int], n: int) -> List[Tuple[int, ...]]:
    from repro.core import sensitivity as sens_mod

    return [sens_mod._influence_vector(n, b) for b in bits_list]
