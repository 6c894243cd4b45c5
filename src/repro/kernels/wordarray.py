"""Word-array (slab) batch kernels: the large-``n`` layout.

The flat lane layout of :mod:`repro.kernels.lanes` packs ``B`` tables
side by side and pays ``n + n*(n-1)/2`` butterfly rounds for the full
cofactor-weight set — quadratic in ``n`` — so its advantage over the
scalar loops decays from ~3x at ``n = 8`` to below 1x by ``n = 11``
(BENCH_kernels.json).  This module is the word-array twin used above
:data:`SLAB_MIN_N`: the batch is *transposed* into ``2**h`` **slabs**,
where slab ``s`` is one wide integer holding word ``s`` (a ``2**c``-bit
chunk, ``c = n - h``) of every table, one lane per table.

The layout splits each table's variables into three bands, exactly like
the word-array truth tables of MyskYko/ttopt:

* axes 0..2 live inside a *byte*: one ``bytes.translate`` against a
  256-entry popcount table processes all three at once, replacing the
  three narrowest — and most expensive per useful bit — butterfly
  rounds with a single C pass;
* axes 3..c-1 live inside a slab lane: masked-shift rounds, one per
  axis, over fields that start a byte wide (so every round from here on
  is cheap relative to the flat layout's 1-, 2- and 4-bit rounds);
* axes c..n-1 are the *slab index*: operations on them are list
  operations — a cofactor weight is a sum of slab vectors.

The result is O(n) wide passes per batch for the full pre-key column
set instead of the flat layout's O(n^2), which is what restores the
>= 2x batch margin at ``n = 12..16``.

Cross-slab sums never overflow: the translate output holds values
<= 8 in 8-bit fields, and every summation either has headroom proved by
construction (field capacity ``2**16`` at the narrowest summed stride
vs at most ``2**(h+3)`` slabs-times-value) or is widened first in
groups of at most 16 slabs.

The pre-keys are bit-identical to the scalar reference and to the flat
lane kernel; serialized forms never change (tables enter as plain
packed bigints).
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, Sequence, Tuple

from repro.kernels import lanes, prekey
from repro.utils import bitops

Pair = Tuple[int, int]

SLAB_MIN_N = 11
"""Dispatch floor: below this the flat lane layout wins (its rounds are
cheap at small widths and it avoids the transpose); from here up the
slab layout wins and the flat butterfly is already slower than scalar."""

SLAB_MAX_H = 6
"""Upper bound on ``log2`` slab count.  More slabs shorten the in-slab
rounds but grow the transpose cost linearly (``B * 2**h`` byte slices);
measured optimum is h in {3..6} over n in {11..16}."""

_BYTE_COUNT = bytes(bin(b).count("1") for b in range(256))
_BYTE_COUNT_AXIS = tuple(
    bytes(bin(b & m).count("1") for b in range(256))
    for m in (0x55, 0x33, 0x0F)
)
"""Per-byte popcount tables, plain and masked to the low-axis negative
cofactor halves (axis 0/1/2).  Built once at import: one translate pass
against these replaces the three narrowest butterfly rounds."""


def supported(n: int) -> bool:
    """Whether the slab pipeline covers ``n`` (needs byte-wide chunks
    after splitting off at most :data:`SLAB_MAX_H` slab axes)."""
    return SLAB_MIN_N <= n <= bitops.MAX_VARS


def slab_h(n: int) -> int:
    """Measured-optimal slab-count exponent for ``n``-variable batches.

    Keeps chunks near ``2**8``..``2**10`` bits: large enough that the
    per-slab Python overhead amortizes, small enough that many axes are
    list-level.  (BENCH_kernels.json carries the sweep.)
    """
    return max(3, min(SLAB_MAX_H, n - 8))


def pack_slabs(bits_list: Sequence[int], n: int, h: int) -> List[bytes]:
    """Transpose a batch into ``2**h`` slab buffers.

    Slab ``s`` holds chunk ``s`` (bytes ``[s*cb, (s+1)*cb)``, little
    endian) of every table, concatenated in batch order — i.e. lane
    ``k`` of slab ``s`` is word ``s`` of table ``k``.
    """
    tb = 1 << (n - 3)
    cb = tb >> h
    bufs = [b.to_bytes(tb, "little") for b in bits_list]
    # itemgetter(slice) keeps the B * 2**h chunk extraction entirely in
    # C; a per-buffer genexpr here costs more than the slicing itself.
    return [
        b"".join(map(itemgetter(slice(off, off + cb)), bufs))
        for off in range(0, tb, cb)
    ]


def _count_masks(c: int, total: int) -> List[int]:
    """Even-field masks for the in-slab count rounds (fields start one
    byte wide — the translate pass already merged axes 0..2)."""
    return [lanes.rep_mask(8 << r, total) for r in range(c - 3)]


def _grouped_sum(vals: Sequence[int], m0: int) -> Tuple[int, int]:
    """Sum 8-bit-field count vectors (field values <= 8) into 16-bit
    fields: plain big-int adds in carry-free groups of 31 (31 * 8 = 248
    never carries across a byte), then one widening round per group.

    Returns ``(sum16, even16)`` where ``even16`` is the summed round-0
    even slice — the seed of the axis-3 branch in the weight chains.
    """
    s16 = 0
    e16 = 0
    for k in range(0, len(vals), 31):
        p = sum(vals[k:k + 31])
        e = p & m0
        s16 += e + ((p >> 8) & m0)
        e16 += e
    return s16, e16


def _slab_columns(bits_list: Sequence[int], n: int, count: int, h: int):
    """The slab twin of :func:`repro.kernels.prekey._lane_columns`:
    per-table total weights, per-axis negative-cofactor-weight columns
    and per-axis ``min(ncw, pcw)`` columns, from one pass.

    Weight flow: one popcount translate per slab collapses axes 0..2
    into byte counts (plus three masked translates seeding the
    axis-0/1/2 branches), then everything is summed *across slabs
    before widening* — the masked-add rounds are linear in the field
    values, so chain(sum) == sum(chains), and the carry-free group adds
    of :func:`_grouped_sum` cost one pass per slab where a per-slab
    chain would cost ``4 * (c - 3)``.  The total-weight chain's even
    slices are then exactly the slab-summed in-slab branches, the high
    axes need one half-batch grouped sum each, and no per-slab chain
    ever runs.
    """
    c = n - h
    size = 1 << n
    half = size >> 1
    nslabs = 1 << h
    total = count << c
    cb = 1 << (c - 3)
    fb = int.from_bytes
    masks = _count_masks(c, total)
    nrounds = len(masks)
    m0 = masks[0]

    t_all = _BYTE_COUNT
    t_axis = _BYTE_COUNT_AXIS
    ty: List[int] = []
    low: List[List[int]] = [[], [], []]
    for sbuf in pack_slabs(bits_list, n, h):
        ty.append(fb(sbuf.translate(t_all), "little"))
        low[0].append(fb(sbuf.translate(t_axis[0]), "little"))
        low[1].append(fb(sbuf.translate(t_axis[1]), "little"))
        low[2].append(fb(sbuf.translate(t_axis[2]), "little"))

    def widen(z: int, r0: int) -> int:
        for r in range(r0, nrounds):
            w = 8 << r
            m = masks[r]
            z = (z & m) + ((z >> w) & m)
        return z

    # Total-weight chain over the slab-summed byte counts, capturing
    # the even slice at every round: slice r of the summed chain equals
    # the sum of the per-slab slices, i.e. the in-slab ncw column for
    # axis 3 + r already reduced over all high axes.
    y, e0 = _grouped_sum(ty, m0)
    branch_f: List[int] = [e0]
    for r in range(1, nrounds):
        w = 8 << r
        m = masks[r]
        t = y & m
        branch_f.append(t)
        y = t + ((y >> w) & m)
    S = y

    ncw_f: List[int] = []
    for zs in low:
        z, _ = _grouped_sum(zs, m0)
        ncw_f.append(widen(z, 1))
    for r, z in enumerate(branch_f):
        ncw_f.append(widen(z, r + 1))
    for j in range(h):
        bit = 1 << j
        z, _ = _grouped_sum(
            [ty[s] for s in range(nslabs) if not s & bit], m0
        )
        ncw_f.append(widen(z, 1))

    # SWAR min(ncw, pcw), same borrow trick as the flat pipeline: the
    # probe bit sits at position n of each 2**c-bit field (2**c > n for
    # every supported width).
    P = lanes.rep_bit(n, 1 << c, total)
    mins_f = []
    for E in ncw_f:
        pcw = S - E
        ge = ((E | P) - pcw) & P
        bf = ge - (ge >> n)
        mins_f.append(E ^ ((E ^ pcw) & bf))
    min_cols = [lanes.extract_lanes(x, cb, count, half) for x in mins_f]
    ncw_cols = [lanes.extract_lanes(x, cb, count, half) for x in ncw_f]
    w = lanes.extract_lanes(S, cb, count, size)
    return w, ncw_cols, min_cols


def batch_prekeys(
    bits_list: Sequence[int], n: int
) -> Tuple[List[tuple], List[Tuple[Pair, ...]]]:
    """Coarse pre-keys and cofactor-weight vectors, slab layout.

    Bit-identical to :func:`repro.kernels.prekey.batch_prekeys` (and to
    the scalar ``coarse_prekey``); only the internal layout differs.
    """
    count = len(bits_list)
    if not count:
        return [], []
    if not supported(n):
        return prekey.batch_prekeys(bits_list, n)
    cols = _slab_columns(bits_list, n, count, slab_h(n))
    return prekey.finish_prekeys(cols, bits_list, n)
