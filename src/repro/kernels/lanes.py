"""Lane packing and replicated-mask construction for bit-parallel kernels.

A *batch* of ``B`` packed truth tables, each ``2**n`` bits wide, is laid
out in the lanes of a single wide Python integer: lane ``k`` occupies
bytes ``[k * lane_bytes, (k + 1) * lane_bytes)`` of the little-endian
byte image, where ``lane_bytes = max(1, 2**n // 8)``.  One big-integer
operation (``& ^ + >>``) then processes every lane simultaneously inside
CPython's C long arithmetic, which is the entire point of the kernel
layer: the per-lane Python interpreter overhead of the scalar loops is
replaced by a handful of machine-speed passes over a contiguous buffer.

Tables narrower than a byte (``n < 3``) still get a whole byte lane so
that packing and extraction stay byte-aligned; the slack bits are zero
on input and every kernel keeps them zero (all cross-lane shifts are
immediately masked back into the lane's live bits).

The replicated masks used by the kernels (a field mask repeated across
the integer, a single bit repeated per lane, an axis mask repeated per
lane) are built by doubling — O(log lanes) big-int ops — and memoized
in plain dict caches keyed by their small integer parameters.  The
caches are cleared wholesale past a size bound: masks rebuild cheaply,
and batches of many distinct sizes must not pin memory forever.
"""

from __future__ import annotations

from typing import Sequence

from repro.utils import bitops

_CACHE_LIMIT = 1024
"""Per-cache entry bound; a full cache is cleared, not LRU-evicted."""


def lane_bytes(n: int) -> int:
    """Bytes per lane for ``n``-variable tables (byte-aligned, min 1)."""
    return max(1, (1 << n) >> 3)


def lane_bits(n: int) -> int:
    """Bits per lane (``8 * lane_bytes``; equals ``2**n`` for n >= 3)."""
    return lane_bytes(n) << 3


def pack_tables(bits_list: Sequence[int], n: int) -> int:
    """Pack a batch of ``2**n``-bit tables into one wide integer.

    Lane ``k`` holds ``bits_list[k]``; the join runs at C speed via one
    ``bytes`` concatenation and one ``int.from_bytes``.
    """
    lb = lane_bytes(n)
    to_b = (lambda nb: lambda b: b.to_bytes(nb, "little"))(lb)
    return int.from_bytes(b"".join(map(to_b, bits_list)), "little")


_family_cache: dict = {}
"""Widest mask built so far per *family* (one family = one replication
pattern, any total width), as ``family_key -> (built_width, mask)``.

Engine buckets come in many distinct sizes, so the per-(pattern,
total_bits) exact caches below miss constantly on ``total_bits``.  The
family cache makes every such miss O(1)-ish: a narrower request is one
AND off the widest mask already built, and a wider request resumes the
doubling from it instead of restarting at the seed.  Entries are the
untrimmed power-of-two image so the doubling can always continue."""


def _grow(family_key, seed: int, start_width: int, total_bits: int) -> int:
    got = _family_cache.get(family_key)
    if got is not None and got[0] >= total_bits:
        m = got[1]
    else:
        if got is not None:
            w, m = got
        else:
            m = seed
            w = start_width
        while w < total_bits:
            m |= m << w
            w <<= 1
        if len(_family_cache) >= _CACHE_LIMIT:
            _family_cache.clear()
        _family_cache[family_key] = (w, m)
    # The doubling overshoots most total_bits; trim so masks used in
    # XOR/ADD position (not just AND) never widen the packed batch.
    return m & ((1 << total_bits) - 1)


_mask_cache: dict = {}


def rep_mask(width: int, total_bits: int) -> int:
    """The low ``width`` bits of every ``2 * width`` block, repeated.

    This is the even-field selector of a strided butterfly round with
    field width ``width``.
    """
    key = (width, total_bits)
    m = _mask_cache.get(key)
    if m is None:
        if len(_mask_cache) >= _CACHE_LIMIT:
            _mask_cache.clear()
        m = _mask_cache[key] = _grow(
            ("m", width), (1 << width) - 1, width << 1, total_bits
        )
    return m


_bit_cache: dict = {}


def rep_bit(bitpos: int, stride: int, total_bits: int) -> int:
    """Bit ``bitpos`` set in every ``stride``-bit lane."""
    key = (bitpos, stride, total_bits)
    m = _bit_cache.get(key)
    if m is None:
        if len(_bit_cache) >= _CACHE_LIMIT:
            _bit_cache.clear()
        m = _bit_cache[key] = _grow(
            ("b", bitpos, stride), 1 << bitpos, stride, total_bits
        )
    return m


_const_cache: dict = {}


def rep_const(value: int, stride: int, total_bits: int) -> int:
    """``value`` replicated into every ``stride``-bit lane.

    ``value`` must fit in ``stride`` bits; used for per-field additive
    constants (the Walsh bias) and whole-table masks.
    """
    key = (value, stride, total_bits)
    m = _const_cache.get(key)
    if m is None:
        if len(_const_cache) >= _CACHE_LIMIT:
            _const_cache.clear()
        m = _const_cache[key] = _grow(
            ("c", value, stride), value, stride, total_bits
        )
    return m


_axis_cache: dict = {}


def rep_axis(n: int, i: int, total_bits: int) -> int:
    """:func:`repro.utils.bitops.axis_mask` replicated into every lane.

    Cached under the small ``(n, i, total_bits)`` key rather than the
    (huge) mask value, so lookups never hash a big integer.
    """
    key = (n, i, total_bits)
    m = _axis_cache.get(key)
    if m is None:
        if len(_axis_cache) >= _CACHE_LIMIT:
            _axis_cache.clear()
        m = _axis_cache[key] = _grow(
            ("a", n, i), bitops.axis_mask(n, i), lane_bits(n), total_bits
        )
    return m


def extract_lanes(x: int, lane_nbytes: int, count: int, maxval: int):
    """Per-lane field values of ``x`` where each lane's value is known
    to be at most ``maxval``.

    Three tiers, fastest first: values below 256 come straight out of a
    strided ``bytes`` slice (one C call); values that may *equal* 256
    reuse the byte column unless a lane actually overflowed (a low byte
    of 0 is then ambiguous with value 0); anything wider zips the low
    and high byte columns.  The packed kernels stop at ``n = 10``, so
    ``maxval`` never exceeds ``2**10`` and two bytes always suffice.
    Returns a ``bytes`` (tier 1/2) or ``list`` — both index and iterate
    like a sequence of ints.
    """
    buf = x.to_bytes(count * lane_nbytes, "little")
    lows = buf[0::lane_nbytes]
    if maxval < 256:
        return lows
    if maxval == 256 and 0 not in lows:
        return lows
    highs = buf[1::lane_nbytes]
    return [lo | (hi << 8) for lo, hi in zip(lows, highs)]
