"""Fused batch pre-keys: the engine's coarse NPN pre-key for a whole
bucket in one pass over the packed batch.

The scalar :func:`repro.engine.prekey.coarse_prekey` builds, per
function, the sorted min/max cofactor-weight-pair profile and takes the
lexicographic minimum of the profile and its negation image.  The batch
kernel reproduces those tuples bit-for-bit from three observations:

* ``ncw_i + pcw_i = |f|`` for every variable, so each (min, max)-ordered
  pair is determined by ``m_i = min(ncw_i, pcw_i)`` and the function
  weight ``fw`` alone, and sorting pairs lexicographically is the same
  as sorting the ``m_i``.
* ``min(profile, profile_neg)`` resolves *globally* on ``fw``: for
  ``fw < 2**(n-1)`` the plain profile wins, for ``fw > 2**(n-1)`` the
  negation image wins, and at ``fw == 2**(n-1)`` the two are equal
  element-wise (each pair and its image are both ``(m, half - m)``).
  So the reported weight is ``wmin = min(fw, 2**n - fw)`` and every
  output pair is a pure function of ``(m_i, fw)``.
* A variable is outside the support only if its pair is the equal pair
  ``(fw/2, fw/2)`` — so the (rare) exact cofactor comparison runs only
  for variables whose extracted min hits ``fw // 2`` on an even ``fw``.

The weights come from one *shared popcount butterfly* over the packed
batch (:func:`butterfly`).  Its main chain widens the counting fields
one axis at a time — after round ``j`` every ``2**(j+1)``-bit field of
``S`` holds the popcount of that block — and before each widening the
even-field slice ``S & m`` is saved.  That slice, reduced independently
over the *remaining* axes, is exactly the negative cofactor weight
``ncw_i`` of axis ``i`` for every lane: the branch point already
separated the ``x_i = 0`` half-blocks from the ``x_i = 1`` half-blocks.
The batch therefore gets the full weight *and* all ``2n`` cofactor
weights (``pcw_i = |f| - ncw_i``) from ``n + n*(n-1)/2`` butterfly
rounds instead of ``2n`` masked popcounts per function.  The round body
uses the 4-op form ``t = S & m; S = t + ((S >> w) & m)`` rather than
the textbook ``(S + (S >> w)) & m``: the latter saves an op on paper
but measures slower in CPython because the addition runs at double
width before masking.

The per-lane mins come out of the shared butterfly with a SWAR
compare-and-select (no per-variable popcounts), and the final tuples are
materialized through lazy *pair-row tables*: ``pair_row(size, fw)[m] ==
(m, fw - m)``, so one C-level ``map(row.__getitem__, mins)`` per
function builds the whole profile — and equal pairs are shared objects
across the batch instead of fresh tuples.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.kernels import lanes
from repro.utils import bitops

Pair = Tuple[int, int]

BATCH_MAX_N = 10
"""Widest tables the packed pipelines batch.  Lanes then hold at most
``2**10`` bits and every extracted field fits in two bytes.  The flat
layout pays ``n + n*(n-1)/2`` butterfly rounds over the whole batch, so
its margin over the scalar loop decays with ``n`` and falls below 1x by
``n = 11`` (BENCH_kernels.json); wider groups run the scalar loop."""

_pair_rows: Dict[Tuple[int, int], List[Pair]] = {}
_npair_rows: Dict[Tuple[int, int], List[Pair]] = {}


def pair_row(size: int, fw: int) -> List[Pair]:
    """``pair_row(size, fw)[m] == (m, fw - m)`` for every possible min
    ``m`` of a weight-``fw`` function on ``size`` minterms."""
    key = (size, fw)
    r = _pair_rows.get(key)
    if r is None:
        top = min(fw, size >> 1)
        r = _pair_rows[key] = [(m, fw - m) for m in range(top + 1)]
    return r


def npair_row(size: int, fw: int) -> List[Pair]:
    """The negation-image row for ``fw > size // 2``:
    ``npair_row(size, fw)[m] == (m + half - fw, half - m)``, i.e. the
    min/max pair of the complement function indexed by the min of the
    original."""
    key = (size, fw)
    r = _npair_rows.get(key)
    if r is None:
        half = size >> 1
        d = half - fw
        r = _npair_rows[key] = [(m + d, half - m) for m in range(min(fw, half) + 1)]
    return r


def butterfly(packed: int, n: int, count: int) -> Tuple[int, List[int]]:
    """Shared popcount tree over a packed batch.

    Returns ``(S, ncw)``: ``S`` has each lane's total weight in its low
    ``n + 1`` bits, and ``ncw[i]`` has each lane's negative cofactor
    weight of axis ``i`` in the same position.  Lanes must be the packed
    layout of :func:`repro.kernels.lanes.pack_tables` with ``n >= 3``
    (byte-aligned lanes of exactly ``2**n`` bits).
    """
    total_bits = count << n
    S = packed
    branches = []
    for j in range(n):
        w = 1 << j
        m = lanes.rep_mask(w, total_bits)
        t = S & m
        branches.append(t)
        S = t + ((S >> w) & m)
    ncw = []
    for i in range(n):
        E = branches[i]
        for j in range(i + 1, n):
            w = 1 << j
            m = lanes.rep_mask(w, total_bits)
            E = (E & m) + ((E >> w) & m)
        ncw.append(E)
    return S, ncw


def _lane_columns(bits_list: Sequence[int], n: int, count: int):
    """Pack, reduce, SWAR-min and extract: the front half of
    :func:`batch_prekeys`.

    Returns ``(w, ncw_cols, min_cols)`` — per-lane total weights, one
    extracted column per variable of negative cofactor weights, and one
    per variable of ``min(ncw, pcw)``.
    """
    size = 1 << n
    half = size >> 1
    total_bits = count << n
    nbytes = lanes.lane_bytes(n)
    packed = lanes.pack_tables(bits_list, n)
    S, ncw_f = butterfly(packed, n, count)
    # SWAR min(ncw, pcw): with pcw = S - E, set a probe bit P above each
    # lane's count field, subtract, and smear the surviving borrow into a
    # field mask bf that selects pcw exactly where pcw < ncw is false...
    # i.e. ge = "ncw >= pcw" per lane; blend E and pcw through bf.
    P = lanes.rep_bit(n, size, total_bits)
    mins_f = []
    for E in ncw_f:
        pcw = S - E
        ge = ((E | P) - pcw) & P
        bf = ge - (ge >> n)
        mins_f.append(E ^ ((E ^ pcw) & bf))
    min_cols = [lanes.extract_lanes(x, nbytes, count, half) for x in mins_f]
    ncw_cols = [lanes.extract_lanes(x, nbytes, count, half) for x in ncw_f]
    w = lanes.extract_lanes(S, nbytes, count, size)
    return w, ncw_cols, min_cols


def batch_prekeys(
    bits_list: Sequence[int], n: int
) -> Tuple[List[tuple], List[Tuple[Pair, ...]]]:
    """Coarse pre-keys *and* cofactor-weight vectors for a whole batch.

    Returns ``(keys, weights)`` where ``keys[k]`` equals
    ``coarse_prekey(TruthTable(n, bits_list[k]))`` bit-for-bit and
    ``weights[k]`` is the ``((ncw, pcw), ...)`` vector (the two share
    one butterfly, which is where the batch speedup comes from).
    Scalar fallback outside :func:`supported` widths.
    """
    count = len(bits_list)
    if not count:
        return [], []
    if not supported(n):
        return _scalar_prekeys(bits_list, n)
    size = 1 << n
    half = size >> 1
    w, ncw_cols, min_cols = _lane_columns(bits_list, n, count)
    keys: List[tuple] = []
    weights: List[Tuple[Pair, ...]] = []
    kap = keys.append
    wap = weights.append
    axis_masks = bitops.axis_masks(n)
    for fw, row, nrow, bits in zip(w, zip(*min_cols), zip(*ncw_cols), bits_list):
        pf = pair_row(size, fw)
        wap(tuple(map(pf.__getitem__, nrow)))
        hf = fw >> 1
        if (fw & 1) or hf not in row:
            support = n
        else:
            support = n
            for i, m in enumerate(row):
                if m == hf:
                    span = 1 << i
                    am = axis_masks[i]
                    if (bits & am) == ((bits >> span) & am):
                        support -= 1
        srow = sorted(row)
        if fw <= half:
            kap((n, support, fw, tuple(map(pf.__getitem__, srow))))
        else:
            kap(
                (
                    n,
                    support,
                    size - fw,
                    tuple(map(npair_row(size, fw).__getitem__, srow)),
                )
            )
    return keys, weights


def supported(n: int) -> bool:
    """Whether the packed pre-key/weight pipeline covers ``n``.

    The byte-strided extraction needs lanes of at least one byte
    (``n >= 3``); above :data:`BATCH_MAX_N` the scalar loop wins.
    """
    return 3 <= n <= BATCH_MAX_N


def _scalar_prekeys(bits_list, n):
    from repro.engine.prekey import coarse_prekey
    from repro.boolfunc.truthtable import TruthTable

    tables = [TruthTable(n, b) for b in bits_list]
    keys = [coarse_prekey(t) for t in tables]
    return keys, [t.cofactor_weights() for t in tables]
