"""Influence vectors and sensitivity signatures.

The paper's weight signatures (Section 4.1) are blind to *weight twins*:
npn-inequivalent pairs that agree on every cofactor-weight multiset.
The follow-on literature closes much of that gap with two richer — but
still cheap — invariant families, both computed here straight off the
packed truth table:

* the **influence vector**: ``inf_i = |f_{x_i=0} XOR f_{x_i=1}|``, the
  weight of the Boolean difference along axis ``i`` counted over the
  ``2**(n-1)`` points of the half-domain.  Complementing the output or
  negating any input leaves every ``inf_i`` unchanged; permutation
  relabels the vector, so its multiset is fully npn-invariant.
* **sensitivity signatures**: the point sensitivity
  ``s(x) = |{i : f(x) != f(x ^ e_i)}|`` is summarized as (a) the
  function profile — histograms of ``s`` over the on-set and off-set,
  phase-normalized by a lexmin since complementing the output swaps the
  two — and (b) per-variable *columns* — the histogram of ``s`` over
  the ``i``-boundary ``{x : f(x) != f(x ^ e_i)}``, npn-invariant per
  variable and permutation-covariant as a vector.

Everything is bit-plane arithmetic on the packed table: the ``n``
Boolean-difference tables are ripple-added into ``ceil(log2(n + 1))``
counter planes, per-value masks select the points with ``s(x) == v``,
and popcounts of those masks against the on-set / off-set / boundary
masks yield every histogram.  Total cost is ``O(n**2)`` big-integer
operations — far below GRM-form construction — which is what lets the
matcher's tier dispatcher try these families *before* any GRM work.

The influence routine doubles as the large-``n`` implementation of the
batch influence tier: :mod:`repro.kernels.influence` batches it only up
to ``n = 10`` and routes wider tables back here per lane, because the
masked popcounts below already run at C speed and the packed pipeline's
extra rounds stop amortizing (measured crossover; see
:data:`repro.kernels.prekey.BATCH_MAX_N`).

Results are memoized per ``(n, bits)`` so that, within one
classification or match, the matcher, the engine's pre-key tiers, the
batch-kernel fallbacks and the refinement stages share one computation.
Both memos are sized for that reuse, not for reuse across calls: each
holds 256 entries, because in a long-running daemon a larger one mostly
retains cold functions that never return.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

from repro.boolfunc.truthtable import TruthTable
from repro.utils import bitops

__all__ = [
    "influence_vector",
    "influence_profile",
    "influence_profile_parts",
    "np_influence_profile",
    "sensitivity_data",
    "sensitivity_columns",
    "sensitivity_split",
    "sensitivity_profile",
    "np_sensitivity_profile",
    "sensitivity_values",
]

Histogram = Tuple[int, ...]
Columns = Tuple[Histogram, ...]


# ----------------------------------------------------------------------
# Influence
# ----------------------------------------------------------------------

def influence_vector(f: TruthTable) -> Tuple[int, ...]:
    """Per-variable Boolean-difference weights ``inf_i``.

    ``inf_i`` counts the points of the half-domain where the two
    cofactors along ``x_i`` disagree; ``inf_i == 0`` iff ``x_i`` is
    outside the support.  Invariant under output complement and every
    input negation; permutation-covariant.
    """
    return _influence_vector(f.n, f.bits)


@lru_cache(maxsize=1 << 8)
def _influence_vector(n: int, bits: int) -> Tuple[int, ...]:
    masks = bitops.axis_masks(n)
    return tuple(
        bitops.popcount((bits ^ (bits >> (1 << i))) & masks[i]) for i in range(n)
    )


def influence_profile_parts(
    weights: Sequence[Tuple[int, int]], influences: Sequence[int], n: int
) -> Tuple[Tuple[int, int, int], ...]:
    """The npn-invariant influence profile from precomputed parts.

    ``weights`` is the raw per-variable ``(ncw, pcw)`` vector and
    ``influences`` the matching influence vector.  Each variable
    contributes the triple ``(inf_i, min(ncw, pcw), max(ncw, pcw))``;
    the sorted triple multiset is np-invariant, and the lexmin with the
    output-complement image (which maps a sorted pair ``(a, b)`` to
    ``(half - b, half - a)`` and fixes ``inf_i``) makes it npn-invariant.
    Shared by the scalar path and the batch kernel so both produce
    bit-for-bit identical pre-key components.
    """
    half = 1 << (n - 1) if n else 0
    plain = []
    neg = []
    for (ncw, pcw), iv in zip(weights, influences):
        a, b = (ncw, pcw) if ncw <= pcw else (pcw, ncw)
        plain.append((iv, a, b))
        neg.append((iv, half - b, half - a))
    return min(tuple(sorted(plain)), tuple(sorted(neg)))


def influence_profile(f: TruthTable) -> Tuple[Tuple[int, int, int], ...]:
    """The npn-invariant joint influence/weight profile of ``f``."""
    return influence_profile_parts(f.cofactor_weights(), influence_vector(f), f.n)


def np_influence_profile(f: TruthTable) -> Tuple[Tuple[int, int, int], ...]:
    """The np-invariant (fixed output phase) influence profile.

    No output-phase lexmin: two functions np-equivalent as-is must agree
    on this exactly, which is a strictly sharper gate than the npn
    profile inside the matcher's phase-normalized inner loop.
    """
    return tuple(
        sorted(
            (iv, min(ncw, pcw), max(ncw, pcw))
            for (ncw, pcw), iv in zip(f.cofactor_weights(), influence_vector(f))
        )
    )


# ----------------------------------------------------------------------
# Sensitivity
# ----------------------------------------------------------------------

def sensitivity_data(f: TruthTable) -> Tuple[Columns, Histogram, Histogram]:
    """``(columns, hist_on, hist_off)`` of ``f``.

    ``columns[i][v]`` counts points ``x`` on the ``i``-boundary (i.e.
    with ``f(x) != f(x ^ e_i)``) whose sensitivity is ``v``;
    ``hist_on[v]`` / ``hist_off[v]`` count on-set / off-set points with
    sensitivity ``v``.  All histograms have ``n + 1`` entries.
    """
    return _sensitivity_data(f.n, f.bits)


@lru_cache(maxsize=1 << 8)
def _sensitivity_data(n: int, bits: int) -> Tuple[Columns, Histogram, Histogram]:
    if n == 0:
        on = bits & 1
        return (), (on,), (1 - on,)
    tm = bitops.table_mask(n)
    masks = bitops.axis_masks(n)
    # Boolean-difference tables d_i over the full domain (d_i is
    # symmetric along axis i: d_i[x] == d_i[x ^ e_i]), ripple-added as
    # 1-bit values into counter bit-planes so plane p holds bit p of
    # s(x) for every point at once.
    nplanes = n.bit_length()
    planes = [0] * nplanes
    diffs = []
    for i in range(n):
        span = 1 << i
        x = (bits ^ (bits >> span)) & masks[i]
        d = x | (x << span)
        diffs.append(d)
        carry = d
        for p in range(nplanes):
            nxt = planes[p] & carry
            planes[p] ^= carry
            carry = nxt
    vmasks = []
    for v in range(n + 1):
        m = tm
        for p in range(nplanes):
            m &= planes[p] if (v >> p) & 1 else ~planes[p]
        vmasks.append(m)
    pc = bitops.popcount
    hist_on = tuple(pc(m & bits) for m in vmasks)
    hist_off = tuple(pc(m & ~bits & tm) for m in vmasks)
    columns = tuple(
        tuple(pc(m & d) for m in vmasks) for d in diffs
    )
    return columns, hist_on, hist_off


def sensitivity_columns(f: TruthTable) -> Columns:
    """Per-variable sensitivity histograms over each ``i``-boundary.

    Column ``i`` is invariant under every input negation (flipping axis
    ``j != i`` relabels boundary points; flipping axis ``i`` fixes the
    boundary pointwise in pairs) and under output complement (``d_i``
    and ``s`` are unchanged); permutation relabels the columns.
    """
    return _sensitivity_data(f.n, f.bits)[0]


def sensitivity_split(f: TruthTable) -> Tuple[Histogram, Histogram]:
    """Phase-normalized on/off sensitivity histograms (npn-invariant).

    Complementing the output swaps the on-set and off-set histograms
    while fixing every ``s(x)``, so the lexmin of the two orderings is
    invariant.
    """
    _, hist_on, hist_off = _sensitivity_data(f.n, f.bits)
    return min((hist_on, hist_off), (hist_off, hist_on))


def sensitivity_profile(
    f: TruthTable,
) -> Tuple[Tuple[Histogram, Histogram], Columns]:
    """The full npn-invariant sensitivity signature of ``f``.

    The phase-normalized on/off split plus the *sorted multiset* of the
    per-variable columns — the multiset normalization is what absorbs
    input permutation, and it is exactly the step the fuzzer's
    ``sensitivity-unsorted`` mutant corrupts.
    """
    columns, hist_on, hist_off = _sensitivity_data(f.n, f.bits)
    return min((hist_on, hist_off), (hist_off, hist_on)), tuple(sorted(columns))


def np_sensitivity_profile(
    f: TruthTable,
) -> Tuple[Histogram, Histogram, Columns]:
    """The np-invariant (fixed output phase) sensitivity signature."""
    columns, hist_on, hist_off = _sensitivity_data(f.n, f.bits)
    return hist_on, hist_off, tuple(sorted(columns))


def sensitivity_values(f: TruthTable) -> Tuple[int, ...]:
    """``s(x)`` for every point ``x``, in minterm order.

    Reference-grade (``O(n * 2**n)``): used by the invariance suite's
    naive cross-checks and by the fuzzer's column-corruption mutant,
    not by any production path.
    """
    n, bits = f.n, f.bits
    vals = [0] * (1 << n)
    for i in range(n):
        d = bits ^ bitops.flip_axis(bits, n, i)
        for x in bitops.iter_bits(d):
            vals[x] += 1
    return tuple(vals)
