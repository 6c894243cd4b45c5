"""Semi-canonical npn-invariant pre-keys for batch classification.

A *pre-key* is a cheap, npn-invariant summary of a function: equivalent
functions always share a pre-key, inequivalent functions usually do not.
The batch engine buckets functions by pre-key before any canonical form
is computed, which (a) proves inequivalence across buckets for free,
(b) keeps every npn class wholly inside one bucket — the property that
makes the cross-bucket merge a disjoint union — and (c) restricts the
membership fast-path's candidate set to the handful of classes already
discovered in the same bucket.

Four tiers keep the common case cheap:

* the **coarse** key is pure popcount arithmetic: variable count, support
  size, the on-set weight min-pair ``min(|f|, 2**n - |f|)``, and the
  sorted multiset of per-variable cofactor weight pairs, phase-normalized
  by taking the lexicographic minimum over ``{f, ~f}``;
* the **influence** key appends the joint influence/weight-pair profile
  of :func:`repro.core.sensitivity.influence_profile` — one XOR plus
  popcount per variable, so it is the first escalation inside a collided
  coarse bucket (batch path: :func:`repro.kernels.batch_influence`);
* the **sensitivity** key appends the phase-normalized sensitivity
  profile (on/off histograms of the point sensitivity plus the sorted
  per-variable boundary columns, ``O(n**2)`` popcounts);
* the **fine** key appends the pair-symmetry counts (how many variable
  pairs carry a positive NE/E symmetry, how many a skew symmetry), which
  cost ``O(n**2)`` cofactor comparisons and are therefore only computed
  inside buckets where every cheaper tier collided.

Every tier *appends* components after the coarse 4-tuple, so a bucket
key's ``[:4]`` prefix is always the coarse key — the store's warm-start
routing depends on that.

Invariance arguments: permutation only reorders the multisets; negating
input ``i`` swaps ``(ncw, pcw)`` (handled by the sorted pair) and swaps
NE with E and skew-NE with skew-E (handled by counting the union);
complementing the output maps every cofactor weight ``w`` to
``2**(n-1) - w`` (handled by the lexmin over phases) and preserves every
cofactor equality/complement relation.  Property tests drive random
transforms through both tiers.
"""

from __future__ import annotations

from typing import Tuple

from repro.boolfunc.truthtable import TruthTable
from repro.core import sensitivity as sens_mod
from repro.utils import bitops

CoarseKey = Tuple[int, int, int, Tuple[Tuple[int, int], ...]]
InfluenceKey = Tuple  # CoarseKey + (influence profile,)
SensitivityKey = Tuple  # InfluenceKey + (sensitivity profile,)
FineKey = Tuple[int, int, int, Tuple[Tuple[int, int], ...], int, int]


def coarse_prekey(f: TruthTable) -> CoarseKey:
    """The tier-1 pre-key: weight min-pair and cofactor-weight multiset.

    Implemented directly over the packed bits — this runs once per
    distinct function in a batch, before any canonicalization, so it
    must not allocate intermediate tables.
    """
    n = f.n
    bits = f.bits
    w = f.count()
    wmin = min(w, (1 << n) - w)
    half = 1 << (n - 1) if n else 0
    pairs = []
    support = 0
    for i in range(n):
        lo = bits & bitops.axis_mask(n, i)
        hi = (bits >> (1 << i)) & bitops.axis_mask(n, i)
        if lo != hi:
            support |= 1 << i
        ncw = bitops.popcount(lo)
        pcw = bitops.popcount(hi)
        pairs.append((ncw, pcw) if ncw <= pcw else (pcw, ncw))
    profile = tuple(sorted(pairs))
    # Complementing f maps a sorted pair (a, b) to (half - b, half - a);
    # the lexmin of the two profiles is invariant under output phase.
    profile_neg = tuple(sorted((half - b, half - a) for (a, b) in pairs))
    return (n, bitops.popcount(support), wmin, min(profile, profile_neg))


def influence_prekey(f: TruthTable, coarse: CoarseKey = None) -> InfluenceKey:
    """The influence tier: the coarse key plus the npn-invariant joint
    influence/weight-pair profile.

    Pass ``coarse`` when the tier-1 key is already known.  The profile
    pairs each variable's Boolean-difference weight with its cofactor
    weight pair and lexmins over the output phase — see
    :func:`repro.core.sensitivity.influence_profile`.
    """
    if coarse is None:
        coarse = coarse_prekey(f)
    return coarse + (sens_mod.influence_profile(f),)


def sensitivity_prekey(f: TruthTable, influence: InfluenceKey = None) -> SensitivityKey:
    """The sensitivity tier: the influence key plus the phase-normalized
    sensitivity profile (:func:`repro.core.sensitivity.sensitivity_profile`).
    """
    if influence is None:
        influence = influence_prekey(f)
    return influence + (sens_mod.sensitivity_profile(f),)


def symmetry_counts(f: TruthTable) -> Tuple[int, int]:
    """``(positive, skew)`` counts of symmetric variable pairs of ``f``.

    A pair counts as positive when it carries NE or E symmetry, as skew
    when it carries skew-NE or skew-E; negating one input swaps NE with
    E (and skew-NE with skew-E), so the union counts are np-invariant
    where the individual types are not.  Pure bit arithmetic — the four
    two-variable cofactors are compared as packed integers.
    """
    n = f.n
    bits = f.bits
    masks = [bitops.axis_mask(n, i) for i in range(n)]
    shifted = [bits >> (1 << i) for i in range(n)]
    pos = 0
    neg = 0
    # All four cofactor relations of a pair compare quarter-domains in
    # place (positions with x_i = x_j = 0), so each test is a handful of
    # shift/xor/mask operations:
    #   f01 == f10   <=>  ((f >> 2**j) ^ (f >> 2**i)) & aij == 0
    #   f00 == f11   <=>  (f ^ (f >> 2**i >> 2**j)) & aij == 0
    # and the skew variants hit the all-ones pattern aij instead of 0.
    for i in range(n):
        si = shifted[i]
        mi = masks[i]
        for j in range(i + 1, n):
            aij = mi & masks[j]
            ne = (shifted[j] ^ si) & aij
            e = (bits ^ (si >> (1 << j))) & aij
            if ne == 0 or e == 0:
                pos += 1
            if ne == aij or e == aij:
                neg += 1
    return pos, neg


def fine_prekey(f: TruthTable, coarse: CoarseKey = None) -> FineKey:
    """The symmetry pre-key tier: a base key plus pair-symmetry counts.

    ``coarse`` may be any lower-tier key (coarse, influence or
    sensitivity) — the symmetry counts are appended to whatever prefix
    the caller escalated through.  Pass it when already known to avoid
    recomputing.
    """
    if coarse is None:
        coarse = coarse_prekey(f)
    return coarse + symmetry_counts(f)
