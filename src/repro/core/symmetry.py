"""Symmetry detection (Section 5 of the paper).

For a variable pair the paper considers four symmetry types, defined by
equalities between the four two-variable cofactors (``f_ab`` denotes the
cofactor with ``x_i = a, x_j = b``):

=============  ======================  ==========================
type           definition              detectable in a GRM when
=============  ======================  ==========================
NE             ``f_01 = f_10``         polarities of i, j equal
E              ``f_00 = f_11``         polarities of i, j differ
skew-NE (!NE)  ``f_01 = ~f_10``        polarities equal (extra 1)
skew-E  (!E)   ``f_00 = ~f_11``        polarities differ (extra 1)
=============  ======================  ==========================

Writing the GRM cube set as ``f = A ⊕ t_i·B ⊕ t_j·C ⊕ t_i·t_j·D``
(Section 5.3's branch decomposition), the *positive* in-form relation is
``B = C`` and the *negative* (skew) relation is ``B = C Δ {1}``; the
polarity combination of the pair then names the symmetry type.  Both the
cofactor definitions (ground truth) and the GRM checks are implemented
and cross-verified in the tests.
"""

from __future__ import annotations


from math import comb
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.boolfunc.truthtable import TruthTable
from repro.grm.forms import Grm
from repro.utils import bitops

NE = "NE"
E = "E"
SKEW_NE = "skew-NE"
SKEW_E = "skew-E"

ALL_SYMMETRY_TYPES = (NE, E, SKEW_NE, SKEW_E)
POSITIVE_TYPES = (NE, E)
NEGATIVE_TYPES = (SKEW_NE, SKEW_E)


# ----------------------------------------------------------------------
# Ground-truth cofactor definitions
# ----------------------------------------------------------------------

def _pair_cofactors(f: TruthTable, i: int, j: int) -> Tuple[int, int, int, int, int]:
    """``(f_00, f_01, f_10, f_11, mask)`` read off the packed table.

    Each cofactor is the sub-vector at the minterms where
    ``x_i = x_j = 0`` (``mask``), shifted into place from its quarter of
    the table, so two cofactors are equal iff these integers are and
    complementary iff their XOR is ``mask``.
    """
    if i == j:
        raise ValueError("symmetry is defined for distinct variables")
    n, bits = f.n, f.bits
    mask = bitops.axis_mask(n, i) & bitops.axis_mask(n, j)
    si, sj = 1 << i, 1 << j
    return (
        bits & mask,
        (bits >> sj) & mask,
        (bits >> si) & mask,
        (bits >> (si | sj)) & mask,
        mask,
    )


def has_symmetry(f: TruthTable, i: int, j: int, kind: str) -> bool:
    """Decide one symmetry type for a pair directly from the cofactors."""
    f00, f01, f10, f11, mask = _pair_cofactors(f, i, j)
    if kind == NE:
        return f01 == f10
    if kind == E:
        return f00 == f11
    if kind == SKEW_NE:
        return f01 ^ f10 == mask
    if kind == SKEW_E:
        return f00 ^ f11 == mask
    raise ValueError(f"unknown symmetry type {kind!r}")


def pair_symmetries(f: TruthTable, i: int, j: int) -> FrozenSet[str]:
    """All symmetry types held by the pair (cofactor definitions)."""
    f00, f01, f10, f11, mask = _pair_cofactors(f, i, j)
    held = (f01 == f10, f00 == f11, f01 ^ f10 == mask, f00 ^ f11 == mask)
    return frozenset(k for k, ok in zip(ALL_SYMMETRY_TYPES, held) if ok)


def has_any_symmetry(f: TruthTable, i: int, j: int) -> bool:
    """True when the pair holds any of the four types (first hit wins)."""
    f00, f01, f10, f11, mask = _pair_cofactors(f, i, j)
    return f01 == f10 or f00 == f11 or f01 ^ f10 == mask or f00 ^ f11 == mask


def has_positive_symmetry(f: TruthTable, i: int, j: int) -> bool:
    """NE or E symmetry (the paper's *positive symmetry*)."""
    f00, f01, f10, f11, _ = _pair_cofactors(f, i, j)
    return f01 == f10 or f00 == f11


# ----------------------------------------------------------------------
# GRM-form detection (Section 5.3)
# ----------------------------------------------------------------------

def grm_pair_relation(grm: Grm, i: int, j: int) -> Tuple[bool, bool]:
    """The in-form relation of the pair: ``(positive, negative)``.

    ``positive`` is ``B == C`` (the dc/pole branch equality the paper
    checks on the FDD); ``negative`` is ``B == C Δ {1}`` (the same check
    after XORing a constant 1 into one branch).

    Computed in O(1) big-integer operations on the packed coefficient
    vector: the ``B`` branch is the sub-vector of cubes containing the
    ``i`` literal but not ``j``'s (re-indexed with the literal dropped),
    and symmetrically for ``C``; the skew relation differs from equality
    exactly in the constant-cube position (bit 0 of the sub-vectors).
    """
    return _pair_relation_coeffs(grm.coefficients, grm.n, i, j)


def _pair_relation_coeffs(coeffs: int, n: int, i: int, j: int) -> Tuple[bool, bool]:
    both_clear = bitops.axis_mask(n, i) & bitops.axis_mask(n, j)
    b = (coeffs >> (1 << i)) & both_clear
    c = (coeffs >> (1 << j)) & both_clear
    if b == c:
        return True, False
    return False, (b ^ c) == 1


def grm_detectable_types(polarity: int, i: int, j: int) -> Tuple[str, str]:
    """Which (positive, negative) symmetry types this polarity pair reveals."""
    same = ((polarity >> i) & 1) == ((polarity >> j) & 1)
    return (NE, SKEW_NE) if same else (E, SKEW_E)


def grm_pair_symmetries(grm: Grm, i: int, j: int) -> FrozenSet[str]:
    """Symmetry types of the pair visible in this one GRM form."""
    positive, negative = grm_pair_relation(grm, i, j)
    pos_type, neg_type = grm_detectable_types(grm.polarity, i, j)
    found = set()
    if positive:
        found.add(pos_type)
    if negative:
        found.add(neg_type)
    return frozenset(found)


def symmetry_polarity_family(base_polarity: int, n: int) -> List[int]:
    """The ≤ n polarity vectors of Section 5.3.

    Vectors where the i-th and (i+1)-th differ only in entry i expose,
    for every variable pair, both a same-polarity and a
    different-polarity combination — enough to test all four types.
    """
    vectors = [base_polarity]
    current = base_polarity
    for i in range(n - 1):
        current ^= 1 << i
        vectors.append(current)
    return vectors


def all_pair_symmetries_via_grm(f: TruthTable, base_polarity: int = 0) -> Dict[Tuple[int, int], FrozenSet[str]]:
    """All four symmetry types for every pair using ≤ n GRM forms.

    This is the paper's headline symmetry procedure: instead of the
    conventional per-pair cofactor comparisons, build the polarity family
    once and read every pair's relations off the cube sets.
    """
    from repro.grm.transform import fprm_coefficients

    n = f.n
    found: Dict[Tuple[int, int], Set[str]] = {
        (i, j): set() for i in range(n) for j in range(i + 1, n)
    }
    covered: Dict[Tuple[int, int], Set[bool]] = {
        pair: set() for pair in found
    }
    for polarity in symmetry_polarity_family(base_polarity, n):
        # Work on the raw coefficient vector: building Grm objects would
        # materialize every cube, which dominates for dense functions.
        coeffs = fprm_coefficients(f.bits, n, polarity)
        for (i, j), acc in found.items():
            same = ((polarity >> i) & 1) == ((polarity >> j) & 1)
            if same in covered[(i, j)]:
                continue
            covered[(i, j)].add(same)
            positive, negative = _pair_relation_coeffs(coeffs, n, i, j)
            pos_type, neg_type = grm_detectable_types(polarity, i, j)
            if positive:
                acc.add(pos_type)
            if negative:
                acc.add(neg_type)
    return {pair: frozenset(acc) for pair, acc in found.items()}


# ----------------------------------------------------------------------
# Symmetric grouping for the matcher
# ----------------------------------------------------------------------

def positive_symmetric_groups(grms: Iterable[Grm], n: int) -> List[FrozenSet[int]]:
    """Transitive groups of variables that are in-form positive symmetric.

    In-form positive symmetry (``B == C``) makes the cube set invariant
    under exchanging the two variables, so within a group any assignment
    order is equivalent — the matcher's search collapses accordingly.
    NE and E mix transitively into one positive group (Section 5.1.3).
    """
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for grm in grms:
        for i in range(n):
            for j in range(i + 1, n):
                if find(i) == find(j):
                    continue
                positive, _ = grm_pair_relation(grm, i, j)
                if positive:
                    union(i, j)
    groups: Dict[int, Set[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), set()).add(v)
    return [frozenset(g) for g in groups.values()]


# ----------------------------------------------------------------------
# Total symmetry (Section 5.1.4)
# ----------------------------------------------------------------------

def is_totally_symmetric(f: TruthTable) -> bool:
    """Ground truth for the paper's total symmetry: every pair positive
    symmetric (NE **or** E — polarity-modulo symmetry)."""
    return all(
        has_positive_symmetry(f, i, j)
        for i in range(f.n)
        for j in range(i + 1, f.n)
    )


def is_totally_symmetric_grm(grm: Grm) -> bool:
    """Theorem 8 check: every cube length ``k`` has 0 or ``C(n, k)`` cubes.

    Valid when ``grm`` is built under a pole-consistent vector (e.g. the
    M-pole-driven vector from :mod:`repro.core.polarity`); simple
    arithmetic on the FC histogram, no pairwise work.
    """
    hist = grm.cube_length_histogram()
    return all(count in (0, comb(grm.n, k)) for k, count in enumerate(hist))


def is_classically_symmetric(f: TruthTable) -> bool:
    """Classic total symmetry: the value depends only on the input weight."""
    by_weight: Dict[int, int] = {}
    for m in range(1 << f.n):
        w = bitops.popcount(m)
        v = f.evaluate(m)
        if by_weight.setdefault(w, v) != v:
            return False
    return True


# ----------------------------------------------------------------------
# Linear variables and linear functions (Section 5.4)
# ----------------------------------------------------------------------

def linear_variables(f: TruthTable) -> int:
    """Mask of variables with ``∂f/∂x_i ≡ 1`` (``f = x_i ⊕ g``)."""
    mask = 0
    one = TruthTable.one(f.n)
    for i in range(f.n):
        if f.boolean_difference(i) == one:
            mask |= 1 << i
    return mask


def linear_variables_via_grm(grm: Grm) -> int:
    """Linear variables read directly off a GRM form: ``x_i`` is linear
    iff its single-literal cube is the *only* cube containing it."""
    fvc = grm.variable_cube_counts()
    mask = 0
    for i in range(grm.n):
        if fvc[i] == 1 and (1 << i) in grm.cubes:
            mask |= 1 << i
    return mask


def is_linear_function(f: TruthTable) -> bool:
    """True for ``c0 ⊕ x_a ⊕ x_b ⊕ ...`` over the full support."""
    g = f
    if g.evaluate(0):
        g = ~g
    expected = TruthTable.zero(f.n)
    for i in range(f.n):
        if g.depends_on(i):
            expected = expected ^ TruthTable.var(f.n, i)
    return g == expected
