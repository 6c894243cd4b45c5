"""Tests for Section 5: the four symmetry types, total symmetry, linear
variables, and the paper's theorems 4-13 as executable properties."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.baselines.naive_symmetry import all_pair_symmetries_naive
from repro.boolfunc import ops
from repro.boolfunc.random_gen import random_symmetric, random_with_planted_symmetry
from repro.boolfunc.truthtable import TruthTable
from repro.core import symmetry as sym
from repro.core.polarity import decide_polarity_primary
from repro.grm.forms import Grm
from tests.conftest import tables_with_var_pair, truth_tables


# ----------------------------------------------------------------------
# Definitions and GRM detection
# ----------------------------------------------------------------------

def test_symmetry_definitions_on_known_functions():
    f = ops.and_all(3)
    assert sym.has_symmetry(f, 0, 1, sym.NE)
    assert not sym.has_symmetry(f, 0, 1, sym.E)
    g = TruthTable.parity(3)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        # Parity is invariant under swapping (NE) and under (x_i, x_j) ->
        # (~x_j, ~x_i) (E); the skew types do not hold.
        assert sym.pair_symmetries(g, i, j) == frozenset({sym.NE, sym.E})


def test_has_symmetry_validates_input():
    f = TruthTable.parity(3)
    with pytest.raises(ValueError):
        sym.has_symmetry(f, 1, 1, sym.NE)
    with pytest.raises(ValueError):
        sym.has_symmetry(f, 0, 1, "nope")


@given(tables_with_var_pair(2, 6))
def test_grm_detection_equals_cofactor_definition(fij):
    f, i, j = fij
    via_grm = sym.all_pair_symmetries_via_grm(f)
    key = (min(i, j), max(i, j))
    assert via_grm[key] == sym.pair_symmetries(f, min(i, j), max(i, j))


@given(tables_with_var_pair(2, 5), st.data())
def test_grm_pair_relation_respects_polarity_combination(fij, data):
    f, i, j = fij
    pol = data.draw(st.integers(0, (1 << f.n) - 1))
    grm = Grm.from_truthtable(f, pol)
    found = sym.grm_pair_symmetries(grm, i, j)
    truth = sym.pair_symmetries(f, min(i, j), max(i, j))
    # Whatever the form reports must hold, and must be of the types this
    # polarity combination is able to reveal.
    pos_type, neg_type = sym.grm_detectable_types(pol, i, j)
    assert found <= truth
    assert found <= {pos_type, neg_type}


def test_symmetry_polarity_family_covers_both_combinations():
    fam = sym.symmetry_polarity_family(0b0000, 4)
    assert len(fam) == 4
    for i in range(4):
        for j in range(i + 1, 4):
            combos = {
                ((p >> i) & 1) == ((p >> j) & 1) for p in fam
            }
            assert combos == {True, False}


# ----------------------------------------------------------------------
# Theorems 4-13
# ----------------------------------------------------------------------

@given(truth_tables(3, 5), st.data())
def test_theorem4_E_transitivity_gives_NE(f, data):
    i, j, k = data.draw(st.permutations(range(f.n)))[:3]
    if sym.has_symmetry(f, i, j, sym.E) and sym.has_symmetry(f, j, k, sym.E):
        assert sym.has_symmetry(f, i, k, sym.NE)


@given(tables_with_var_pair(2, 5))
def test_theorem5_NE_and_E_force_balanced(fij):
    f, i, j = fij
    if sym.has_symmetry(f, i, j, sym.NE) and sym.has_symmetry(f, i, j, sym.E):
        assert f.is_balanced(i) and f.is_balanced(j)


@given(tables_with_var_pair(2, 5))
def test_theorem6_mpole_form_shows_positive_symmetry(fij):
    """Both variables unbalanced + M-pole polarity ⇒ the form's positive
    relation appears iff the pair is NE- or E-symmetric."""
    f, i, j = fij
    if f.is_balanced(i) or f.is_balanced(j):
        return
    decision = decide_polarity_primary(f)
    grm = Grm.from_truthtable(f, decision.polarity)
    positive, _ = sym.grm_pair_relation(grm, i, j)
    has_positive = sym.has_positive_symmetry(f, i, j)
    assert positive == has_positive


@given(tables_with_var_pair(2, 5))
def test_theorem7_positive_symmetry_survives_complement(fij):
    f, i, j = fij
    assert sym.has_positive_symmetry(f, i, j) == sym.has_positive_symmetry(~f, i, j)


@given(truth_tables(3, 5), st.data())
def test_theorem9_skew_NE_two_out_of_three(f, data):
    i, j, k = data.draw(st.permutations(range(f.n)))[:3]
    conds = [
        sym.has_symmetry(f, i, j, sym.SKEW_NE),
        sym.has_symmetry(f, j, k, sym.SKEW_NE),
        sym.has_symmetry(f, i, k, sym.NE),
    ]
    if sum(conds) >= 2:
        assert all(conds)


@given(truth_tables(3, 5), st.data())
def test_theorem10_skew_E_two_out_of_three(f, data):
    i, j, k = data.draw(st.permutations(range(f.n)))[:3]
    conds = [
        sym.has_symmetry(f, i, j, sym.SKEW_E),
        sym.has_symmetry(f, j, k, sym.SKEW_E),
        sym.has_symmetry(f, i, k, sym.NE),
    ]
    if sum(conds) >= 2:
        assert all(conds)


@given(tables_with_var_pair(2, 5))
def test_theorem11_both_skews_force_neutral(fij):
    f, i, j = fij
    if sym.has_symmetry(f, i, j, sym.SKEW_NE) and sym.has_symmetry(f, i, j, sym.SKEW_E):
        assert f.is_neutral()


@given(truth_tables(3, 5), st.data())
def test_theorem12_mixed_skew_triple(f, data):
    i, j, k = data.draw(st.permutations(range(f.n)))[:3]
    conds = [
        sym.has_symmetry(f, i, j, sym.SKEW_E),
        sym.has_symmetry(f, j, k, sym.SKEW_NE),
        sym.has_symmetry(f, i, k, sym.E),
    ]
    if sum(conds) >= 2:
        assert all(conds)


@given(tables_with_var_pair(2, 5))
def test_theorem13_negative_symmetry_survives_complement(fij):
    f, i, j = fij
    for kind in sym.NEGATIVE_TYPES:
        assert sym.has_symmetry(f, i, j, kind) == sym.has_symmetry(~f, i, j, kind)


# ----------------------------------------------------------------------
# Total symmetry (Theorem 8) and linear variables
# ----------------------------------------------------------------------

def test_totally_symmetric_examples():
    assert sym.is_totally_symmetric(ops.majority(5))
    assert sym.is_totally_symmetric(TruthTable.parity(4))
    # Positive symmetry modulo polarity: x0 * ~x1 is E-symmetric.
    f = TruthTable.var(2, 0) & ~TruthTable.var(2, 1)
    assert sym.is_totally_symmetric(f)
    assert not sym.is_classically_symmetric(f)


@given(st.integers(2, 6), st.data())
def test_theorem8_on_classically_symmetric_functions(n, data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    f = random_symmetric(n, rng)
    decision = decide_polarity_primary(f)
    grm = Grm.from_truthtable(f, decision.polarity)
    assert sym.is_totally_symmetric_grm(grm)


@given(truth_tables(2, 5))
def test_theorem8_grm_check_agrees_with_ground_truth(f):
    decision = decide_polarity_primary(f)
    grm = Grm.from_truthtable(f, decision.polarity)
    if sym.is_totally_symmetric_grm(grm):
        assert sym.is_totally_symmetric(f)


def test_linear_variables_and_functions():
    g = TruthTable.var(4, 1) ^ (TruthTable.var(4, 0) & TruthTable.var(4, 2))
    assert sym.linear_variables(g) == 0b0010
    assert not sym.is_linear_function(g)
    lin = ops.linear_function(4, 0b1011, constant=1)
    assert sym.is_linear_function(lin)
    # Linear variables force neutrality (Section 5.4).
    assert g.is_neutral()


@given(truth_tables(2, 5), st.data())
def test_linear_variables_via_grm_any_polarity(f, data):
    pol = data.draw(st.integers(0, (1 << f.n) - 1))
    grm = Grm.from_truthtable(f, pol)
    assert sym.linear_variables_via_grm(grm) == sym.linear_variables(f)


def test_linear_variables_are_mutually_symmetric():
    f = TruthTable.var(3, 0) ^ TruthTable.var(3, 1) ^ (
        TruthTable.var(3, 2) & TruthTable.var(3, 2)
    )
    # x0, x1 linear: NE and E symmetric to each other (Section 5.4).
    assert sym.has_symmetry(f, 0, 1, sym.NE)
    assert sym.has_symmetry(f, 0, 1, sym.E)


# ----------------------------------------------------------------------
# Grouping
# ----------------------------------------------------------------------

def test_positive_symmetric_groups_for_parity():
    f = TruthTable.parity(4)
    grm = Grm.from_truthtable(f, 0b1111)
    groups = sym.positive_symmetric_groups([grm], 4)
    assert sorted(map(len, groups)) == [4]


def test_positive_symmetric_groups_mixed():
    f = (TruthTable.var(3, 0) & TruthTable.var(3, 1)) | TruthTable.var(3, 2)
    grm = Grm.from_truthtable(f, 0b111)
    groups = sym.positive_symmetric_groups([grm], 3)
    assert sorted(tuple(sorted(g)) for g in groups) == [(0, 1), (2,)]


def test_packed_pair_checks_equal_naive_cofactors():
    rng = random.Random(55)
    for n in range(2, 9):
        functions = [TruthTable.random(n, rng) for _ in range(3)]
        functions.append(random_symmetric(n, rng))
        for kind in sym.ALL_SYMMETRY_TYPES:
            pair = tuple(sorted(rng.sample(range(n), 2)))
            functions.append(random_with_planted_symmetry(n, pair, kind, rng))
        for f in functions:
            for (i, j), kinds in all_pair_symmetries_naive(f).items():
                assert sym.pair_symmetries(f, i, j) == kinds, (f, i, j)
                assert sym.pair_symmetries(f, j, i) == kinds, (f, j, i)
                assert sym.has_any_symmetry(f, i, j) == bool(kinds)
                for kind in sym.ALL_SYMMETRY_TYPES:
                    assert sym.has_symmetry(f, i, j, kind) == (kind in kinds)
