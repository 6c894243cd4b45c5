"""Unit and property tests for NpnTransform group semantics."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.boolfunc.transform import (
    NpnTransform,
    all_transforms,
    automorphisms,
    random_equivalent_pair,
    transform_count,
)
from repro.boolfunc.truthtable import TruthTable
from tests.conftest import truth_tables


def transforms(min_n=1, max_n=5):
    def build(n):
        return st.tuples(
            st.permutations(range(n)),
            st.integers(0, (1 << n) - 1),
            st.booleans(),
        ).map(lambda t: NpnTransform(tuple(t[0]), t[1], t[2]))

    return st.integers(min_n, max_n).flatmap(build)


def test_identity_applies_trivially():
    f = TruthTable.from_minterms(3, [1, 2, 7])
    assert NpnTransform.identity(3).apply(f) == f


def test_validation():
    with pytest.raises(ValueError):
        NpnTransform((0, 0))
    with pytest.raises(ValueError):
        NpnTransform((0, 1), input_neg=4)


def test_apply_semantics_by_hand():
    # g(y0, y1) = f(~y1, y0): perm maps f-input 0 to y1 (negated), 1 to y0.
    f = TruthTable.var(2, 0)  # f = x0
    t = NpnTransform(perm=(1, 0), input_neg=0b01)
    g = t.apply(f)
    assert g == ~TruthTable.var(2, 1)


def test_output_negation():
    f = TruthTable.var(2, 0) & TruthTable.var(2, 1)
    t = NpnTransform((0, 1), 0, True)
    assert t.apply(f) == ~f


@given(st.integers(1, 5), st.data())
def test_compose_matches_sequential_application(n, data):
    f = TruthTable(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    t1 = data.draw(transforms(n, n))
    t2 = data.draw(transforms(n, n))
    assert t2.compose(t1).apply(f) == t2.apply(t1.apply(f))


@given(st.integers(1, 5), st.data())
def test_inverse_is_two_sided(n, data):
    t = data.draw(transforms(n, n))
    ident = NpnTransform.identity(n)
    assert t.invert().compose(t) == ident
    assert t.compose(t.invert()) == ident


@given(truth_tables(1, 5), st.data())
def test_inverse_undoes_apply(f, data):
    t = data.draw(transforms(f.n, f.n))
    assert t.invert().apply(t.apply(f)) == f


def test_all_transforms_counts():
    assert transform_count(0) == 2
    assert transform_count(2) == 2 * 4 * 2
    assert transform_count(3, include_output_neg=False) == 6 * 8
    assert sum(1 for _ in all_transforms(2)) == 16
    assert sum(1 for _ in all_transforms(2, include_output_neg=False)) == 8
    assert len(automorphisms(4, TruthTable.parity(4).bits)) == 384


def test_all_transforms_distinct_actions_small():
    # On n=2 the 16 transforms act distinctly on the 'x0' function bundle.
    f = TruthTable.var(2, 0)
    g = TruthTable.var(2, 1) & f
    images = {(t.apply(f).bits, t.apply(g).bits) for t in all_transforms(2)}
    assert len(images) == 16


@given(truth_tables(1, 4))
def test_automorphisms_match_brute_force(f):
    brute = [
        (t.perm, t.input_neg, t.output_neg)
        for t in all_transforms(f.n)
        if t.apply(f) == f
    ]
    assert sorted(automorphisms(f.n, f.bits)) == sorted(brute)


def test_random_equivalent_pair_contract(rng):
    f, g, t = random_equivalent_pair(4, rng)
    assert t.apply(f) == g


def test_describe_mentions_phases():
    t = NpnTransform((1, 0), 0b10, True)
    text = t.describe()
    assert "~y0" in text and "out inverted" in text
    assert NpnTransform(()).describe() == "identity"


def test_is_np():
    assert NpnTransform((0,), 1, False).is_np()
    assert not NpnTransform((0,), 0, True).is_np()
