"""Unit and property tests for prime cube detection (Section 3.3)."""

import random

from hypothesis import given, strategies as st

from repro.boolfunc.truthtable import TruthTable
from repro.core import primes
from repro.grm.forms import Grm
from repro.utils import bitops
from tests.conftest import truth_tables


def tables_with_polarity(min_n=1, max_n=6):
    return truth_tables(min_n, max_n).flatmap(
        lambda f: st.integers(0, (1 << f.n) - 1).map(lambda p: (f, p))
    )


def test_is_prime_support_definition():
    # f = x0 ^ x1*x2: ∂f/∂{x0} = 1, ∂f/∂{x1,x2} = 1, ∂f/∂{x1} = x2.
    f = TruthTable.var(3, 0) ^ (TruthTable.var(3, 1) & TruthTable.var(3, 2))
    assert primes.is_prime_support(f, 0b001)
    assert primes.is_prime_support(f, 0b110)
    assert not primes.is_prime_support(f, 0b010)
    assert not primes.is_prime_support(f, 0b111)


@given(tables_with_polarity())
def test_form_primes_match_exact_definition(fp):
    f, pol = fp
    grm = Grm.from_truthtable(f, pol)
    assert grm.prime_cubes() == primes.prime_cubes_exact(f)


@given(tables_with_polarity())
def test_csanky_ladder_matches_superset_rule(fp):
    f, pol = fp
    grm = Grm.from_truthtable(f, pol)
    assert primes.csanky_ladder(grm) == grm.prime_cubes()


@given(truth_tables(1, 6), st.data())
def test_primes_occur_in_every_grm_form(f, data):
    pol_a = data.draw(st.integers(0, (1 << f.n) - 1))
    pol_b = data.draw(st.integers(0, (1 << f.n) - 1))
    a = Grm.from_truthtable(f, pol_a).prime_cubes()
    b = Grm.from_truthtable(f, pol_b).prime_cubes()
    assert a == b  # prime supports are form-independent (Csanky)


def test_paper_example_primes():
    # Paper Section 3.3: in f = x1 ^ x2*x3 ^ x3*x4 the cubes x2*x3 and
    # x3*x4 are primes, and x1 is "also a prime but not one of the
    # largest cardinality".
    x = [TruthTable.var(4, i) for i in range(4)]
    f = x[0] ^ (x[1] & x[2]) ^ (x[2] & x[3])
    grm = Grm.from_truthtable(f, 0b1111)
    assert grm.cubes == {0b0001, 0b0110, 0b1100}
    assert grm.prime_cubes() == {0b0001, 0b0110, 0b1100}


def test_nested_cube_not_prime():
    # x1*x2 sits inside x1*x2*x3, so it cannot be prime.
    x = [TruthTable.var(4, i) for i in range(4)]
    f = x[0] ^ (x[1] & x[2]) ^ (x[1] & x[2] & x[3])
    grm = Grm.from_truthtable(f, 0b1111)
    assert grm.cubes == {0b0001, 0b0110, 0b1110}
    assert grm.prime_cubes() == {0b0001, 0b1110}


def test_prime_count_vector_and_matrices():
    x = [TruthTable.var(3, i) for i in range(3)]
    f = x[0] ^ (x[1] & x[2])
    grm = Grm.from_truthtable(f, 0b111)
    assert primes.prime_count_vector(grm) == [1, 1, 1]
    pcvic = primes.prime_vic(grm)
    assert pcvic[1] == (1, 0, 0)
    assert pcvic[2] == (0, 1, 1)
    pcinc = primes.prime_inc(grm)
    assert pcinc[1][2] == 1 and pcinc[0][0] == 1 and pcinc[1][1] == 0


def test_constant_functions_have_trivial_primes():
    one = TruthTable.one(3)
    grm = Grm.from_truthtable(one, 0b111)
    assert grm.cubes == {0}
    assert grm.prime_cubes() == {0}
    zero = Grm.from_truthtable(TruthTable.zero(3), 0b111)
    assert zero.prime_cubes() == frozenset()


def test_prime_cubes_duplicate_support_cube_pinned():
    # A cube is dominated only by a *strict* support superset.  Duplicate
    # cube masks handed to the constructor collapse into one cube and must
    # not be mistaken for a dominating "other" cube of equal support.
    g = Grm(3, 0b000, [0b011, 0b011, 0b110])
    assert g.cubes == frozenset({0b011, 0b110})
    assert g.prime_cubes() == frozenset({0b011, 0b110})
    # The equal-support trap with non-interned ints: values above the
    # small-int cache compare equal without being identical objects.
    big = (1 << 10) | 1
    h = Grm(11, 0, [big, int(str(big))])
    assert h.prime_cubes() == frozenset({big})
    # Strict superset still dominates.
    k = Grm(3, 0, [0b011, 0b111])
    assert k.prime_cubes() == frozenset({0b111})
    # The cached result is stable across calls.
    assert k.prime_cubes() is k.prime_cubes()


def _pairwise_primes(cubes):
    """Reference: a cube is prime iff no other cube's support contains it."""
    return frozenset(
        c for c in cubes if not any(d != c and d & c == c for d in cubes)
    )


def _cube_sets(max_n=10):
    def forms(n):
        full = (1 << (1 << n)) - 1
        sparse = st.frozensets(st.integers(0, (1 << n) - 1), max_size=12)
        dense = st.integers(0, full).map(lambda coeffs: frozenset(bitops.iter_bits(coeffs)))
        return st.tuples(st.just(n), st.one_of(sparse, dense))

    return st.integers(0, max_n).flatmap(forms)


@given(_cube_sets())
def test_sweep_primes_equal_pairwise_reference(form):
    n, cubes = form
    assert Grm(n, 0, cubes).prime_cubes() == _pairwise_primes(cubes)


def test_sweep_primes_on_edge_forms():
    for n in range(11):
        assert Grm(n, 0, []).prime_cubes() == frozenset()
        assert Grm(n, 0, [0]).prime_cubes() == {0}
        everything = Grm.from_coefficients(n, 0, (1 << (1 << n)) - 1)
        assert everything.prime_cubes() == {(1 << n) - 1}


def test_sweep_primes_on_wide_sparse_forms():
    rng = random.Random(20)
    for n in (20, 22, 24):
        for _ in range(2):
            tops = [rng.getrandbits(n) for _ in range(6)]
            # Sub-cubes of the tops (some prime, most dominated) and a few
            # unrelated cubes.
            subs = [t & rng.getrandbits(n) for t in tops for _ in range(3)]
            cubes = frozenset(tops + subs + [rng.getrandbits(n) for _ in range(4)])
            assert Grm(n, 0, cubes).prime_cubes() == _pairwise_primes(cubes)
