"""Unit and property tests for the Section 4 signatures."""

import random

from hypothesis import given, strategies as st

from repro.boolfunc.random_gen import random_sop, random_symmetric, random_with_planted_symmetry
from repro.boolfunc.transform import NpnTransform
from repro.boolfunc.truthtable import TruthTable
from repro.core import sensitivity as sens
from repro.core import signatures as sigs
from repro.core.polarity import decide_polarity_primary
from repro.grm.forms import Grm
from repro.utils.partition import Partition
from tests.conftest import truth_tables


def _canonical_grm(f):
    return Grm.from_truthtable(f, decide_polarity_primary(f).polarity)


def test_weight_pair_orientation():
    f = TruthTable.from_minterms(3, [1, 3, 5])  # pcw=3, ncw=0 on x0
    assert sigs.weight_pair(f, 0) == (0, 3)
    assert sigs.weight_pair(f.flip_input(0), 0) == (0, 3)  # phase-invariant


@given(truth_tables(2, 6), st.data())
def test_theorem3_weight_pairs_invariant_under_np(f, data):
    n = f.n
    perm = tuple(data.draw(st.permutations(range(n))))
    neg = data.draw(st.integers(0, (1 << n) - 1))
    t = NpnTransform(perm, neg, False)
    g = t.apply(f)
    for i in range(n):
        # f input i is driven by g variable perm[i].
        assert sigs.weight_pair(f, i) == sigs.weight_pair(g, perm[i])


@given(truth_tables(2, 6), st.data())
def test_function_signature_invariant_under_matching_np_transform(f, data):
    n = f.n
    perm = tuple(data.draw(st.permutations(range(n))))
    t = NpnTransform(perm, 0, False)
    g = t.apply(f)
    pol = data.draw(st.integers(0, (1 << n) - 1))
    grm_f = Grm.from_truthtable(f, pol)
    grm_g_aligned = grm_f.relabel(perm)
    sig_f = sigs.function_signature(f, grm_f)
    sig_g = sigs.function_signature(g, Grm.from_truthtable(g, grm_g_aligned.polarity))
    assert sig_f == sig_g


def test_function_signature_detects_difference():
    f = TruthTable.from_minterms(3, [1, 2, 4])
    g = TruthTable.from_minterms(3, [1, 2, 3])
    assert sigs.function_signature(f, _canonical_grm(f)) != sigs.function_signature(
        g, _canonical_grm(g)
    )


def test_variable_signatures_columns():
    # f = x0 ^ x1*x2 under positive polarity.
    f = TruthTable.var(3, 0) ^ (TruthTable.var(3, 1) & TruthTable.var(3, 2))
    grm = Grm.from_truthtable(f, 0b111)
    v = sigs.variable_signatures(f, grm)
    assert v.fvc == (1, 1, 1)
    assert v.finc == (0, 1, 1)
    assert v.vic_columns[0] == (0, 1, 0, 0)
    assert v.vic_columns[1] == (0, 0, 1, 0)
    # Both cubes are prime here.
    assert v.pcv == (1, 1, 1)
    key0, key1, key2 = (v.key(i) for i in range(3))
    assert key0 != key1 and key1 == key2


def test_refine_partition_families_can_be_disabled():
    f = TruthTable.var(3, 0) ^ (TruthTable.var(3, 1) & TruthTable.var(3, 2))
    grm = Grm.from_truthtable(f, 0b111)
    part_all = sigs.refine_partition_with_grm(Partition(3), f, grm)
    assert part_all.block_sizes() == [1, 2]
    part_none = sigs.refine_partition_with_grm(
        Partition(3), f, grm, signature_families=()
    )
    assert part_none.block_sizes() == [3]


def test_inc_rounds_limits_refinement():
    # A chain structure that static FINC cannot fully split but the
    # WL fixpoint can: f = x0*x1 ^ x1*x2 ^ x2*x3 ^ x3*x4.
    x = [TruthTable.var(5, i) for i in range(5)]
    f = (x[0] & x[1]) ^ (x[1] & x[2]) ^ (x[2] & x[3]) ^ (x[3] & x[4])
    grm = Grm.from_truthtable(f, 0b11111)
    one_round = sigs.refine_partition_with_grm(
        Partition(5), f, grm, use_incidence=False
    )
    fixpoint = sigs.refine_partition_with_grm(
        Partition(5), f, grm, use_incidence=True
    )
    assert len(fixpoint.blocks) >= len(one_round.blocks)
    assert fixpoint.block_sizes() == [2, 2, 1] or fixpoint.is_discrete()


def test_wd_counts_weight_pair_multiplicity():
    f = TruthTable.parity(3)
    sig = sigs.function_signature(f, _canonical_grm(f))
    assert sig.wd == (((2, 2), 3),)
    assert sig.fw == 4


def _refine_every_family(f, grm, families, use_incidence):
    """Reference: every selected family refines, in the refinement order,
    whether or not the partition is already discrete."""
    part = Partition(f.n)
    v = sigs.variable_signatures(f, grm)
    infl = sens.influence_vector(f)
    cols = sens.sensitivity_columns(f)
    inc = grm.incidence_matrix()
    keys = {
        "weights": lambda i: v.weight_pairs[i],
        "influence": lambda i: infl[i],
        "sensitivity": lambda i: cols[i],
        "vic": lambda i: (v.fvc[i], v.vic_columns[i]),
        "primes": lambda i: (v.pcv[i], v.pcvic_columns[i]),
    }
    for family in ("weights", "influence", "sensitivity", "vic", "primes"):
        if family in families:
            part.refine(keys[family])
    if "inc" in families:
        part.refine(lambda i: v.finc[i])
        for _ in range(10**9 if use_incidence else 1):
            snapshot = [tuple(b) for b in part.blocks]
            if not part.refine(
                lambda i: tuple(
                    tuple(sorted(inc[i][w] for w in block if w != i)) for block in snapshot
                )
            ):
                break
    return part.blocks


def test_refine_equals_every_family_in_order():
    rng = random.Random(8)
    subsets = [
        tuple(fam for k, fam in enumerate(sigs.DEFAULT_FAMILIES) if (mask >> k) & 1)
        for mask in range(1 << len(sigs.DEFAULT_FAMILIES))
    ]
    for n in range(1, 9):
        functions = [
            TruthTable.random(n, rng),
            random_sop(n, 3, rng),
            random_symmetric(n, rng) if n > 1 else TruthTable.var(1, 0),
        ]
        if n > 1:
            functions.append(random_with_planted_symmetry(n, (0, n - 1), "NE", rng))
        for f in functions:
            grm = Grm.from_truthtable(f, rng.getrandbits(n))
            for families in subsets:
                for use_incidence in (True, False):
                    got = sigs.refine_partition_with_grm(
                        Partition(n), f, grm,
                        use_incidence=use_incidence, signature_families=families,
                    )
                    want = _refine_every_family(f, grm, families, use_incidence)
                    assert got.blocks == want, (f, families, use_incidence)


def test_refine_skips_grm_columns_once_weights_split_everything(monkeypatch):
    f = TruthTable(5, 0xED40DC4D)
    assert len({sigs.weight_pair(f, i) for i in range(5)}) == 5

    def boom(*args, **kwargs):
        raise AssertionError("GRM columns built for a discrete partition")

    monkeypatch.setattr(sigs, "variable_signatures", boom)
    part = sigs.refine_partition_with_grm(Partition(5), f, _canonical_grm(f))
    assert part.is_discrete()
