"""Tests for the batch NPN classification engine (``repro.engine``)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.boolfunc.transform import NpnTransform
from repro.boolfunc.truthtable import TruthTable
from repro.core import symmetry as sym_mod
from repro.core.canonical import canonical_form, classify, npn_class_count
from repro.core.errors import BudgetExceededError, CanonicalizationBudgetError
from repro.cli import main
from repro.engine import (
    CanonicalKeyCache,
    ClassificationEngine,
    ClassKey,
    EngineOptions,
    classify_batch,
    coarse_prekey,
    fine_prekey,
    npn_class_count_engine,
    symmetry_counts,
)
from repro.engine import classifier
from tests.conftest import truth_tables

# A 4-variable function whose candidate orderings overflow a budget of 1
# (found by search; pinned so the quarantine tests stay deterministic).
BUDGET_BUSTER = TruthTable(4, 24878)


def baseline_groups(functions):
    groups = {}
    for i, f in enumerate(functions):
        canon, _ = canonical_form(f)
        groups.setdefault(canon.bits, []).append(i)
    return groups


def engine_groups(result):
    assert not any(k.quarantined for k in result.members)
    return {k.key: v for k, v in result.members.items()}


# ----------------------------------------------------------------------
# Pre-keys
# ----------------------------------------------------------------------

@given(truth_tables(1, 5), st.data())
def test_prekeys_are_npn_invariant(f, data):
    n = f.n
    perm = tuple(data.draw(st.permutations(range(n))))
    neg = data.draw(st.integers(0, (1 << n) - 1))
    out = data.draw(st.booleans())
    g = NpnTransform(perm, neg, out).apply(f)
    assert coarse_prekey(f) == coarse_prekey(g)
    assert fine_prekey(f) == fine_prekey(g)


@given(truth_tables(1, 5))
def test_symmetry_counts_match_cofactor_definitions(f):
    pos = neg = 0
    for i in range(f.n):
        for j in range(i + 1, f.n):
            kinds = sym_mod.pair_symmetries(f, i, j)
            if sym_mod.NE in kinds or sym_mod.E in kinds:
                pos += 1
            if sym_mod.SKEW_NE in kinds or sym_mod.SKEW_E in kinds:
                neg += 1
    assert symmetry_counts(f) == (pos, neg)


def test_fine_prekey_reuses_coarse():
    f = TruthTable.parity(3)
    ck = coarse_prekey(f)
    assert fine_prekey(f, ck) == fine_prekey(f)
    assert fine_prekey(f)[: len(ck)] == ck


# ----------------------------------------------------------------------
# Engine vs baseline equivalence
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_engine_matches_baseline_on_full_space(n):
    funcs = [TruthTable(n, bits) for bits in range(1 << (1 << n))]
    result = classify_batch(funcs)
    assert engine_groups(result) == baseline_groups(funcs)


def test_engine_matches_baseline_on_random_batch(rng):
    pool = [TruthTable.random(4, rng) for _ in range(12)]
    batch = []
    for _ in range(160):
        f = rng.choice(pool)
        if rng.random() < 0.5:
            batch.append(NpnTransform.random(4, rng).apply(f))
        else:
            batch.append(f)
    batch.extend(TruthTable.random(3, rng) for _ in range(40))
    result = classify_batch(batch)
    assert engine_groups(result) == baseline_groups(batch)


def test_engine_matches_baseline_on_corpus_witnesses():
    from pathlib import Path

    from repro.testing import corpus

    witnesses = corpus.load_corpus(Path(__file__).parent / "corpus")
    tables = [w.f for w in witnesses] + [w.g for w in witnesses]
    result = classify_batch(tables)
    assert engine_groups(result) == baseline_groups(tables)


def test_mixed_widths_and_duplicates(rng):
    batch = [TruthTable.parity(2), TruthTable.parity(3), TruthTable.parity(2)]
    result = classify_batch(batch)
    assert result.num_classes == 2
    assert result.stats.duplicates == 1
    assert result.class_of(0) == result.class_of(2)
    groups = result.groups()
    assert sorted(len(v) for v in groups.values()) == [1, 2]


def test_report_dict_shape(rng):
    batch = [TruthTable.random(3, rng) for _ in range(10)]
    report = classify_batch(batch).report_dict()
    assert report["functions"] == 10
    assert sorted(i for c in report["classes"] for i in c["members"]) == list(range(10))
    assert "cache_hits" in report["stats"]


@pytest.mark.slow
def test_engine_class_count_n4_runslow():
    assert npn_class_count_engine(4) == 222
    assert npn_class_count(4) == 222


# ----------------------------------------------------------------------
# Canonical-key cache
# ----------------------------------------------------------------------

def test_cache_lru_eviction_and_stats():
    cache = CanonicalKeyCache(maxsize=2)
    cache.put((3, 1), (10, ((0, 1, 2), 0, False)))
    cache.put((3, 2), (20, ((0, 1, 2), 0, False)))
    assert cache.get((3, 1))[0] == 10  # touches (3,1): now most recent
    cache.put((3, 3), (30, ((0, 1, 2), 0, False)))  # evicts (3,2)
    assert (3, 2) not in cache
    assert cache.get((3, 2)) is None
    assert cache.get((3, 1))[0] == 10
    s = cache.stats()
    assert s["evictions"] == 1 and s["size"] == 2
    assert s["hits"] == 2 and s["misses"] == 1
    cache.clear()
    assert len(cache) == 0 and cache.stats()["hits"] == 0


def test_cache_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        CanonicalKeyCache(maxsize=0)


def test_engine_reuse_hits_cache(rng):
    batch = [TruthTable.random(4, rng) for _ in range(30)]
    engine = ClassificationEngine(EngineOptions())
    first = engine.classify(batch)
    assert first.stats.cache_hits == 0
    second = engine.classify(batch)
    assert second.stats.cache_hits == 30
    assert second.stats.canonicalizations == 0
    assert second.members == first.members


def test_cached_transform_is_a_witness(rng):
    batch = [TruthTable.random(4, rng) for _ in range(20)]
    engine = ClassificationEngine(EngineOptions())
    engine.classify(batch)
    for f in batch:
        canon_bits, (perm, ineg, oneg) = engine.cache.get((f.n, f.bits))
        assert NpnTransform(perm, ineg, oneg).apply(f).bits == canon_bits


# ----------------------------------------------------------------------
# Budget errors and quarantine (the headline bugfix)
# ----------------------------------------------------------------------

def test_budget_error_carries_function_context():
    with pytest.raises(CanonicalizationBudgetError) as exc_info:
        canonical_form(BUDGET_BUSTER, max_orderings=1)
    assert exc_info.value.n == 4
    assert exc_info.value.bits == BUDGET_BUSTER.bits
    assert isinstance(exc_info.value, BudgetExceededError)


def test_attach_function_first_attachment_wins():
    err = BudgetExceededError("boom")
    assert err.n is None and err.bits is None
    assert err.attach_function(3, 5) is err
    err.attach_function(4, 7)
    assert (err.n, err.bits) == (3, 5)


def test_core_classify_survives_budget_overflow():
    """Regression: one over-budget function must not lose the batch."""
    easy = [TruthTable.parity(4), ~TruthTable.parity(4), TruthTable(4, 1)]
    batch = easy + [BUDGET_BUSTER]
    classes = classify(batch, max_orderings=1)
    assert sum(len(v) for v in classes.values()) == len(batch)
    # The two parity phases still share a class.
    by_id = {id(f): key for key, fs in classes.items() for f in fs}
    assert by_id[id(easy[0])] == by_id[id(easy[1])]


def test_core_classify_budget_fallback_off_raises():
    with pytest.raises(CanonicalizationBudgetError):
        classify([BUDGET_BUSTER], max_orderings=1, budget_fallback=False)


def test_engine_quarantines_budget_overflow():
    t = NpnTransform((2, 0, 1, 3), 0b0101, True)
    twin = t.apply(BUDGET_BUSTER)
    easy = [TruthTable.parity(4), TruthTable(4, 1)]
    batch = easy + [BUDGET_BUSTER, twin]
    result = classify_batch(batch, max_orderings=1)
    assert sum(len(v) for v in result.members.values()) == len(batch)
    assert result.stats.quarantined == 2
    assert result.stats.pairwise_matches >= 1
    # The quarantined pair lands in one fallback class, flagged as such.
    key = result.class_of(2)
    assert key.quarantined
    assert result.class_of(3) == key
    # Easy functions keep their canonical classes.
    assert not result.class_of(0).quarantined
    assert not result.class_of(1).quarantined


def test_quarantined_keys_cannot_collide_with_canonical():
    a = ClassKey(4, 100, quarantined=False)
    b = ClassKey(4, 100, quarantined=True)
    assert a != b and len({a, b}) == 2


# ----------------------------------------------------------------------
# Membership probe
# ----------------------------------------------------------------------

def test_probe_witnesses_verify(rng):
    """Every probe hit's cached transform maps the member to the canon."""
    pool = [TruthTable.random(5, rng) for _ in range(8)]
    batch = pool + [
        NpnTransform.random(5, rng).apply(rng.choice(pool)) for _ in range(48)
    ]
    engine = ClassificationEngine(EngineOptions())
    result = engine.classify(batch)
    assert result.stats.membership_hits > 0
    for f in batch:
        canon_bits, (perm, ineg, oneg) = engine.cache.get((f.n, f.bits))
        assert NpnTransform(perm, ineg, oneg).apply(f).bits == canon_bits
    assert engine_groups(result) == baseline_groups(batch)


def test_probe_miss_limit_disables_probing(rng, monkeypatch):
    batch = [TruthTable.random(5, rng) for _ in range(80)]
    monkeypatch.setattr(classifier, "PROBE_MISS_LIMIT", len(batch))
    eager = classify_batch(batch)
    monkeypatch.setattr(classifier, "PROBE_MISS_LIMIT", 1)
    lazy = classify_batch(batch)
    assert lazy.members == eager.members
    assert lazy.stats.membership_probes <= eager.stats.membership_probes


def test_options_reject_mixing():
    with pytest.raises(TypeError):
        classify_batch([], options=EngineOptions(), cache_size=8)


def test_retired_workers_option_is_rejected(tmp_path, capsys):
    with pytest.raises(TypeError):
        EngineOptions(workers=2)
    for argv in (
        ["classify", "bench:9sym"],
        ["map", "bench:rd73"],
        ["lib", "build", str(tmp_path / "store"), "--no-cells"],
    ):
        with pytest.raises(SystemExit) as exc_info:
            main(argv + ["--workers", "2"])
        assert exc_info.value.code == 2
        assert "--workers" in capsys.readouterr().err


def test_type_error_on_non_table():
    with pytest.raises(TypeError):
        classify_batch([0b1010])
