"""Differential suite for the word-array (slab) pre-key layout.

:mod:`repro.kernels.wordarray` must reproduce the scalar pre-keys and
cofactor weights bit-for-bit at the widths the layout dispatch routes
to it (``n >= 11``), agree with the flat lane layout there, and leave
engine partitions unchanged.  Serialized formats (store shards, corpus
JSON) carry the packed ``bits``, so large-``n`` round trips must be
exactly byte-stable.
"""

import random

import pytest

from repro import kernels
from repro.boolfunc import walsh
from repro.boolfunc.truthtable import TruthTable
from repro.engine import EngineOptions, classify_batch
from repro.engine.prekey import coarse_prekey
from repro.kernels import prekey as prekey_mod
from repro.kernels import wordarray
from repro.obs import runtime as obs_runtime
from repro.store.records import StoreRecord, encode_prekey
from repro.testing.corpus import Witness
from repro.utils import bitops


def cases_for(n, rng, randoms=3):
    """Constants, a projection, parity and random tables — the edge
    shapes where in-byte/in-slab/slab-index band errors show up first."""
    out = [0, bitops.table_mask(n)]
    if n:
        out.append(bitops.table_mask(n) & ~bitops.axis_mask(n, 0))  # x_0
        out.append(TruthTable.parity(n).bits)
    out.extend(rng.getrandbits(1 << n) for _ in range(randoms))
    return out


@pytest.mark.parametrize("n", (11, 13, 16))
def test_slab_prekeys_match_scalar(n):
    rng = random.Random(400 + n)
    bl = cases_for(n, rng, randoms=8 if n < 16 else 4)
    keys, weights = wordarray.batch_prekeys(bl, n)
    masks = bitops.axis_masks(n)
    for bits, key, w in zip(bl, keys, weights):
        assert key == coarse_prekey(TruthTable(n, bits))
        assert w == tuple(
            ((bits & m).bit_count(), ((bits >> (1 << i)) & m).bit_count())
            for i, m in enumerate(masks)
        )
    # The flat-lane pipeline must agree too (shared finishing code).
    assert prekey_mod.batch_prekeys(bl, n) == (keys, weights)


def test_large_sizes_skip_pair_row_tables():
    # The finishing loop must not materialize O(2**n) pair-row tables
    # per distinct weight above PAIR_ROW_MAX_SIZE — at n >= 13 nearly
    # every lane has a distinct weight and the rows would pin
    # O(B * 2**n) tuples (the cold-cache blowup this guards against).
    n = 13
    assert (1 << n) > prekey_mod.PAIR_ROW_MAX_SIZE
    rng = random.Random(6)
    bl = [rng.getrandbits(1 << n) for _ in range(16)]
    before = set(prekey_mod._pair_rows)
    wordarray.batch_prekeys(bl, n)
    added = {k for k in prekey_mod._pair_rows if k not in before}
    assert not {k for k in added if k[0] > prekey_mod.PAIR_ROW_MAX_SIZE}


def test_layout_dispatch():
    # coarse_prekeys picks the layout from n alone: flat lanes below
    # SLAB_MIN_N, slabs from there up; both give identical results.
    rng = random.Random(7)
    for n in (wordarray.SLAB_MIN_N - 1, wordarray.SLAB_MIN_N, 12):
        bl = [rng.getrandbits(1 << n) for _ in range(24)]
        with obs_runtime.capture() as (reg, _ring):
            got = kernels.coarse_prekeys(bl, n)
        assert got == prekey_mod.batch_prekeys(bl, n)
        assert got == wordarray.batch_prekeys(bl, n)
        slab_calls = reg.counter_value("kernels.prekey_slab_calls")
        assert slab_calls == (1 if n >= wordarray.SLAB_MIN_N else 0)
        assert reg.counter_value("kernels.prekey_calls") == 1
    assert kernels.should_batch(12, kernels.KERNEL_MIN_BATCH)
    assert not kernels.should_batch(12, 1)


def test_engine_partitions_identical_across_layouts_large_n():
    # The acceptance bar: identical classify() partitions whether the
    # coarse pre-keys come from the scalar loop or, under auto, the
    # word-array slabs.  n = 11 is the slab dispatch floor, and the npn
    # copies force multi-member classes through the full
    # canonicalization path.
    rng = random.Random(8)
    n = 11
    assert n >= wordarray.SLAB_MIN_N
    base = [TruthTable.random(n, rng) for _ in range(6)]
    batch = list(base)
    for t in base[:3]:
        perm = list(range(n))
        rng.shuffle(perm)
        batch.append(t.permute_vars(perm).negate_inputs(rng.getrandbits(n)))
    results = {
        mode: classify_batch(
            [TruthTable(f.n, f.bits) for f in batch],
            options=EngineOptions(kernel=mode),
        )
        for mode in ("scalar", "auto")
    }
    assert results["auto"].members == results["scalar"].members
    assert results["auto"].num_classes == len(base)
    assert results["auto"].stats.kernel_batched == len(set(batch))
    assert results["scalar"].stats.kernel_batched == 0


@pytest.mark.parametrize("n", (15, 16))
def test_walsh_packed_large_n_tiers(n):
    rng = random.Random(700 + n)
    f = TruthTable.random(n, rng)
    spectrum = walsh.walsh_spectrum(f)
    ref = walsh._butterfly_list(
        [1 - 2 * ((f.bits >> m) & 1) for m in range(1 << n)]
    )
    assert spectrum == ref
    assert walsh.inverse_walsh(spectrum) == f


@pytest.mark.parametrize("n", (13, 16))
def test_store_record_roundtrip_is_byte_stable(n):
    # Shards serialize the packed bits as hex at every width; a record
    # must parse back to the identical record and re-serialize to the
    # identical line.
    rng = random.Random(800 + n)
    rep = TruthTable.random(n, rng)
    record = StoreRecord(
        n=n,
        canon_bits=rep.bits,  # identity witness keeps this exact
        rep_bits=rep.bits,
        witness=(tuple(range(n)), 0, False),
        prekey=encode_prekey(coarse_prekey(rep)),
    )
    line = record.to_line()
    parsed = StoreRecord.from_line(line)
    assert parsed == record
    assert parsed.to_line() == line


@pytest.mark.parametrize("n", (13, 16))
def test_corpus_witness_roundtrip_is_byte_stable(n):
    rng = random.Random(900 + n)
    f = TruthTable.random(n, rng)
    w = Witness(n=n, f_bits=f.bits, g_bits=f.bits)
    text = w.to_json()
    parsed = Witness.from_json(text)
    assert parsed.f == f
    assert parsed.to_json() == text
