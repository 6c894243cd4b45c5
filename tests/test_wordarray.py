"""Large-``n`` behaviour above the packed pre-key bound.

From ``n = 11`` up (past :data:`repro.kernels.prekey.BATCH_MAX_N`) the
engine computes every pre-key through the scalar loop, the packed Walsh
butterfly switches to its wide field tier, and serialized formats
(store shards, corpus JSON) carry the packed ``bits``, so large-``n``
round trips must be exactly byte-stable.
"""

import random

import pytest

from repro.boolfunc import walsh
from repro.boolfunc.truthtable import TruthTable
from repro.engine import classify_batch
from repro.engine.prekey import coarse_prekey
from repro.kernels import prekey
from repro.store.records import StoreRecord, encode_prekey
from repro.testing.corpus import Witness


def test_engine_partitions_identical_across_layouts_large_n():
    # n = 11 is the first width past the packed pre-key bound: the
    # engine batches nothing and must still find exactly one class per
    # base function, with every npn copy in its original's class.  The
    # copies force multi-member classes through the full
    # canonicalization path.
    rng = random.Random(8)
    n = 11
    assert n == prekey.BATCH_MAX_N + 1
    base = [TruthTable.random(n, rng) for _ in range(6)]
    batch = list(base)
    for t in base[:3]:
        perm = list(range(n))
        rng.shuffle(perm)
        batch.append(t.permute_vars(perm).negate_inputs(rng.getrandbits(n)))
    result = classify_batch(batch)
    assert result.num_classes == len(base)
    for k in range(3):
        assert result.class_of(len(base) + k) == result.class_of(k)
    assert result.stats.kernel_batched == 0
    assert result.stats.kernel_scalar == len(set(batch))


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
