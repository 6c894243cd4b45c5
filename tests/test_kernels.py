"""Differential suite for the bit-parallel batch kernels.

Every batch kernel must match its scalar reference bit-for-bit on the
same inputs — seeded random batches across widths, uneven lane counts,
and constant-0/1 edge lanes — and the classification engine must produce
identical partitions whether or not it batches its pre-keys.
"""

import random
import sys

import pytest

from repro import kernels
from repro.boolfunc import walsh
from repro.boolfunc.truthtable import TruthTable
from repro.cli import main as cli_main
from repro.core import sensitivity
from repro.engine import EngineOptions, classify_batch
from repro.engine.prekey import coarse_prekey
from repro.kernels import lanes, prekey
from repro.testing.fuzzer import FuzzConfig, run_fuzz
from repro.utils import bitops


def batch_for(n, rng, extra=29):
    """Edge lanes (constants, projections, parity) plus an odd number of
    random lanes so the batch never divides evenly into anything."""
    fns = [TruthTable.zero(n), TruthTable.one(n)]
    if n:
        fns.append(TruthTable.parity(n))
    fns += [TruthTable.var(n, i) for i in range(n)]
    fns += [TruthTable(n, rng.getrandbits(1 << n)) for _ in range(extra)]
    return [f.bits for f in fns]


def scalar_weights(bits_list, n):
    return [
        tuple(
            (bitops.half_weight(b, n, i, 0), bitops.half_weight(b, n, i, 1))
            for i in range(n)
        )
        for b in bits_list
    ]


@pytest.mark.parametrize("n", range(0, prekey.BATCH_MAX_N + 1))
def test_batch_prekeys_and_weights_match_scalar(n):
    rng = random.Random(100 + n)
    bl = batch_for(n, rng)
    keys, weights = kernels.batch_prekeys(bl, n)
    assert keys == [coarse_prekey(TruthTable(n, b)) for b in bl]
    assert weights == scalar_weights(bl, n)


@pytest.mark.parametrize("n", (16, 17))
def test_batch_prekeys_wide_tables(n):
    # Above prekey.BATCH_MAX_N the batch API routes every lane to the
    # scalar loop; weights reach 2**n >= 65536 here, and constants and a
    # projection ride along with random lanes.
    rng = random.Random(600 + n)
    size = 1 << n
    bl = [0, (1 << size) - 1, bitops.axis_mask(n, n - 1)]
    bl += [rng.getrandbits(size) for _ in range(3)]
    keys, weights = kernels.batch_prekeys(bl, n)
    assert keys == [coarse_prekey(TruthTable(n, b)) for b in bl]
    assert weights == scalar_weights(bl, n)


@pytest.mark.parametrize("n", range(0, prekey.BATCH_MAX_N + 1))
def test_batch_influence_matches_scalar(n):
    rng = random.Random(700 + n)
    bl = batch_for(n, rng, extra=13)
    assert kernels.batch_influence(bl, n) == [
        sensitivity.influence_vector(TruthTable(n, b)) for b in bl
    ]


@pytest.mark.parametrize("n", (16, 17))
def test_batch_influence_wide_tables(n):
    # Above prekey.BATCH_MAX_N the batch API routes every lane to the
    # scalar loop; influence counts reach 2**(n-1) here.  Constants (empty
    # boundary everywhere) and a full-support function ride along with
    # random lanes.
    rng = random.Random(800 + n)
    size = 1 << n
    bl = [0, (1 << size) - 1, bitops.axis_mask(n, n - 1), TruthTable.parity(n).bits]
    bl += [rng.getrandbits(size) for _ in range(3)]
    tables = [TruthTable(n, b) for b in bl]
    assert kernels.batch_influence(bl, n) == [
        sensitivity.influence_vector(t) for t in tables
    ]


def test_pack_unpack_roundtrip_uneven_counts():
    # Lane k of the packed integer is bytes [k * lb, (k + 1) * lb).
    rng = random.Random(7)
    for n in (0, 1, 3, 5, 8):
        lb = lanes.lane_bytes(n)
        for count in (1, 2, 7, 33):
            bl = [rng.getrandbits(1 << n) for _ in range(count)]
            buf = lanes.pack_tables(bl, n).to_bytes(count * lb, "little")
            assert [
                int.from_bytes(buf[k * lb:(k + 1) * lb], "little")
                for k in range(count)
            ] == bl


def test_empty_batches():
    assert kernels.batch_prekeys([], 5) == ([], [])
    assert kernels.batch_influence([], 5) == []


def test_single_variable_prekey_fallback():
    # n < 3 silently takes the scalar path through the same API.
    bl = [0b01, 0b10, 0b11, 0b00]
    keys, weights = kernels.batch_prekeys(bl, 1)
    assert keys == [coarse_prekey(TruthTable(1, b)) for b in bl]
    assert weights == scalar_weights(bl, 1)


def test_should_batch_dispatch():
    assert kernels.should_batch(8, kernels.KERNEL_MIN_BATCH)
    assert not kernels.should_batch(8, kernels.KERNEL_MIN_BATCH - 1)
    assert not kernels.should_batch(2, 100)  # below the byte-aligned lanes
    assert kernels.should_batch(prekey.BATCH_MAX_N, 100)
    assert not kernels.should_batch(prekey.BATCH_MAX_N + 1, 100)


@pytest.mark.parametrize("mode", ("batch", "lanes", "words"))
def test_retired_kernel_modes_are_rejected(mode, capsys):
    with pytest.raises(TypeError):
        kernels.should_batch(8, 100, mode)
    with pytest.raises(SystemExit) as exc:
        cli_main(["classify", "--random", "4", "--n", "4", "--kernel", mode])
    assert exc.value.code == 2
    assert "--kernel" in capsys.readouterr().err


def test_retired_kernel_option_is_rejected(capsys):
    # The engine picks its pre-key path from the batch alone; no option,
    # flag or mode selects it.
    with pytest.raises(TypeError):
        EngineOptions(kernel="auto")
    for argv in (
        ["classify", "--random", "4", "--n", "4", "--kernel", "auto"],
        ["map", "bench:maj", "--kernel", "auto"],
        ["serve", "--port", "0", "--kernel", "auto"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2, argv
        assert "--kernel" in capsys.readouterr().err


@pytest.mark.parametrize("n", range(0, 9))
def test_walsh_packed_matches_list_reference(n):
    rng = random.Random(500 + n)

    def reference(f):
        values = [1 - 2 * ((f.bits >> m) & 1) for m in range(1 << f.n)]
        stride = 1
        while stride < (1 << f.n):
            for base in range(0, 1 << f.n, stride << 1):
                for k in range(base, base + stride):
                    a, b = values[k], values[k + stride]
                    values[k], values[k + stride] = a + b, a - b
            stride <<= 1
        return values

    for f in [TruthTable.zero(n), TruthTable.one(n)] + [
        TruthTable(n, rng.getrandbits(1 << n)) for _ in range(8)
    ]:
        spectrum = walsh.walsh_spectrum(f)
        assert spectrum == reference(f)
        assert walsh.inverse_walsh(spectrum) == f


def test_inverse_walsh_rejects_invalid_spectra():
    with pytest.raises(ValueError):
        walsh.inverse_walsh([4, 0, 0, 1])
    with pytest.raises(ValueError):
        walsh.inverse_walsh([3, 1, 1, 1, 1, 1, 1, 7])
    with pytest.raises(ValueError):
        walsh.inverse_walsh([99999, 0, 0, 0, 0, 0, 0, 0])  # out of packed range
    with pytest.raises(ValueError):
        walsh.inverse_walsh([1, 1, 1])  # not a power of two


def test_truthtable_cofactor_weights_cache_and_priming():
    f = TruthTable(4, 0b1011_0110_0100_1101)
    expected = tuple(
        (f.cofactor_weight(i, 0), f.cofactor_weight(i, 1)) for i in range(4)
    )
    assert f.cofactor_weights() == expected
    assert f.cofactor_weights() is f.cofactor_weights()  # cached
    g = TruthTable(4, f.bits)
    g.prime_weights(expected)
    assert g.cofactor_weights() is expected


def test_engine_partitions_identical_across_kernel_modes(monkeypatch):
    # The default engine batches its pre-keys; raising the batch floor
    # out of reach forces every group through the scalar loop.
    rng = random.Random(42)
    batch = [TruthTable(5, rng.getrandbits(32)) for _ in range(200)]
    batch += [TruthTable(n, rng.getrandbits(1 << n)) for n in (1, 2, 3, 4) for _ in range(10)]
    batched = classify_batch([TruthTable(f.n, f.bits) for f in batch])
    monkeypatch.setattr(kernels, "KERNEL_MIN_BATCH", sys.maxsize)
    scalar = classify_batch([TruthTable(f.n, f.bits) for f in batch])
    assert batched.members == scalar.members
    assert batched.stats.kernel_batched > 0
    assert scalar.stats.kernel_batched == 0


def test_fuzzer_prekey_filter_is_sound():
    # A short run in every mode; the harness itself cross-checks the
    # pre-key verdicts against the matchers (annotate mode turns them
    # into ground truth), so any unsound screen shows up as a
    # discrepancy here.
    for mode in ("off", "annotate", "discard"):
        report = run_fuzz(
            FuzzConfig(seed=9, iters=120, max_n=5, prekey_filter=mode, shrink=False)
        )
        assert report.ok, report.summary()
        if mode == "off":
            assert report.prekey_decided == 0
        if mode == "discard":
            assert report.prekey_discarded == report.prekey_decided


def test_fuzz_config_rejects_bad_prekey_filter():
    with pytest.raises(ValueError):
        FuzzConfig(prekey_filter="maybe")
    with pytest.raises(ValueError):
        FuzzConfig(prekey_chunk=0)
