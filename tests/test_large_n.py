"""Large-``n`` stress paths: end-to-end classification of 14-variable
functions through the engine, the store and the CLI.

At this width (2**14-bit tables, past the packed pre-key bound) the
engine computes every pre-key through the scalar loop.  Canonicalizing
such tables dominates the run, so these are excluded from tier-1 and
run with ``--runslow``.
"""

import random

import pytest

from repro.boolfunc.truthtable import TruthTable
from repro.cli import main as cli_main
from repro.engine import ClassificationEngine, classify_batch
from repro.store import ClassStore

pytestmark = pytest.mark.slow

N = 14
COUNT = 12


def _stress_batch(rng):
    base = [TruthTable.random(N, rng) for _ in range(COUNT)]
    batch = list(base)
    # npn copies force real canonicalization work, not just bucketing.
    for t in base[:4]:
        perm = list(range(N))
        rng.shuffle(perm)
        batch.append(t.permute_vars(perm).negate_inputs(rng.getrandbits(N)))
    return base, batch


def test_engine_classifies_random_n14_through_slab_kernels():
    rng = random.Random(1400)
    base, batch = _stress_batch(rng)
    result = classify_batch(batch)
    assert result.num_classes == len(base)
    assert result.stats.kernel_batched == 0
    assert result.stats.kernel_scalar == len(batch)


def test_engine_n14_with_store_roundtrip(tmp_path):
    rng = random.Random(1401)
    base, batch = _stress_batch(rng)
    store_dir = tmp_path / "classes"
    store = ClassStore(store_dir)
    first = ClassificationEngine(store=store).classify(batch)
    assert first.num_classes == len(base)
    # A fresh store over the same directory must warm-start every class
    # from the persisted shards (serialization is width-agnostic hex).
    rehydrated = ClassStore(store_dir)
    again = ClassificationEngine(store=rehydrated).classify(
        [TruthTable(t.n, t.bits) for t in batch]
    )
    assert again.num_classes == first.num_classes
    assert set(again.members) == set(first.members)


def test_cli_classify_random_n14_stress(capsys):
    rc = cli_main(
        [
            "classify",
            "--random",
            str(COUNT),
            "--n",
            str(N),
            "--seed",
            "7",
            "--stats",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert f"random(n={N}, count={COUNT}, seed=7)" in out
    assert f"{COUNT} outputs" in out
