"""Persistent class-store benchmark: cold vs warm classification, and
store-indexed library binding vs the linear matcher baseline.

Standalone (argparse, no pytest) so CI can run it as a smoke step::

    PYTHONPATH=src python benchmarks/bench_store.py --quick

Scenarios:

* ``cold_vs_warm`` — the store's reason to exist.  Cold: an engine over
  an empty store classifies a repeated-classes batch (paying every
  canonicalization, then writing the classes back).  Warm: a *fresh*
  engine over the now-populated store classifies new random transforms
  of the same pool — every class is seeded from disk, so nearly every
  function resolves by membership probe (a rare probe budget bailout
  still pays a canonicalization) and the warm pass must beat the cold.
* ``reopen_query`` — store open + per-function ``store_lookup`` latency
  against a reopened store (the `grm-match lib query` path).
* ``bind_parity`` — `CellLibrary.from_store` witness-replay binding vs
  `bind_linear` (canonicalize + full matcher per candidate) over random
  targets of every cell class; asserts cost parity while timing both.

Results are written to ``BENCH_store.json`` (override with ``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import tempfile
import time
from pathlib import Path

from repro.boolfunc.transform import NpnTransform
from repro.boolfunc.truthtable import TruthTable
from repro.core.canonical import canonical_form
from repro.engine import ClassificationEngine, store_lookup
from repro.grm.transform import fprm_coefficients
from repro.library import CellLibrary, default_cells
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.store import ClassStore

N_VARS = 5


def make_pool(size: int, rng: random.Random):
    """One random function per ~4 batch slots: at n=5 these are almost
    all distinct classes, so the cold pass pays a canonicalization per
    class while the warm pass pays only membership probes."""
    return [TruthTable.random(N_VARS, rng) for _ in range(max(48, size // 4))]


def transformed_batch(pool, size: int, rng: random.Random):
    """Fresh random NPN transforms of pool functions — same classes,
    (almost surely) new bit patterns, so nothing is an exact repeat."""
    return [
        NpnTransform.random(N_VARS, rng).apply(rng.choice(pool))
        for _ in range(size)
    ]


def fresh_tables(batch):
    """Rebuild tables so lazy per-object caches never leak between runs."""
    return [TruthTable(f.n, f.bits) for f in batch]


def classify_with_store(batch, store):
    fprm_coefficients.cache_clear()
    tables = fresh_tables(batch)
    engine = ClassificationEngine(store=store)
    t0 = time.perf_counter()
    result = engine.classify(tables)
    return time.perf_counter() - t0, result


def baseline_keys(batch):
    fprm_coefficients.cache_clear()
    return [canonical_form(f)[0].bits for f in fresh_tables(batch)]


def same_grouping(base_keys, result):
    groups = {}
    for i, k in enumerate(base_keys):
        groups.setdefault(k, []).append(i)
    return {k.key: v for k, v in result.members.items()} == groups


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, default=2048, help="batch size")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--bind-targets", type=int, default=400, dest="bind_targets")
    ap.add_argument("--quick", action="store_true", help="small batches")
    ap.add_argument("--out", default=None, help="JSON output path")
    args = ap.parse_args(argv)

    size = 256 if args.quick else args.size
    bind_targets = 80 if args.quick else args.bind_targets
    rng = random.Random(args.seed)
    report = {
        "benchmark": "bench_store",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "batch_size": size,
        "pool_size": max(48, size // 4),
        "n_vars": N_VARS,
        "seed": args.seed,
        "scenarios": {},
    }

    with tempfile.TemporaryDirectory(prefix="bench-store-") as tmp:
        store_path = Path(tmp) / "classes"

        # -- cold vs warm -------------------------------------------------
        pool = make_pool(size, rng)
        cold_batch = transformed_batch(pool, size, rng)
        warm_batch = transformed_batch(pool, size, rng)
        cold_keys = baseline_keys(cold_batch)
        warm_keys = baseline_keys(warm_batch)

        with ClassStore(store_path, num_shards=32) as store:
            t_cold, cold = classify_with_store(cold_batch, store)
        assert same_grouping(cold_keys, cold), "cold grouping != baseline"

        with ClassStore(store_path, create=False) as store:
            t_warm, warm = classify_with_store(warm_batch, store)
        assert same_grouping(warm_keys, warm), "warm grouping != baseline"
        # Probe budget bailouts may canonicalize a stray function or two;
        # the store must still absorb (nearly) the whole batch.
        assert warm.stats.canonicalizations <= max(2, size // 20), (
            f"warm pass canonicalized {warm.stats.canonicalizations} times"
        )
        assert warm.stats.store_hits > 0
        speedup = t_cold / t_warm
        report["scenarios"]["cold_vs_warm"] = {
            "cold_seconds": t_cold,
            "warm_seconds": t_warm,
            "speedup": speedup,
            "classes": cold.num_classes,
            "cold_stats": cold.stats.as_dict(),
            "warm_stats": warm.stats.as_dict(),
        }
        print(
            f"cold_vs_warm: cold {t_cold:.3f}s warm {t_warm:.3f}s "
            f"speedup {speedup:.2f}x ({cold.num_classes} classes, "
            f"warm canonicalizations={warm.stats.canonicalizations})"
        )

        # -- reopen + per-function query latency --------------------------
        fprm_coefficients.cache_clear()
        queries = fresh_tables(transformed_batch(pool, min(size, 256), rng))
        t0 = time.perf_counter()
        reopened = ClassStore(store_path, create=False)
        hits = sum(1 for f in queries if store_lookup(reopened, f) is not None)
        t_query = time.perf_counter() - t0
        report["scenarios"]["reopen_query"] = {
            "queries": len(queries),
            "hits": hits,
            "seconds": t_query,
            "per_query_ms": 1000.0 * t_query / len(queries),
        }
        print(
            f"reopen_query: {hits}/{len(queries)} hits in {t_query:.3f}s "
            f"({1000.0 * t_query / len(queries):.3f} ms/query)"
        )

        # -- library binding: witness replay vs linear matcher ------------
        lib = CellLibrary()
        cell_store_path = Path(tmp) / "cells"
        with ClassStore(cell_store_path, num_shards=16) as cell_store:
            lib.build_store(cell_store)
            warm_lib = CellLibrary.from_store(cell_store)

            cells = default_cells()
            targets = [
                NpnTransform.random(c.n_inputs, rng).apply(c.function)
                for c in (rng.choice(cells) for _ in range(bind_targets))
            ]

            fprm_coefficients.cache_clear()
            t0 = time.perf_counter()
            slow = [lib.bind_linear(f) for f in fresh_tables(targets)]
            t_linear = time.perf_counter() - t0

            fprm_coefficients.cache_clear()
            t0 = time.perf_counter()
            fast = [warm_lib.bind(f) for f in fresh_tables(targets)]
            t_store = time.perf_counter() - t0

        for f, a, b in zip(targets, fast, slow):
            assert (a is None) == (b is None)
            assert a.cell.area == b.cell.area
            assert a.transform.apply(a.cell.function) == f
        report["scenarios"]["bind_parity"] = {
            "targets": bind_targets,
            "linear_seconds": t_linear,
            "store_seconds": t_store,
            "speedup": t_linear / t_store,
        }
        print(
            f"bind_parity: linear {t_linear:.3f}s store {t_store:.3f}s "
            f"speedup {t_linear / t_store:.2f}x ({bind_targets} targets)"
        )

        # -- metrics snapshot ---------------------------------------------
        # One extra instrumented warm pass + store maintenance, kept out
        # of the timed scenarios so observability cannot skew them.
        registry = MetricsRegistry()
        obs_runtime.enable(metrics=registry)
        try:
            with ClassStore(store_path, create=False) as store:
                classify_with_store(warm_batch, store)
                store.verify()
            with ClassStore(cell_store_path, create=False) as cell_store:
                CellLibrary.from_store(cell_store).bind_all(fresh_tables(targets))
        finally:
            obs_runtime.disable()
        report["metrics_snapshot"] = registry.snapshot()

    out = Path(args.out) if args.out else Path(__file__).resolve().parents[1] / "BENCH_store.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")

    if not args.quick and report["scenarios"]["cold_vs_warm"]["speedup"] < 1.5:
        print("WARNING: warm pass not meaningfully faster than cold", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
