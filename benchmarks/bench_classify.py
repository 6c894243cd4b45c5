"""Batch-classification benchmark: engine vs per-function canonical_form.

Standalone (argparse, no pytest) so CI can run it as a smoke step::

    PYTHONPATH=src python benchmarks/bench_classify.py --quick

Scenarios:

* ``repeated_classes`` — the engine's target workload (the paper's
  library matching): a batch drawn from a small pool of base functions,
  half exact repeats and half fresh random NPN transforms.  The engine
  must beat the per-function ``canonical_form`` loop by >= 5x here.
* ``pure_random`` — uniform random tables; with n = 5 virtually every
  function opens a new class, so there is nothing for dedup, caching,
  or membership probes to exploit and the honest expectation is ~1x.
* ``kernel_on_off`` — the repeated-classes batch with the bit-parallel
  bucketing kernels on (the default engine) vs off (every group forced
  through the scalar loop by raising ``kernels.KERNEL_MIN_BATCH`` out
  of reach); the groupings must match exactly (see also
  ``BENCH_kernels.json`` for the isolated kernel curves).
* ``cache_rerun`` — the repeated-classes batch classified twice through
  one engine: the second pass must be nearly pure LRU cache hits.
* ``npn_space_n4`` — all 65536 4-variable functions through the engine
  (skipped under ``--quick``); the class count must be exactly 222.

Results are written to ``BENCH_classify.json`` (override with
``--out``) with per-scenario wall times and the engine stats counters.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from pathlib import Path
from unittest import mock

from repro import kernels
from repro.boolfunc.truthtable import TruthTable
from repro.core.canonical import canonical_form
from repro.engine import ClassificationEngine, EngineOptions, classify_batch
from repro.grm.transform import fprm_coefficients
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.testing.workloads import (
    DEFAULT_N_VARS as N_VARS,
    DEFAULT_POOL_SIZE as POOL_SIZE,
    make_random_batch,
    make_repeated_batch,
)


def fresh_tables(batch):
    """Rebuild tables so lazy per-object caches never leak between runs."""
    return [TruthTable(f.n, f.bits) for f in batch]


def run_baseline(batch):
    fprm_coefficients.cache_clear()
    tables = fresh_tables(batch)
    t0 = time.perf_counter()
    keys = [canonical_form(f)[0].bits for f in tables]
    return time.perf_counter() - t0, keys


def run_engine(batch, **options):
    fprm_coefficients.cache_clear()
    tables = fresh_tables(batch)
    t0 = time.perf_counter()
    result = classify_batch(tables, **options)
    return time.perf_counter() - t0, result


def same_grouping(base_keys, result):
    groups = {}
    for i, k in enumerate(base_keys):
        groups.setdefault(k, []).append(i)
    return {k.key: v for k, v in result.members.items()} == groups


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, default=4096, help="batch size")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--trials", type=int, default=3, help="best-of trials")
    ap.add_argument(
        "--quick", action="store_true", help="small batch, skip the n=4 space"
    )
    ap.add_argument("--out", default=None, help="JSON output path")
    args = ap.parse_args(argv)

    size = 512 if args.quick else args.size
    trials = 1 if args.quick else args.trials
    rng = random.Random(args.seed)
    report = {
        "benchmark": "bench_classify",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "batch_size": size,
        "pool_size": POOL_SIZE,
        "n_vars": N_VARS,
        "seed": args.seed,
        "trials": trials,
        "scenarios": {},
    }

    # -- repeated classes -------------------------------------------------
    batch = make_repeated_batch(size, rng)
    t_base = min(run_baseline(batch)[0] for _ in range(trials))
    _, base_keys = run_baseline(batch)
    t_eng, result = min(
        (run_engine(batch) for _ in range(trials)), key=lambda r: r[0]
    )
    assert same_grouping(base_keys, result), "engine grouping != baseline"
    speedup = t_base / t_eng
    report["scenarios"]["repeated_classes"] = {
        "baseline_seconds": t_base,
        "engine_seconds": t_eng,
        "speedup": speedup,
        "classes": result.num_classes,
        "stats": result.stats.as_dict(),
    }
    print(
        f"repeated_classes: baseline {t_base:.3f}s engine {t_eng:.3f}s "
        f"speedup {speedup:.2f}x ({result.num_classes} classes)"
    )

    # -- pure random (honest no-repeat case) ------------------------------
    rand_batch = make_random_batch(size, rng)
    t_base_r = min(run_baseline(rand_batch)[0] for _ in range(trials))
    _, base_keys_r = run_baseline(rand_batch)
    t_eng_r, result_r = min(
        (run_engine(rand_batch) for _ in range(trials)), key=lambda r: r[0]
    )
    assert same_grouping(base_keys_r, result_r)
    report["scenarios"]["pure_random"] = {
        "baseline_seconds": t_base_r,
        "engine_seconds": t_eng_r,
        "speedup": t_base_r / t_eng_r,
        "classes": result_r.num_classes,
    }
    print(
        f"pure_random: baseline {t_base_r:.3f}s engine {t_eng_r:.3f}s "
        f"speedup {t_base_r / t_eng_r:.2f}x ({result_r.num_classes} classes)"
    )

    # -- kernel on/off ----------------------------------------------------
    # The same repeated-classes batch through the engine with the batch
    # kernels on vs off; everything else (cache, matchers) identical,
    # so the delta is the bucketing pipeline alone.
    with mock.patch.object(kernels, "KERNEL_MIN_BATCH", sys.maxsize):
        t_scalar_k, result_sk = min(
            (run_engine(batch) for _ in range(trials)),
            key=lambda r: r[0],
        )
    t_batch_k, result_bk = min(
        (run_engine(batch) for _ in range(trials)),
        key=lambda r: r[0],
    )
    assert same_grouping(base_keys, result_sk), "scalar pre-keys diverged"
    assert same_grouping(base_keys, result_bk), "batched pre-keys diverged"
    report["scenarios"]["kernel_on_off"] = {
        "scalar_seconds": t_scalar_k,
        "batch_seconds": t_batch_k,
        "speedup": t_scalar_k / t_batch_k,
        "kernel_batched": result_bk.stats.kernel_batched,
        "kernel_scalar": result_sk.stats.kernel_scalar,
        "note": "end-to-end classify; bucketing is one slice of total time",
    }
    print(
        f"kernel_on_off: scalar {t_scalar_k:.3f}s batch {t_batch_k:.3f}s "
        f"speedup {t_scalar_k / t_batch_k:.2f}x "
        f"({result_bk.stats.kernel_batched} functions batched)"
    )

    # -- cache rerun ------------------------------------------------------
    engine = ClassificationEngine(EngineOptions())
    fprm_coefficients.cache_clear()
    engine.classify(fresh_tables(batch))
    t0 = time.perf_counter()
    rerun = engine.classify(fresh_tables(batch))
    t_rerun = time.perf_counter() - t0
    assert same_grouping(base_keys, rerun)
    report["scenarios"]["cache_rerun"] = {
        "second_pass_seconds": t_rerun,
        "cache_hits": rerun.stats.cache_hits,
        "cache_misses": rerun.stats.cache_misses,
    }
    print(
        f"cache_rerun: second pass {t_rerun:.3f}s "
        f"({rerun.stats.cache_hits} hits / {rerun.stats.cache_misses} misses)"
    )

    # -- full 4-variable space -------------------------------------------
    if not args.quick:
        from repro.engine import npn_class_count_engine

        fprm_coefficients.cache_clear()
        t0 = time.perf_counter()
        count = npn_class_count_engine(4)
        t_n4 = time.perf_counter() - t0
        assert count == 222, count
        report["scenarios"]["npn_space_n4"] = {
            "seconds": t_n4,
            "classes": count,
        }
        print(f"npn_space_n4: {count} classes in {t_n4:.3f}s")

    # -- metrics snapshot -------------------------------------------------
    # One extra instrumented pass over the repeated-classes batch, kept
    # out of the timed scenarios so observability cannot skew them.
    registry = MetricsRegistry()
    obs_runtime.enable(metrics=registry)
    try:
        run_engine(batch)
    finally:
        obs_runtime.disable()
    report["metrics_snapshot"] = registry.snapshot()

    out = Path(args.out) if args.out else Path(__file__).resolve().parents[1] / "BENCH_classify.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")

    if not args.quick and report["scenarios"]["repeated_classes"]["speedup"] < 5.0:
        print("WARNING: repeated_classes speedup below 5x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
