"""Whole-netlist mapping benchmark: the two-phase batched flow vs percut.

Standalone (argparse, no pytest) so CI can run it as a smoke step::

    PYTHONPATH=src python benchmarks/bench_netlist_flow.py --guardrail

Maps every circuit of the benchmark registry (53 Table-1 + 4 extra)
through four mapper configurations and records wall-clock, dedup, and
engine counters per mode:

* ``percut`` — the historical baseline: one ``canonical_form`` per cut,
  a mapper-local class cache, and a full matcher call per cache hit.
* ``batched_scalar_cold`` — the two-phase flow (catalog → engine
  classify → witness-replay bind) with the scalar pre-key kernel and no
  persistent store.
* ``batched_batch_cold`` — same with the bit-parallel batch kernel
  (``kernel="auto"``; the covers must be identical — kernel choice
  never changes results).
* ``batched_batch_warm`` — batch kernel plus a class store seeded by a
  prior (untimed) pass over the same circuits, so classification
  warm-starts from store membership probes.

Each mode reuses ONE mapper across all circuits — exactly how a
library-characterization loop would run — so within-mode caches work
for every mode alike.  Every produced cover must pass the mapped-vs-AIG
``verify()`` (outside the timed region).  The acceptance guardrail:
``batched_batch_warm`` total wall-clock beats ``percut``.

Results are written to ``BENCH_netlist_flow.json`` (override with
``--out``); ``--guardrail`` runs a 5-circuit subset and enforces the
win, ``--quick`` is the same subset without the assertion.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.aig import Aig, AigMapper
from repro.benchcircuits.suite import EXTRA_CIRCUITS, TABLE1_CIRCUITS, build_circuit
from repro.engine import ClassificationEngine, EngineOptions
from repro.store import ClassStore

GUARDRAIL_CIRCUITS = ["rd73", "z4ml", "f51m", "9sym", "alu2"]
VERIFY_MAX_INPUTS = 21  # cm150a's exact 21-input mux cone is the widest


def registry_names() -> list:
    return [spec.name for spec in TABLE1_CIRCUITS + EXTRA_CIRCUITS]


def build_aigs(names):
    aigs = {}
    for name in names:
        aigs[name] = Aig.from_netlist(build_circuit(name).to_netlist())
    return aigs


def run_mode(mode_name, mapper, aigs, verify):
    """Map every AIG through one persistent mapper; verify untimed."""
    per_circuit = {}
    total = 0.0
    agg = {
        "cuts_evaluated": 0,
        "distinct_cut_functions": 0,
        "cut_classes": 0,
        "witness_replays": 0,
        "matcher_calls": 0,
        "canonicalizations": 0,
        "engine_canonicalizations": 0,
        "engine_cache_hits": 0,
        "engine_store_hits": 0,
        "engine_membership_hits": 0,
    }
    results = {}
    for name, aig in aigs.items():
        t0 = time.perf_counter()
        result = mapper.map(aig)
        elapsed = time.perf_counter() - t0
        assert result is not None, f"{mode_name}: {name} failed to map"
        total += elapsed
        results[name] = result
        s = result.stats
        for key in agg:
            agg[key] += getattr(s, key)
        per_circuit[name] = {
            "seconds": elapsed,
            "and_nodes": aig.num_ands(),
            "cells": len(result.nodes),
            "area": result.area,
            "cuts_evaluated": s.cuts_evaluated,
            "distinct_cut_functions": s.distinct_cut_functions,
        }
    if verify:
        for name, result in results.items():
            assert result.verify(
                max_inputs=VERIFY_MAX_INPUTS
            ), f"{mode_name}: {name} cover failed verification"
    # percut never fills the distinct-function counter; report no rate.
    dedup = (
        1.0 - agg["distinct_cut_functions"] / agg["cuts_evaluated"]
        if agg["cuts_evaluated"] and agg["distinct_cut_functions"]
        else None
    )
    summary = {
        "total_seconds": total,
        "circuits": len(aigs),
        "circuits_per_second": len(aigs) / total if total else 0.0,
        "dedup_rate": dedup,
        "verified": verify,
        "aggregate": agg,
        "per_circuit": per_circuit,
    }
    dedup_text = f"{dedup * 100.0:5.1f}%" if dedup is not None else "   n/a"
    print(
        f"{mode_name:22s} {total:8.2f}s total  "
        f"{summary['circuits_per_second']:6.2f} circuits/s  "
        f"dedup {dedup_text}  "
        f"store hits {agg['engine_store_hits']}"
    )
    return summary, results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--guardrail",
        action="store_true",
        help="5-circuit subset; assert batched_batch_warm beats percut",
    )
    ap.add_argument(
        "--quick", action="store_true", help="the guardrail subset, no assertion"
    )
    ap.add_argument("--cut-size", type=int, default=4)
    ap.add_argument("--out", default=None, help="JSON output path")
    ap.add_argument(
        "--no-verify", action="store_true", help="skip cover verification"
    )
    args = ap.parse_args(argv)

    names = (
        GUARDRAIL_CIRCUITS if (args.guardrail or args.quick) else registry_names()
    )
    verify = not args.no_verify
    print(f"building {len(names)} subject AIGs ...")
    aigs = build_aigs(names)

    report = {
        "benchmark": "bench_netlist_flow",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "circuits": names,
        "cut_size": args.cut_size,
        "verify_max_inputs": VERIFY_MAX_INPUTS,
        "modes": {},
    }

    report["modes"]["percut"], _ = run_mode(
        "percut",
        AigMapper(cut_size=args.cut_size, mode="percut"),
        aigs,
        verify,
    )

    report["modes"]["batched_scalar_cold"], scalar_results = run_mode(
        "batched_scalar_cold",
        AigMapper(
            cut_size=args.cut_size,
            engine_options=EngineOptions(kernel="scalar"),
        ),
        aigs,
        verify,
    )

    report["modes"]["batched_batch_cold"], batch_results = run_mode(
        "batched_batch_cold",
        AigMapper(
            cut_size=args.cut_size,
            engine_options=EngineOptions(kernel="auto"),
        ),
        aigs,
        verify,
    )

    # Kernel choice must not change the result: compare the covers.
    for name in names:
        a, b = scalar_results[name], batch_results[name]
        assert a.area == b.area and set(a.nodes) == set(b.nodes), (
            f"kernel scalar vs batch diverged on {name}"
        )

    store_dir = tempfile.mkdtemp(prefix="bench_netlist_store_")
    try:
        seed_store = ClassStore(store_dir, create=True)
        seeder = AigMapper(
            cut_size=args.cut_size,
            engine_options=EngineOptions(kernel="auto"),
            store=seed_store,
        )
        for aig in aigs.values():  # untimed write-back pass
            seeder.map(aig)
        seed_store.flush()

        warm_store = ClassStore(store_dir)
        report["modes"]["batched_batch_warm"], _ = run_mode(
            "batched_batch_warm",
            AigMapper(
                cut_size=args.cut_size,
                engine_options=EngineOptions(kernel="auto"),
                store=warm_store,
            ),
            aigs,
            verify,
        )
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    percut_s = report["modes"]["percut"]["total_seconds"]
    warm_s = report["modes"]["batched_batch_warm"]["total_seconds"]
    report["speedup_warm_vs_percut"] = percut_s / warm_s if warm_s else 0.0
    print(
        f"batched_batch_warm vs percut: {report['speedup_warm_vs_percut']:.2f}x"
    )

    out = args.out or str(
        Path(__file__).resolve().parent.parent / "BENCH_netlist_flow.json"
    )
    Path(out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"report written to {out}")

    if args.guardrail and warm_s >= percut_s:
        print(
            f"GUARDRAIL FAIL: batched_batch_warm {warm_s:.2f}s did not beat "
            f"percut {percut_s:.2f}s",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
