"""Whole-netlist mapping benchmark: one mapping path, three engine arms.

Standalone (argparse, no pytest) so CI can run it as a smoke step::

    PYTHONPATH=src python benchmarks/bench_netlist_flow.py --guardrail

Maps every circuit of the benchmark registry (53 Table-1 + 4 extra)
through three mapper configurations and records wall-clock, dedup, and
engine counters per arm:

* ``scalar_cold`` — the two-phase flow (catalog → engine classify →
  witness-replay bind) with every pre-key group forced through the
  scalar loop (``kernels.KERNEL_MIN_BATCH`` raised out of reach) and no
  persistent store.  The baseline.
* ``auto_cold`` — same with the default engine, which batches pre-keys
  through the bit-parallel kernel.
* ``auto_warm`` — batch kernel plus a class store seeded by a prior
  (untimed) pass over the same circuits, so classification warm-starts
  from store membership probes.

Each arm reuses ONE mapper across all circuits — exactly how a
library-characterization loop would run — so within-arm caches work
for every arm alike.  Every produced cover must pass the mapped-vs-AIG
``verify()`` (outside the timed region).  The three arms must emit
identical covers: the same area and, node by node, the same cut, cell
and pin assignment.  A run whose arms differ exits 1, so every speedup
the report states is between runs with the same output.

Results are written to ``BENCH_netlist_flow.json`` (override with
``--out``); ``--guardrail`` runs a 6-circuit subset.
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
from unittest import mock

from repro import kernels
from repro.aig import Aig, AigMapper
from repro.benchcircuits.suite import EXTRA_CIRCUITS, TABLE1_CIRCUITS, build_circuit
from repro.store import ClassStore

GUARDRAIL_CIRCUITS = ["lal", "rd73", "z4ml", "f51m", "9sym", "alu2"]
"""``lal`` is in the subset because a store seeded with its classes
hands z4ml another witness than a cold engine finds, which is how a
witness-dependent bind used to give z4ml a different cover warm."""
VERIFY_MAX_INPUTS = 21  # cm150a's exact 21-input mux cone is the widest


def registry_names() -> list:
    return [spec.name for spec in TABLE1_CIRCUITS + EXTRA_CIRCUITS]


def build_aigs(names):
    aigs = {}
    for name in names:
        aigs[name] = Aig.from_netlist(build_circuit(name).to_netlist())
    return aigs


def cover_of(result):
    """Area and per-node ``(cut leaves, cell, transform)`` of a cover."""
    return result.area, {
        node: (m.cut.leaves, m.binding.cell.name, m.binding.transform)
        for node, m in result.nodes.items()
    }


def run_arm(arm_name, mapper, aigs, verify):
    """Map every AIG through one persistent mapper; verify untimed."""
    per_circuit = {}
    total = 0.0
    agg = {
        "cuts_evaluated": 0,
        "distinct_cut_functions": 0,
        "cut_classes": 0,
        "witness_replays": 0,
        "matcher_calls": 0,
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
        assert result is not None, f"{arm_name}: {name} failed to map"
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
            "bind_seconds": s.bind_seconds,
        }
    if verify:
        for name, result in results.items():
            assert result.verify(
                max_inputs=VERIFY_MAX_INPUTS
            ), f"{arm_name}: {name} cover failed verification"
    dedup = (
        1.0 - agg["distinct_cut_functions"] / agg["cuts_evaluated"]
        if agg["cuts_evaluated"]
        else None
    )
    summary = {
        "total_seconds": total,
        "total_area": sum(row["area"] for row in per_circuit.values()),
        "bind_seconds": sum(row["bind_seconds"] for row in per_circuit.values()),
        "circuits": len(aigs),
        "circuits_per_second": len(aigs) / total if total else 0.0,
        "dedup_rate": dedup,
        "verified": verify,
        "aggregate": agg,
        "per_circuit": per_circuit,
    }
    print(
        f"{arm_name:12s} {total:8.2f}s total  "
        f"{summary['circuits_per_second']:6.2f} circuits/s  "
        f"dedup {dedup * 100.0 if dedup is not None else 0.0:5.1f}%  "
        f"area {summary['total_area']:.1f}  "
        f"store hits {agg['engine_store_hits']}"
    )
    return summary, {name: cover_of(result) for name, result in results.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--guardrail",
        action="store_true",
        help="6-circuit subset (the arms must still emit identical covers)",
    )
    ap.add_argument("--cut-size", type=int, default=4)
    ap.add_argument("--out", default=None, help="JSON output path")
    ap.add_argument(
        "--no-verify", action="store_true", help="skip cover verification"
    )
    args = ap.parse_args(argv)

    names = GUARDRAIL_CIRCUITS if args.guardrail else registry_names()
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
    covers = {}

    with mock.patch.object(kernels, "KERNEL_MIN_BATCH", sys.maxsize):
        report["modes"]["scalar_cold"], covers["scalar_cold"] = run_arm(
            "scalar_cold", AigMapper(cut_size=args.cut_size), aigs, verify
        )
    report["modes"]["auto_cold"], covers["auto_cold"] = run_arm(
        "auto_cold", AigMapper(cut_size=args.cut_size), aigs, verify
    )

    store_dir = tempfile.mkdtemp(prefix="bench_netlist_store_")
    try:
        seed_store = ClassStore(store_dir, create=True)
        seeder = AigMapper(cut_size=args.cut_size, store=seed_store)
        for aig in aigs.values():  # untimed write-back pass
            seeder.map(aig)
        seed_store.flush()

        report["modes"]["auto_warm"], covers["auto_warm"] = run_arm(
            "auto_warm",
            AigMapper(cut_size=args.cut_size, store=ClassStore(store_dir)),
            aigs,
            verify,
        )
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    differ = sorted(
        f"{arm}:{name}"
        for arm in ("auto_cold", "auto_warm")
        for name in names
        if covers[arm][name] != covers["scalar_cold"][name]
    )
    report["covers_identical"] = not differ
    scalar_s = report["modes"]["scalar_cold"]["total_seconds"]
    warm_s = report["modes"]["auto_warm"]["total_seconds"]
    report["speedup_warm_vs_scalar_cold"] = scalar_s / warm_s if warm_s else 0.0
    print(f"auto_warm vs scalar_cold: {report['speedup_warm_vs_scalar_cold']:.2f}x")

    out = args.out or str(
        Path(__file__).resolve().parent.parent / "BENCH_netlist_flow.json"
    )
    Path(out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"report written to {out}")

    if differ:
        print(
            f"GUARDRAIL FAIL: covers differ from scalar_cold on {', '.join(differ)}",
            file=sys.stderr,
        )
        return 1
    print(f"covers identical across all three arms on {len(names)} circuits")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
