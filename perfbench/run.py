"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload map_registry --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  ``--seed`` makes the inputs (the
default seed is 1; seed 1009 is held out for confirming claims made on
other seeds).  ``--trace 0`` measures the end-to-end metrics with no
instrumentation; ``--trace 1`` repeats that measurement, then makes one
more pass (or daemon run) with every layer wrapped, and reports the
per-layer metrics, the share of the traced wall time the layers cover,
and the tracing overhead.  Metric names and units are those of
``BENCHMARK.json``; per-layer metrics of layers a workload does not use
read 0.  Every run checks the program's outputs and counts each failed
check; the last line of standard output is the result object.

Workloads (see each module's docstring):

* ``map_registry`` — every registry circuit, BLIF text to mapped BLIF.
* ``classify_mix`` — hot/cold 5-input tables through one engine.
* ``serve_mix`` — the ``grm-match serve`` daemon under a closed loop.
* ``table1`` — the paper's differentiation over the Table-1 circuits.

End-to-end metrics.  ``work_s`` is the time of one unit of work.  The
batch workloads repeat a pass over the same operations (a circuit
mapped, a classify call of 1,024 tables, a circuit differentiated) until
``--seconds`` of them are measured; ``work_s`` is the median time of a
pass: the whole registry mapped, the table stream classified, Table 1
computed.  On ``serve_mix`` the unit is one request and ``work_s`` its
median client-side latency.  ``items_per_s`` counts circuits, tables, requests
or output functions completed per second; ``peak_rss_mb`` is the
``VmHWM`` of the process doing the work (the daemon on ``serve_mix``);
``setup_s`` is the median time to build the inputs (BLIF text, tables,
wire requests) and boot the daemon.

Before each set-up and pass the program's process-wide memo tables are
emptied (``clear_caches``), so every pass does the work a fresh process
would.  The batch workloads are single-threaded; before each set-up and
pass they also move to the CPU that currently runs fastest
(``pin_fastest_cpu``), since on a shared host one CPU can run up to half
slower than the other for minutes.  ``serve_mix`` runs the daemon and
its callers on all CPUs.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
from statistics import median
from typing import Dict, List

from common import (
    ROOT,
    SRC,
    Outcome,
    clock,
    fresh_start,
    load_average,
    machine,
    median_latencies,
    peak_rss_mb,
    percentile,
    timed_setups,
)
from layers import Layers, NoLayers, table
from probes import CATCH_ALL, coverage, layer_metrics

WORKLOADS = ("map_registry", "classify_mix", "serve_mix", "table1")


def run_passes(wl, seed: int, seconds: float, trace: bool, report: List[str]):
    """Set up, then repeat passes until ``seconds`` of measured work."""
    outcome = Outcome()
    inputs, setup_s = timed_setups(lambda i: wl.build(seed), wl.SETUPS, pin=True)
    passes = []
    while not passes or sum(p.seconds for p in passes) < seconds:
        first = passes[0] if passes else None
        fresh_start()
        done = wl.run_pass(inputs, NoLayers, outcome, first)
        wl.check(inputs, done, first, outcome)
        passes.append(done)
    latencies = median_latencies([p.latencies for p in passes])
    work_s = median(p.seconds for p in passes)
    e2e = {
        "setup_s": setup_s,
        "work_s": work_s,
        "items_per_s": passes[0].items / work_s,
        "peak_rss_mb": max([peak_rss_mb()] + [p.peak_rss_mb for p in passes]),
    }
    report.append(
        f"{len(passes)} passes of {len(latencies)} operations ({passes[0].items} items); "
        f"operation latency at its median over the passes: "
        f"p50 {percentile(latencies, 50) * 1e3:.3f} ms, p90 {percentile(latencies, 90) * 1e3:.3f} ms"
    )
    if not trace:
        report.extend(wl.row_lines(passes[0], None))
        return e2e, {}, outcome
    layers = Layers()
    wl.install(layers)
    try:
        fresh_start()
        traced = wl.run_pass(inputs, layers, outcome, passes[0])
    finally:
        layers.restore()
    wl.check(inputs, traced, passes[0], outcome)
    snapshot = layers.snapshot()
    per_layer = layer_metrics(snapshot)
    per_layer.update(wl.per_layer(passes[0]))
    per_layer.update(coverage(snapshot, traced.seconds))
    per_layer["trace.overhead_s"] = traced.seconds - e2e["work_s"]
    per_layer["e2e.samples"] = len(latencies)
    report.extend(wl.row_lines(passes[0], traced))
    report.append(
        f"traced pass {traced.seconds:.3f} s, untraced {e2e['work_s']:.3f} s; "
        f"named layers cover {per_layer['trace.coverage_frac']:.1%} of the traced pass, "
        f"catch-all self time of {', '.join(CATCH_ALL)} {per_layer['trace.catchall_frac']:.1%}"
    )
    report.extend(table(snapshot))
    return e2e, per_layer, outcome


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro").is_dir() or not spec_path.is_file():
        print(f"error: no program to measure under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))

    load_before = load_average()
    report: List[str] = []
    t0 = clock()
    wl = importlib.import_module(args.workload)
    run = wl.run if hasattr(wl, "run") else functools.partial(run_passes, wl)
    e2e, per_layer, outcome = run(args.seed, args.seconds, bool(args.trace), report)
    wall = clock() - t0

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else e2e
    metrics: Dict[str, dict] = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    for line in report:
        print(line)
    for m in spec["end_to_end"]:
        print(f"{m['name']:<14} {e2e[m['name']]:>14.6g} {m['unit']}")
    fail_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"fail_frac {fail_frac:.6f} ({outcome.failed} of {outcome.attempted} checks)")
    for note in outcome.notes:
        print(f"FAILED: {note}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "wall_s": round(wall, 3),
        "machine": machine(),
        "load_before": load_before,
        "load_after": load_average(),
    }))
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
