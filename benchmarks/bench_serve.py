"""Seeded load harness for the matching daemon.

Standalone (argparse, no pytest) so CI can run it as a smoke step::

    PYTHONPATH=src python benchmarks/bench_serve.py --quick

The workload is the shared seeded hot/cold request mix
(:func:`repro.testing.workloads.make_traffic_mix`): 80% *hot* requests
drawn from a small pool of base functions (half disguised by random NPN
transforms — the library-matching shape where dedup, caching, and
membership probes pay), 20% *cold* uniform-random tables.

For each concurrency level the harness boots a fresh in-process
:class:`MatchServer` (cold caches, deterministic workload slice per
worker thread), drives it with ``concurrency`` blocking clients, and
records client-side wall-time percentiles (exact, from the recorded
per-request latencies — not the server's bucketed histograms) plus the
server's own coalescing counters.  Each level runs both arms: batching
on (the serving default, ``max_batch=128``) and off (``max_batch=1``
through the same code path).  ``--trials`` repeats each arm, with the
arms interleaved, and the report keeps the median and min-max of rps,
p50 and p99 per arm.  The throughput margin between the arms' median
rps is printed for every level; only the highest level's is gated,
since at low concurrency the arms differ in little but chunk size.

Results are written to ``BENCH_serve.json`` (override with ``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import threading
import time
from pathlib import Path
from statistics import median

from repro.serve import MatchServer, ServeConfig, ServerThread
from repro.serve.client import MatchClient
from repro.testing.workloads import DEFAULT_N_VARS, DEFAULT_POOL_SIZE, make_traffic_mix


def percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


def latency_summary(latencies) -> dict:
    ordered = sorted(latencies)
    return {
        "count": len(ordered),
        "mean_ms": (sum(ordered) / len(ordered)) * 1e3 if ordered else 0.0,
        "p50_ms": percentile(ordered, 0.50) * 1e3,
        "p99_ms": percentile(ordered, 0.99) * 1e3,
    }


def spread(values) -> dict:
    return {"median": median(values), "min": min(values), "max": max(values)}


def fmt(stat: dict, digits: int) -> str:
    """``median [min-max]`` of one spread."""
    return "{0:.{3}f} [{1:.{3}f}-{2:.{3}f}]".format(
        stat["median"], stat["min"], stat["max"], digits
    )


def run_level(tagged, concurrency: int, max_batch: int) -> dict:
    """Drive one fresh server with ``concurrency`` blocking clients."""
    server = MatchServer(config=ServeConfig(max_batch=max_batch))
    st = ServerThread(server).start()
    slices = [tagged[i::concurrency] for i in range(concurrency)]
    barrier = threading.Barrier(concurrency + 1)
    lock = threading.Lock()
    latencies = {"hot": [], "cold": []}
    errors = []

    def worker(slice_) -> None:
        try:
            with MatchClient(port=st.port) as client:
                barrier.wait()
                local = {"hot": [], "cold": []}
                for tag, table in slice_:
                    t0 = time.perf_counter()
                    client.classify(table)
                    local[tag].append(time.perf_counter() - t0)
            with lock:
                latencies["hot"].extend(local["hot"])
                latencies["cold"].extend(local["cold"])
        except Exception as exc:  # surfaced after join; must not hang the barrier
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(s,), daemon=True) for s in slices
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    if errors:
        raise errors[0]
    with MatchClient(port=st.port) as client:
        stats = client.stats()
    st.stop()
    every = latencies["hot"] + latencies["cold"]
    return {
        "max_batch": max_batch,
        "concurrency": concurrency,
        "requests": len(tagged),
        "elapsed_seconds": elapsed,
        "throughput_rps": len(tagged) / elapsed if elapsed else 0.0,
        "latency": {
            "all": latency_summary(every),
            "hot": latency_summary(latencies["hot"]),
            "cold": latency_summary(latencies["cold"]),
        },
        "server": {
            "engine_batches": stats["batching"]["batches"],
            "engine_tables": stats["batching"]["tables"],
            "mean_batch_fill": stats["batching"]["mean_fill"],
            "overloaded": stats["counters"].get("serve.overloaded", 0),
        },
    }


def summarize(trials) -> dict:
    """Median and min-max of rps, p50 and p99 over one arm's trials."""
    return {
        "throughput_rps": spread([t["throughput_rps"] for t in trials]),
        "p50_ms": spread([t["latency"]["all"]["p50_ms"] for t in trials]),
        "p99_ms": spread([t["latency"]["all"]["p99_ms"] for t in trials]),
        "mean_batch_fill": spread([t["server"]["mean_batch_fill"] for t in trials]),
        "trials": trials,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--requests", type=int, default=2000, help="requests per level")
    ap.add_argument(
        "--trials", type=int, default=3, help="runs per arm and level (interleaved)"
    )
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument(
        "--levels",
        type=int,
        nargs="+",
        default=[4, 16, 32],
        help="concurrency levels (client thread counts)",
    )
    ap.add_argument("--hot-fraction", type=float, default=0.8, dest="hot_fraction")
    ap.add_argument("--max-batch", type=int, default=128, dest="max_batch")
    ap.add_argument(
        "--quick", action="store_true", help="small request count, one trial"
    )
    ap.add_argument("--out", default=None, help="JSON output path")
    args = ap.parse_args(argv)

    requests = 120 if args.quick else args.requests
    trials = 1 if args.quick else max(1, args.trials)
    report = {
        "benchmark": "bench_serve",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "requests_per_level": requests,
        "trials": trials,
        "hot_fraction": args.hot_fraction,
        "pool_size": DEFAULT_POOL_SIZE,
        "n_vars": DEFAULT_N_VARS,
        "max_batch": args.max_batch,
        "levels": {},
    }

    margins = {}
    for concurrency in args.levels:
        # identical seeded mix for both arms of this level
        tagged = make_traffic_mix(
            requests, random.Random(args.seed), hot_fraction=args.hot_fraction
        )
        runs = {"on": [], "off": []}
        for _ in range(trials):
            runs["on"].append(run_level(tagged, concurrency, args.max_batch))
            runs["off"].append(run_level(tagged, concurrency, 1))
        on, off = summarize(runs["on"]), summarize(runs["off"])
        margin = on["throughput_rps"]["median"] / off["throughput_rps"]["median"]
        margins[concurrency] = margin
        report["levels"][str(concurrency)] = {
            "batching_on": on,
            "batching_off": off,
            "batching_margin": margin,
        }
        print(
            f"concurrency={concurrency}: "
            f"on {fmt(on['throughput_rps'], 0)} rps, "
            f"p50 {fmt(on['p50_ms'], 2)} ms, p99 {fmt(on['p99_ms'], 2)} ms, "
            f"fill {on['mean_batch_fill']['median']:.1f} | "
            f"off {fmt(off['throughput_rps'], 0)} rps, "
            f"p50 {fmt(off['p50_ms'], 2)} ms, p99 {fmt(off['p99_ms'], 2)} ms | "
            f"margin {margin:.2f}x"
        )

    # Batching pays where it is designed to pay: under concurrency.  At
    # low concurrency both arms run one small chunk after another and
    # their margin is noise around 1.0x, so the regression gate is the
    # HIGHEST level's margin.
    top = max(margins) if margins else None
    report["batching_margin_at_top_concurrency"] = margins.get(top)
    out = (
        Path(args.out)
        if args.out
        else Path(__file__).resolve().parents[1] / "BENCH_serve.json"
    )
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")

    if not args.quick and top is not None and margins[top] < 1.0:
        print(
            "WARNING: batching lost to batching-off at the highest "
            "concurrency level",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
