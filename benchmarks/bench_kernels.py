"""Scalar-vs-batch speedup curves for the bit-parallel kernel layer.

Standalone (argparse, no pytest) so CI can run it as a smoke step::

    PYTHONPATH=src python benchmarks/bench_kernels.py --guardrail

Scenarios, each swept over n in {4..10} and batch sizes {16, 256, 4096}:

* ``prekey`` — the engine's coarse pre-key plus the full cofactor-weight
  vector for every function in the batch.  The scalar side is what the
  engine pays without the kernel (per-function ``coarse_prekey`` at
  bucketing time, cofactor weights rederived in the polarity search);
  the batch side is ``batch_prekeys``, which yields both from one shared
  butterfly.  This is the path the classifier hits on every bucketing
  pass, and the acceptance target is >= 3x at n = 8, B = 256.
* ``walsh`` — the packed bias-encoded Walsh butterfly vs the Python-list
  reference, one spectrum per function (B is the function count).

Above the flat sweep, the large cells (n in {12, 14, 16}) bench only
``walsh``: the large-n tier check of the packed Walsh butterfly (32-bit
fields at n = 15..16).  Pre-keys have no batch path there — the engine
runs the scalar loop past ``repro.kernels.prekey.BATCH_MAX_N``.

Scalar and batch sides of every cell run inside the *same* invocation so
machine noise cancels out of the ratio; each side is best-of ``--trials``.
Results go to ``BENCH_kernels.json`` (override with ``--out``).

``--guardrail`` runs only the acceptance cell (prekey, n = 8, B = 256)
— it asserts the batch results are bit-identical to scalar — and exits
non-zero if the kernel is slower than scalar: a cheap CI tripwire,
deliberately far below the 3x target because shared CI boxes are noisy.
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

from repro import kernels
from repro.boolfunc import walsh
from repro.boolfunc.truthtable import TruthTable
from repro.engine.prekey import coarse_prekey
from repro.utils import bitops

N_SWEEP = (4, 5, 6, 7, 8, 9, 10)
B_SWEEP = (16, 256, 4096)
ACCEPT_N = 8
ACCEPT_B = 256
ACCEPT_SPEEDUP = 3.0

# Large cells: past the batch bound, where only the Walsh tiers run.
LARGE_CELLS = ((12, 256), (14, 256), (16, 64))
LARGE_WALSH_B = 8


def make_batch(n: int, count: int, rng: random.Random):
    return [rng.getrandbits(1 << n) for _ in range(count)]


def best_of(trials: int, fn, *args):
    best = None
    for _ in range(trials):
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        if best is None or dt < best[0]:
            best = (dt, out)
    return best


def scalar_prekeys_reference(bl, n):
    """What the engine pays per function without the kernel: the scalar
    ``coarse_prekey`` at bucketing time plus the cofactor-weight vector
    the polarity search derives later from the same table."""
    masks = bitops.axis_masks(n)
    keys = []
    weights = []
    for b in bl:
        keys.append(coarse_prekey(TruthTable(n, b)))
        weights.append(
            tuple(
                ((b & m).bit_count(), ((b >> (1 << i)) & m).bit_count())
                for i, m in enumerate(masks)
            )
        )
    return keys, weights


def bench_prekey(bl, n, trials):
    t_s, scalar = best_of(trials, scalar_prekeys_reference, bl, n)
    t_b, batch = best_of(trials, kernels.batch_prekeys, bl, n)
    assert batch == scalar, f"prekey mismatch at n={n}"
    return {"scalar_seconds": t_s, "batch_seconds": t_b, "speedup": t_s / t_b}


def bench_walsh(bl, n, trials):
    tables = [TruthTable(n, b) for b in bl]
    refs = [
        [1 - 2 * ((b >> m) & 1) for m in range(1 << n)] for b in bl
    ]
    t_s, expected = best_of(
        trials, lambda: [walsh._butterfly_list(list(r)) for r in refs]
    )
    t_b, packed = best_of(trials, lambda: [walsh.walsh_spectrum(f) for f in tables])
    assert packed == expected, f"walsh mismatch at n={n}"
    return {"list_seconds": t_s, "packed_seconds": t_b, "speedup": t_s / t_b}


def run_sweep(trials: int, seed: int, quick: bool):
    ns = N_SWEEP if not quick else (4, 8)
    bs = B_SWEEP if not quick else (256,)
    rng = random.Random(seed)
    cells = {}
    for n in ns:
        for count in bs:
            bl = make_batch(n, count, rng)
            cell = {"prekey": bench_prekey(bl, n, trials)}
            if count <= 256 and n <= 10:
                cell["walsh"] = bench_walsh(bl, n, trials)
            cells[f"n={n},B={count}"] = cell
            print(
                f"n={n:2d} B={count:4d}  prekey {cell['prekey']['speedup']:5.2f}x"
                + (
                    f"  walsh {cell['walsh']['speedup']:5.2f}x"
                    if "walsh" in cell
                    else ""
                )
            )
    if not quick:
        for n, count in LARGE_CELLS:
            bl = make_batch(n, count, rng)
            cell = {"walsh": bench_walsh(bl[:LARGE_WALSH_B], n, trials)}
            cells[f"n={n},B={count}"] = cell
            print(f"n={n:2d} B={count:4d}  walsh {cell['walsh']['speedup']:5.2f}x")
    return cells


def run_guardrail(trials: int, seed: int) -> int:
    rng = random.Random(seed)
    bl = make_batch(ACCEPT_N, ACCEPT_B, rng)
    cell = bench_prekey(bl, ACCEPT_N, trials)
    print(
        f"guardrail prekey n={ACCEPT_N} B={ACCEPT_B}: "
        f"scalar {cell['scalar_seconds'] * 1e3:.2f}ms "
        f"batch {cell['batch_seconds'] * 1e3:.2f}ms "
        f"speedup {cell['speedup']:.2f}x"
    )
    if cell["speedup"] < 1.0:
        print("GUARDRAIL FAILED: batch prekey slower than scalar", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--trials", type=int, default=3, help="best-of trials per side")
    ap.add_argument(
        "--quick", action="store_true", help="only n in {4,8} at B=256, no JSON gate"
    )
    ap.add_argument(
        "--guardrail",
        action="store_true",
        help="CI mode: acceptance cell only, fail if batch is slower than scalar",
    )
    ap.add_argument("--out", default=None, help="JSON output path")
    args = ap.parse_args(argv)

    if args.guardrail:
        return run_guardrail(max(args.trials, 5), args.seed)

    cells = run_sweep(args.trials, args.seed, args.quick)
    report = {
        "benchmark": "bench_kernels",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "trials": args.trials,
        "n_sweep": list(N_SWEEP if not args.quick else (4, 8)),
        "batch_sweep": list(B_SWEEP if not args.quick else (256,)),
        "kernel_min_batch": kernels.KERNEL_MIN_BATCH,
        "large_cells": [list(cell) for cell in LARGE_CELLS]
        if not args.quick
        else [],
        "cells": cells,
    }

    out = Path(args.out) if args.out else Path(__file__).resolve().parents[1] / "BENCH_kernels.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")

    rc = 0
    accept = cells.get(f"n={ACCEPT_N},B={ACCEPT_B}")
    if accept and not args.quick and accept["prekey"]["speedup"] < ACCEPT_SPEEDUP:
        print(
            f"WARNING: prekey speedup at n={ACCEPT_N}, B={ACCEPT_B} below "
            f"{ACCEPT_SPEEDUP}x",
            file=sys.stderr,
        )
        rc = 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
