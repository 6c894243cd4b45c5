"""Pieces every workload shares: timing statistics, outcome counts,
machine facts, and the per-checkout record of a first run's outputs."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_build" / "perfbench"

clock = time.perf_counter

CPUS = sorted(os.sched_getaffinity(0))
"""The CPUs this process may run on, before any pinning."""


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median_latencies(latencies: Sequence[Sequence[float]]) -> List[float]:
    """Each operation's median latency over the passes: passes repeat the
    same operations in the same order, so the ``i``-th latency of every
    pass times the same work."""
    return [median(times) for times in zip(*latencies)]


def _probe() -> float:
    t0 = clock()
    x, d = 0, {}
    for i in range(40000):
        x = (x * 31 + i) & 0xFFFFFFFF
        d[i & 1023] = x
    return clock() - t0


def pin_fastest_cpu() -> None:
    """Pin this process to the CPU that runs a short probe fastest now.

    On a shared host the speeds of the CPUs drift apart, by up to half,
    as neighbours load them; a single-threaded workload that lands on
    the slow one measures the neighbours.  Choosing the fastest CPU
    before each pass keeps that drift out of the timings.
    """
    best = None
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        t = min(_probe() for _ in range(3))
        if best is None or t < best[0]:
            best = (t, cpu)
    os.sched_setaffinity(0, {best[1]})


def unpin() -> None:
    """Undo :func:`pin_fastest_cpu`: run on every CPU again."""
    os.sched_setaffinity(0, CPUS)


def clear_caches() -> None:
    """Empty the program's process-wide memo tables (FPRM spectra,
    influence and sensitivity data), so that each set-up and pass
    computes what a fresh process would rather than reading what the
    previous one left behind."""
    from repro.core import sensitivity
    from repro.grm.transform import fprm_coefficients

    fprm_coefficients.cache_clear()
    sensitivity._influence_vector.cache_clear()
    sensitivity._sensitivity_data.cache_clear()


def fresh_start(pin: bool = True) -> None:
    """Before a timed set-up or pass: collect garbage, clear the memo
    tables and, for a single-threaded run, move to the fastest CPU."""
    gc.collect()
    clear_caches()
    if pin:
        pin_fastest_cpu()


def timed_setups(build: Callable[[int], object], count: int, pin: bool):
    """Run ``build(i)`` ``count`` times; return the last result and the
    median wall time.  Each call builds the inputs anew.  ``pin``
    moves a single-threaded run to the fastest CPU before each call."""
    times: List[float] = []
    result = None
    for i in range(count):
        fresh_start(pin)
        t0 = clock()
        result = build(i)
        times.append(clock() - t0)
    return result, median(times)


@dataclass
class Pass:
    """One pass over a workload's fixed input set."""

    seconds: float
    """Wall time of the pass: the sum of its timed operations."""
    items: int
    """Units of work completed (circuits, tables or output functions)."""
    latencies: List[float]
    """Seconds of each timed operation."""
    rows: Dict[str, dict] = field(default_factory=dict)
    """Output rows (per circuit), compared across passes and runs."""
    layer_rows: Dict[str, Dict[str, float]] = field(default_factory=dict)
    """Traced pass only: per-circuit self seconds of each layer."""
    verify_s: float = 0.0
    """Seconds of output verification inside the pass, outside its timing."""
    peak_rss_mb: float = 0.0
    """Peak RSS of the work before a verification that reset the mark."""


class Reference:
    """Reference npn classes by per-function ``canonical_form``, the
    program's exact single-function path, computed when first needed."""

    def __init__(self) -> None:
        from repro.core.canonical import canonical_form

        self._canonical_form = canonical_form  # bound before any layer wraps it
        self._canon: Dict[tuple, int] = {}

    def __call__(self, f) -> int:
        key = (f.n, f.bits)
        bits = self._canon.get(key)
        if bits is None:
            bits = self._canon[key] = self._canonical_form(f)[0].bits
        return bits


class Outcome:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


def machine() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def load_average() -> List[float]:
    return [round(x, 2) for x in os.getloadavg()]


def peak_rss_mb(pid: object = "self") -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def reset_peak_rss() -> None:
    """Restart ``VmHWM`` from the current RSS, so memory a check takes
    is not reported as the work's."""
    with open("/proc/self/clear_refs", "w") as refs:
        refs.write("5")


def source_digest() -> str:
    """Hash of the program's and the benchmark's sources, naming one
    version of the code and of the records kept about it."""
    h = hashlib.sha256()
    paths = list((SRC / "repro").rglob("*.py")) + list(Path(__file__).parent.glob("*.py"))
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class FirstRun:
    """The per-item outputs the first run of this version of the code
    recorded in this checkout; ``rows`` is ``None`` in that first run."""

    def __init__(self, workload: str):
        self.path = STATE / f"{workload}-{source_digest()}.json"
        self.rows = json.loads(self.path.read_text()) if self.path.exists() else None

    def mismatches(self, rows: Dict[str, object]) -> List[str]:
        """Keys whose rows differ from the recorded ones; in the first
        run, record ``rows`` (JSON values) and return nothing."""
        rows = json.loads(json.dumps(rows))
        if self.rows is not None:
            return sorted(k for k in set(rows) | set(self.rows) if rows.get(k) != self.rows.get(k))
        STATE.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(rows, sort_keys=True))
        tmp.replace(self.path)
        self.rows = rows
        return []
