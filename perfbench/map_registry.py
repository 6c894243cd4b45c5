"""Workload ``map_registry``: the netlist flow over the whole registry.

Every registry circuit (53 Table-1 circuits plus 4 extras) goes from
BLIF text to mapped BLIF text the way ``grm-match map`` takes it:
``parse_blif`` -> ``Aig.from_netlist`` -> a fresh ``AigMapper().map`` ->
``to_netlist`` -> ``write_blif``.  The seed only orders the circuits;
the outputs do not depend on it.

Every cover of a run's first pass must pass ``MappingResult.verify``
(outside the timed region), and each mapped BLIF must equal the first
pass's and the first run's in this checkout.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Optional

from common import FirstRun, Outcome, Pass, clock, peak_rss_mb, reset_peak_rss
from probes import cover_stages, install_map as install

from repro.aig import Aig, AigMapper
from repro.benchcircuits import blif
from repro.benchcircuits.suite import EXTRA_CIRCUITS, TABLE1_CIRCUITS, build_circuit

SETUPS = 2
"""Building the BLIF text takes about 10 s, so ``setup_s`` is the median
(the mean) of two builds rather than of more."""

VERIFY_MAX_INPUTS = 21
"""cm150a's 21-input mux cone is the widest output cone."""

AREA_CEILING = 360559.7
"""Summed cover area of the registry when the benchmark was defined; a
larger area is a worse mapping and counts as a failure."""

ROW_LAYERS = (
    "benchcircuits.parse_blif",
    "aig.from_netlist",
    "aig.enumerate_cuts",
    "aig.catalog",
    "aig.cut_function",
    "engine.classify",
    "aig.cover",
    "aig.emit",
)


class Registry:
    """The circuits as BLIF text, in seed order."""

    def __init__(self, seed: int):
        names = [spec.name for spec in TABLE1_CIRCUITS + EXTRA_CIRCUITS]
        random.Random(seed).shuffle(names)
        self.circuits = [
            (name, blif.write_blif(build_circuit(name).to_netlist())) for name in names
        ]
        self.first_run = FirstRun("map_registry")


build = Registry


def _map_circuit(text: str, spans):
    netlist = spans.call("benchcircuits.parse_blif", blif.parse_blif, text)
    aig = spans.call("aig.from_netlist", Aig.from_netlist, netlist)
    result = spans.call("aig.cover", lambda: AigMapper().map(aig), split=cover_stages)
    if result is None:
        return aig, None, ""
    mapped = spans.call("aig.emit", lambda: blif.write_blif(result.to_netlist()))
    return aig, result, mapped


def run_pass(registry: Registry, spans, outcome: Outcome, first: Optional[Pass]) -> Pass:
    """Map every circuit once; on the first pass also verify the covers."""
    done = Pass(0.0, 0, [])
    for name, text in registry.circuits:
        before = spans.self_seconds()
        t0 = clock()
        aig, result, mapped = _map_circuit(text, spans)
        elapsed = clock() - t0
        if spans.traced:
            after = spans.self_seconds()
            done.layer_rows[name] = {
                layer: after.get(layer, 0.0) - before.get(layer, 0.0)
                for layer in ROW_LAYERS
            }
        done.seconds += elapsed
        done.latencies.append(elapsed)
        if not outcome.check(result is not None, f"{name}: no cover"):
            continue
        done.items += 1
        stats = result.stats
        row = {
            "ands": aig.num_ands(),
            "seconds": elapsed,
            "area": round(result.area, 6),
            "digest": hashlib.sha256(mapped.encode()).hexdigest()[:16],
            "cuts": stats.cuts_evaluated,
            "distinct": stats.distinct_cut_functions,
        }
        if first is None:
            done.peak_rss_mb = max(done.peak_rss_mb, peak_rss_mb())
            t0 = clock()
            verified = result.verify(max_inputs=VERIFY_MAX_INPUTS)
            done.verify_s += clock() - t0
            reset_peak_rss()
            outcome.check(verified, f"{name}: cover fails verify()")
        done.rows[name] = row
    return done


def _outputs(done: Pass):
    return {name: [row["digest"], row["area"]] for name, row in done.rows.items()}


def check(registry: Registry, done: Pass, first: Optional[Pass], outcome: Outcome) -> None:
    """Covers equal the first pass's, and the first run's in this checkout."""
    if first is None:
        outputs = _outputs(done)
        differ = registry.first_run.mismatches(outputs)
        for name in outputs:
            outcome.check(name not in differ, f"{name}: mapped BLIF differs from the first run's")
        area = total_area(done)
        outcome.check(
            area <= AREA_CEILING * (1 + 1e-9),
            f"map_area {area:.1f} exceeds {AREA_CEILING}",
        )
        return
    want = _outputs(first)
    for name, out in _outputs(done).items():
        outcome.check(out == want.get(name), f"{name}: mapped BLIF differs between passes")


def total_area(done: Pass) -> float:
    return sum(row["area"] for _, row in sorted(done.rows.items()))


def per_layer(first: Pass) -> dict:
    rows = first.rows.values()
    evaluated = sum(r["cuts"] for r in rows)
    return {
        "aig.verify_s": first.verify_s,
        "aig.dedup_frac": sum(r["distinct"] for r in rows) / evaluated if evaluated else 0.0,
        "aig.map_area": total_area(first),
    }


def row_lines(first: Pass, traced: Optional[Pass]) -> List[str]:
    head = f"{'circuit':<10} {'ands':>7} {'map_s':>8} {'area':>10} {'cuts':>7} {'distinct':>8}"
    if traced is not None:
        head += "".join(f" {layer.split('.')[-1][:12]:>12}" for layer in ROW_LAYERS)
    lines = [head]
    for name, row in sorted(first.rows.items(), key=lambda kv: -kv[1]["seconds"]):
        line = (
            f"{name:<10} {row['ands']:>7} {row['seconds']:>8.3f} {row['area']:>10.1f} "
            f"{row['cuts']:>7} {row['distinct']:>8}"
        )
        if traced is not None:
            layer_row = traced.layer_rows.get(name, {})
            line += "".join(f" {layer_row.get(layer, 0.0):>12.4f}" for layer in ROW_LAYERS)
        lines.append(line)
    return lines
