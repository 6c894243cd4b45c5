"""Workload ``table1``: the paper's own experiment.

``differentiate_circuit(mode="paper")`` over every output of the 53
Table-1 circuits.  The seed only orders the circuits; the outputs do
not depend on it.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from common import FirstRun, Outcome, Pass, clock
from probes import install_table1 as install

from repro.benchcircuits import build_circuit, circuit_names
from repro.core.differentiate import differentiate_circuit

SETUPS = 3

STAGES = ("weights", "grm", "symmetry", "extra-grms", "hard")

EXACT_HARD = {
    "cm150a": 1, "cm151a": 2, "t481": 1,
    "9sym": 0, "rd73": 0, "z4ml": 0, "con1": 0, "cm138a": 0, "parity": 0,
}
"""``#h`` of the exactly defined circuits, as EXPERIMENTS.md records it."""

ROW_LAYERS = (
    "core.differentiate",
    "core.decide_polarity",
    "grm.from_truthtable",
    "core.variable_signatures",
    "core.symmetry",
)


class Suite:
    """Each circuit's support-reduced output functions, in seed order."""

    def __init__(self, seed: int):
        names = circuit_names()
        random.Random(seed).shuffle(names)
        self.circuits = []
        for name in names:
            circuit = build_circuit(name)
            self.circuits.append((name, circuit.n_inputs, circuit.output_pairs()))
        self.first_run = FirstRun("table1")


build = Suite


def run_pass(suite: Suite, spans, outcome: Outcome, first: Optional[Pass]) -> Pass:
    done = Pass(0.0, 0, [])
    for name, n_inputs, pairs in suite.circuits:
        before = spans.self_seconds()
        t0 = clock()
        result = spans.call(
            "core.differentiate", differentiate_circuit, name, n_inputs, pairs, mode="paper"
        )
        elapsed = clock() - t0
        if spans.traced:
            after = spans.self_seconds()
            done.layer_rows[name] = {
                layer: after.get(layer, 0.0) - before.get(layer, 0.0)
                for layer in ROW_LAYERS
            }
        done.seconds += elapsed
        done.latencies.append(elapsed)
        done.items += result.n_outputs
        stages: Dict[str, int] = {}
        for report in result.reports:
            stages[report.stage] = stages.get(report.stage, 0) + 1
        done.rows[name] = {
            "outputs": result.n_outputs,
            "hard": result.hard_outputs,
            "stages": stages,
            "grms": sum(report.grms_used for report in result.reports),
            "seconds": elapsed,
        }
    return done


def _outputs(done: Pass):
    return {name: [row["hard"], row["stages"]] for name, row in done.rows.items()}


def check(suite: Suite, done: Pass, first: Optional[Pass], outcome: Outcome) -> None:
    """``#h`` and stage histograms equal the first pass's and the first
    run's; the exact circuits agree with EXPERIMENTS.md."""
    if first is None:
        differ = suite.first_run.mismatches(_outputs(done))
        for name in _outputs(done):
            outcome.check(name not in differ, f"{name}: #h or stages differ from the first run's")
        for name, hard in EXACT_HARD.items():
            if name in done.rows:
                got = done.rows[name]["hard"]
                outcome.check(got == hard, f"{name}: #h {got}, EXPERIMENTS.md has {hard}")
        return
    want = _outputs(first)
    for name, out in _outputs(done).items():
        outcome.check(out == want.get(name), f"{name}: #h or stages differ between passes")


def per_layer(first: Pass) -> dict:
    out = {"grm.grms_built": sum(row["grms"] for row in first.rows.values())}
    for stage in STAGES:
        out[f"core.stage_{stage}"] = sum(
            row["stages"].get(stage, 0) for row in first.rows.values()
        )
    return out


def row_lines(first: Pass, traced: Optional[Pass]) -> List[str]:
    head = f"{'circuit':<10} {'outs':>5} {'#h':>4} {'grms':>6} {'seconds':>8}  stages"
    if traced is not None:
        head += "  " + " ".join(f"{layer.split('.')[-1][:12]:>12}" for layer in ROW_LAYERS)
    lines = [head]
    for name, row in sorted(first.rows.items(), key=lambda kv: -kv[1]["seconds"]):
        stages = ",".join(f"{s}:{row['stages'][s]}" for s in STAGES if s in row["stages"])
        line = (
            f"{name:<10} {row['outputs']:>5} {row['hard']:>4} {row['grms']:>6} "
            f"{row['seconds']:>8.4f}  {stages}"
        )
        if traced is not None:
            layer_row = traced.layer_rows.get(name, {})
            line += "  " + " ".join(f"{layer_row.get(l, 0.0):>12.4f}" for l in ROW_LAYERS)
        lines.append(line)
    return lines
