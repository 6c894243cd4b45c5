"""Tests for the Section 7 variable-differentiation experiment."""

from collections import Counter

import pytest

from repro.benchcircuits import build_circuit
from repro.boolfunc import ops
from repro.boolfunc.truthtable import TruthTable
from repro.core import symmetry as sym_mod
from repro.core.differentiate import (
    differentiate_circuit,
    differentiate_output,
)


def test_weights_alone_can_differentiate():
    # x0 | (x1 & x2) | (x1 & x2 & ... ) — engineered distinct weights.
    f = TruthTable.var(3, 0) | (TruthTable.var(3, 1) & TruthTable.var(3, 2))
    f = f & ~(TruthTable.var(3, 2) & ~TruthTable.var(3, 0) & ~TruthTable.var(3, 1))
    rep = differentiate_output(f)
    assert rep.differentiated


def test_symmetric_function_resolved_by_symmetry():
    f = ops.majority(5)
    rep = differentiate_output(f)
    assert rep.differentiated
    assert rep.stage in ("symmetry", "grm")
    assert rep.symmetric_blocks and len(rep.symmetric_blocks[0]) == 5


def test_parity_resolved_by_symmetry():
    rep = differentiate_output(TruthTable.parity(6))
    assert rep.differentiated
    assert not rep.hard_sets


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        differentiate_output(TruthTable.parity(3), mode="bogus")


def test_mux_is_hard_in_paper_mode_but_not_enhanced():
    c = build_circuit("cm150a")
    tt = c.outputs[0].table
    paper = differentiate_output(tt, mode="paper")
    assert paper.is_hard
    enhanced = differentiate_output(tt, mode="enhanced")
    assert not enhanced.is_hard


def test_grms_used_accounting():
    rep = differentiate_output(TruthTable.parity(6), mode="paper")
    assert rep.grms_used >= 1
    easy = differentiate_output(
        TruthTable.var(2, 0) & ~TruthTable.var(2, 1), mode="paper"
    )
    # x0 * ~x1 has distinct weight pairs?  Both literals have weight
    # pair (0, 1) — GRM stage needed; just check the field is sane.
    assert easy.grms_used >= 0


def test_circuit_aggregation_counts_hard_outputs():
    c = build_circuit("cm151a")
    result = differentiate_circuit(c.name, c.n_inputs, c.output_pairs(), mode="paper")
    assert result.n_outputs == 2
    assert result.hard_outputs == 2
    assert result.table2_set_sizes() == [3, 3, 3]


def test_table2_ignores_globally_unused_inputs():
    # One output over inputs {0,1}, circuit declares 5 inputs: inputs
    # 2..4 are unused everywhere and must not form a hard set.
    f = TruthTable.var(2, 0) & TruthTable.var(2, 1)
    result = differentiate_circuit("toy", 5, [(f, (0, 1))])
    assert result.table2_sets == []


def test_table2_cross_output_resolution():
    # Output 0 cannot split {a, b}; output 1 contains only a — so the
    # pair is separable at the circuit level.
    hard_pair = TruthTable.var(2, 0) ^ TruthTable.var(2, 1)  # symmetric: resolved
    # Use a genuinely hard non-symmetric block instead: two variables
    # with equal signatures inside a mux-like function.
    c = build_circuit("cm151a")
    tt = c.outputs[0].table
    rep = differentiate_output(tt, mode="paper")
    assert rep.hard_sets
    hard_block = rep.hard_sets[0]
    # Add a second output that splits the first two members of the block.
    splitter = TruthTable.var(1, 0)
    result = differentiate_circuit(
        "combo",
        tt.n,
        [(tt, tuple(range(tt.n))), (splitter, (hard_block[0],))],
        mode="paper",
    )
    sizes = result.table2_set_sizes()
    assert len(sizes) < len(rep.hard_sets) or sum(sizes) < sum(
        len(b) for b in rep.hard_sets
    )


def test_exact_circuits_differentiation_shapes():
    # The decoder differentiates fully; the weight-counter is symmetric.
    dec = build_circuit("cm138a")
    r = differentiate_circuit(dec.name, dec.n_inputs, dec.output_pairs())
    assert r.hard_outputs == 0
    rd = build_circuit("rd73")
    r2 = differentiate_circuit(rd.name, rd.n_inputs, rd.output_pairs())
    assert r2.hard_outputs == 0


@pytest.mark.parametrize("mode", ["paper", "enhanced"])
def test_each_pair_judged_at_most_once(monkeypatch, mode):
    judged = Counter()
    real = sym_mod.has_any_symmetry

    def counting(f, i, j):
        judged[(i, j)] += 1
        return real(f, i, j)

    monkeypatch.setattr(sym_mod, "has_any_symmetry", counting)
    functions = [
        TruthTable.parity(5),
        ops.majority(5),
        build_circuit("cm151a").outputs[0].table,
        build_circuit("cm150a").outputs[0].table,
    ]
    for f in functions:
        judged.clear()
        differentiate_output(f, mode=mode)
        assert judged, "no block was judged"
        assert max(judged.values()) == 1, judged
