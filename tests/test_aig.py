"""Tests for the AIG substrate, cut enumeration, and the mapper."""

import random

import pytest

from repro.aig import FALSE, TRUE, Aig, AigMapper, enumerate_cuts, lit_not, lit_var
from repro.aig.graph import lit_compl
from repro.benchcircuits import build_circuit
from repro.benchcircuits.netlist import Netlist
from repro.benchcircuits.suite import EXTRA_CIRCUITS, TABLE1_CIRCUITS
from repro.boolfunc import ops
from repro.boolfunc.truthtable import TruthTable
from repro.library import CellLibrary, LibraryCell


def _full_adder_netlist() -> Netlist:
    nl = Netlist("fa", ["a", "b", "cin"], ["sum", "cout"])
    nl.add("sum", "XOR", "a", "b", "cin")
    nl.add("cout", "MAJ", "a", "b", "cin")
    return nl


# ----------------------------------------------------------------------
# Graph construction
# ----------------------------------------------------------------------

def test_constant_folding_and_hashing():
    aig = Aig(2)
    a, b = aig.input_literal(0), aig.input_literal(1)
    assert aig.and_(a, FALSE) == FALSE
    assert aig.and_(a, TRUE) == a
    assert aig.and_(a, a) == a
    assert aig.and_(a, lit_not(a)) == FALSE
    n1 = aig.and_(a, b)
    n2 = aig.and_(b, a)
    assert n1 == n2  # structural hashing after normalization
    assert aig.num_ands() == 1


def test_literal_helpers():
    assert lit_var(7) == 3 and lit_compl(7)
    assert lit_not(lit_not(6)) == 6


def test_boolean_constructors_semantics():
    aig = Aig(3)
    lits = [aig.input_literal(k) for k in range(3)]
    combos = {
        aig.or_many(lits): ops.or_all(3),
        aig.xor_many(lits): ops.xor_all(3),
        aig.and_many(lits): ops.and_all(3),
        aig.mux_(lits[2], lits[0], lits[1]): ops.mux(),
    }
    for literal, expected in combos.items():
        assert aig.literal_table(literal) == expected


def test_from_netlist_matches_netlist_semantics():
    nl = _full_adder_netlist()
    aig = Aig.from_netlist(nl)
    for out_name, literal in aig.outputs:
        tt, support = nl.output_function(out_name)
        # support covers all 3 inputs here, in order.
        assert aig.literal_table(literal) == tt


def test_from_truthtable_roundtrip(rng):
    for _ in range(10):
        n = rng.randint(1, 6)
        f = TruthTable.random(n, rng)
        aig = Aig.from_truthtable(f)
        assert aig.literal_table(aig.outputs[0][1]) == f


def test_simulate_agrees_with_tables(rng):
    aig = Aig.from_netlist(_full_adder_netlist())
    name, literal = aig.outputs[0]
    table = aig.literal_table(literal)
    for m in range(8):
        values = aig.simulate(m)
        got = values[lit_var(literal)] ^ int(lit_compl(literal))
        assert got == table.evaluate(m)


def test_to_netlist_roundtrip():
    aig = Aig.from_netlist(_full_adder_netlist())
    lowered = aig.to_netlist()
    for out_name, literal in aig.outputs:
        tt, support = lowered.output_function(out_name)
        # Expand to all inputs for comparison.
        want = aig.literal_table(literal)
        got = TruthTable.from_function(
            3,
            lambda a: tt.evaluate(
                sum(a[v] << p for p, v in enumerate(support))
            ),
        )
        assert got == want


def test_node_level_and_fanin():
    aig = Aig(2)
    a, b = aig.input_literal(0), aig.input_literal(1)
    n1 = aig.and_(a, b)
    n2 = aig.and_(n1, lit_not(a))
    levels = aig.node_level()
    assert levels[lit_var(n1)] == 1
    assert levels[lit_var(n2)] == 2
    cone = aig.transitive_fanin(lit_var(n2))
    assert {1, 2, lit_var(n1), lit_var(n2)} <= cone


# ----------------------------------------------------------------------
# Cuts
# ----------------------------------------------------------------------

def test_cut_enumeration_small():
    aig = Aig(3)
    a, b, c = (aig.input_literal(k) for k in range(3))
    ab = aig.and_(a, b)
    abc = aig.and_(ab, c)
    cuts = enumerate_cuts(aig, k=2)
    assert (1, 2) in [cut.leaves for cut in cuts[lit_var(ab)]]
    top = [cut.leaves for cut in cuts[lit_var(abc)]]
    assert tuple(sorted((lit_var(ab), 3))) in top
    assert top[-1] == (lit_var(abc),)  # trivial cut present, and last
    # k=2 excludes the 3-leaf cut.
    assert all(cut.size() <= 2 for cut in cuts[lit_var(abc)])
    wide = enumerate_cuts(aig, k=3)
    assert (1, 2, 3) in [cut.leaves for cut in wide[lit_var(abc)]]


def test_cut_dominance_pruning():
    aig = Aig(2)
    a, b = aig.input_literal(0), aig.input_literal(1)
    ab = aig.and_(a, b)
    cuts = enumerate_cuts(aig, k=4)[lit_var(ab)]
    # {1,2} dominates any superset; only it and the trivial cut remain.
    assert sorted(c.leaves for c in cuts) == [(1, 2), (lit_var(ab),)]


def test_cut_function_validates_coverage():
    aig = Aig(2)
    a, b = aig.input_literal(0), aig.input_literal(1)
    ab = aig.and_(a, b)
    with pytest.raises(ValueError):
        aig.cut_function(lit_var(ab), (1,))  # input 2 not covered


def test_enumerate_cuts_rejects_tiny_k():
    with pytest.raises(ValueError):
        enumerate_cuts(Aig(1), k=1)


def test_enumerate_cuts_rejects_zero_max_cuts():
    with pytest.raises(ValueError, match="max_cuts_per_node"):
        enumerate_cuts(Aig(1), max_cuts_per_node=0)


# ----------------------------------------------------------------------
# Composed cut tables
# ----------------------------------------------------------------------

def _assert_tables_equal_rewalk(aig, k=4, max_cuts=16):
    """Every non-trivial cut's composed table equals the cone re-walk."""
    cuts = enumerate_cuts(aig, k, max_cuts)
    for node in aig.and_nodes():
        assert cuts[node][-1].leaves == (node,)
        for cut in cuts[node][:-1]:
            want = aig.cut_function(node, cut.leaves).bits
            assert cut.table == want, (node, cut.leaves, k, max_cuts)


def _random_aig(rng, n_inputs, n_ands):
    """``n_ands`` random ANDs of earlier literals, with random edge phases."""
    aig = Aig(n_inputs)
    literals = [aig.input_literal(i) for i in range(n_inputs)]
    for _ in range(n_ands):
        a, b = rng.sample(literals, 2)
        node = aig.and_(a ^ rng.getrandbits(1), b ^ rng.getrandbits(1))
        if aig.is_and(lit_var(node)):
            literals.append(node & ~1)
    return aig


@pytest.mark.parametrize("max_cuts", [1, 2, 3, 16])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_composed_cut_tables_equal_rewalk_on_random_aigs(k, max_cuts):
    rng = random.Random(1000 * k + max_cuts)
    for _ in range(200):
        aig = _random_aig(rng, rng.randint(3, 6), rng.randint(1, 12))
        _assert_tables_equal_rewalk(aig, k, max_cuts)


def test_composed_cut_tables_stay_exact_above_a_truncated_list():
    # Node 16's cut (2, 3, 5, 7) survives only because node 15's list,
    # cut off at five cuts, lost (2, 3, 7), the cut that dominates it.
    # Leaf 5 lies inside the cone that node 13's cut (2, 3, 7) spans, so
    # a table composed from the fanin cuts would expand that leaf while
    # the re-walk keeps it a free variable.
    aig = Aig(2)
    for a, b in [
        (2, 4), (5, 7), (4, 8), (6, 9), (3, 12), (11, 14), (7, 17),
        (8, 11), (15, 19), (21, 23), (8, 24), (14, 17), (18, 29), (26, 30),
    ]:
        aig.and_(a, b)
    cuts = enumerate_cuts(aig, k=4, max_cuts_per_node=5)
    assert (2, 3, 5, 7) in [cut.leaves for cut in cuts[16]]
    _assert_tables_equal_rewalk(aig, k=4, max_cuts=5)


@pytest.mark.parametrize(
    "name",
    ["rd73", "z4ml", "con1"]
    + [
        pytest.param(spec.name, marks=pytest.mark.slow)
        for spec in TABLE1_CIRCUITS + EXTRA_CIRCUITS
        if spec.name not in ("rd73", "z4ml", "con1")
    ],
)
def test_composed_cut_tables_equal_rewalk_on_circuits(name):
    _assert_tables_equal_rewalk(Aig.from_netlist(build_circuit(name).to_netlist()))


# ----------------------------------------------------------------------
# Mapping
# ----------------------------------------------------------------------

def test_full_adder_maps_to_xor3_and_maj3():
    # Each bind takes the fewest-inverter pin assignment over the whole
    # class symmetry group, so the cover is the two dedicated cells.
    aig = Aig.from_netlist(_full_adder_netlist())
    result = AigMapper().map(aig)
    assert result is not None
    assert result.cell_histogram() == {"XOR3": 1, "MAJ3": 1}
    assert result.area == pytest.approx(12.5)
    assert result.verify()


def test_full_adder_batched_cover_verifies():
    # The mapper binds every distinct cut function once and recovers the
    # pin assignment of each instance by witness replay; the cover must
    # still be correct and no larger than the netlist's three gates.
    aig = Aig.from_netlist(_full_adder_netlist())
    result = AigMapper().map(aig)
    assert result is not None
    assert result.verify()
    assert len(result.nodes) <= 3


def test_random_functions_map_and_verify(rng):
    mapper = AigMapper()
    for _ in range(8):
        n = rng.randint(3, 6)
        f = TruthTable.random(n, rng)
        aig = Aig.from_truthtable(f)
        result = mapper.map(aig)
        assert result is not None
        assert result.verify()


def test_benchmark_circuit_mapping():
    circuit = build_circuit("con1")
    aig = Aig.from_netlist(circuit.to_netlist())
    result = AigMapper().map(aig)
    assert result is not None and result.verify()
    assert result.area > 0
    # The mapper dedups cut functions and never runs the matcher.
    stats = result.stats
    assert 0 < stats.distinct_cut_functions < stats.cuts_evaluated
    assert stats.cut_classes > 0 and stats.witness_replays > 0
    assert stats.matcher_calls == 0
    assert result.class_accounts and any(
        a.instances > 0 for a in result.class_accounts
    )


def test_mapping_with_tiny_library_fails_gracefully():
    # A library with only an inverter cannot cover AND nodes.
    lib = CellLibrary([LibraryCell("INV", ~TruthTable.var(1, 0), 1.0)])
    aig = Aig(2)
    aig.add_output("y", aig.and_(aig.input_literal(0), aig.input_literal(1)))
    assert AigMapper(lib).map(aig) is None


def test_mapping_covers_only_reachable_nodes():
    aig = Aig(3)
    a, b, c = (aig.input_literal(k) for k in range(3))
    used = aig.and_(a, b)
    aig.and_(b, c)  # dangling node: must not be mapped
    aig.add_output("y", used)
    result = AigMapper().map(aig)
    assert result is not None
    assert set(result.nodes) == {lit_var(used)}


def test_constant_and_passthrough_outputs():
    aig = Aig(2)
    aig.add_output("zero", FALSE)
    aig.add_output("one", TRUE)
    aig.add_output("pass", aig.input_literal(1))
    aig.add_output("inv", lit_not(aig.input_literal(0)))
    result = AigMapper().map(aig)
    assert result is not None
    assert result.verify()


# ----------------------------------------------------------------------
# Mapper correctness regressions
# ----------------------------------------------------------------------

def test_verify_enforces_max_inputs_up_front():
    # An output cone wider than the bound must raise before any
    # enumeration starts — the bound used to be silently ignored.
    aig = Aig(6)
    aig.add_output("y", aig.and_many([aig.input_literal(k) for k in range(6)]))
    result = AigMapper().map(aig)
    assert result is not None
    with pytest.raises(ValueError, match="max_inputs"):
        result.verify(max_inputs=3)
    assert result.verify(max_inputs=6)


def _deep_and_chain(n_inputs: int) -> Aig:
    # y = x0 & x1 & ... — built as a linear chain, one level per input,
    # so the mapped cover is itself a chain of ~n/3 4-input cells.
    aig = Aig(n_inputs)
    acc = aig.input_literal(0)
    for k in range(1, n_inputs):
        acc = aig.and_(acc, aig.input_literal(k))
    aig.add_output("y", acc)
    return aig


def test_deep_chain_maps_without_recursion_error():
    # A 4000-level AND chain maps to a >1000-cell chain: recursive
    # netlist emission (and the netlist topological sort) used to blow
    # the Python recursion limit well below this depth.
    n = 4000
    aig = _deep_and_chain(n)
    result = AigMapper().map(aig)
    assert result is not None
    lowered = result.to_netlist()
    assert len(lowered.gates) > 1000
    lowered.validate()  # topological sort over the full depth
    # The cone is far too wide for truth tables; spot-check semantics
    # with a direct gate-level evaluation against the AIG simulator.
    from repro.aig import lit_compl as _compl

    for minterm in (0, (1 << n) - 1, (1 << n) - 2, (1 << n) - (1 << 1777) - 1):
        values = {name: (minterm >> pos) & 1 for pos, name in enumerate(lowered.inputs)}
        for net in lowered._topo_order("y"):
            gate = lowered.gates[net]
            ins = [values[fi] for fi in gate.fanins]
            if gate.op == "CONST0":
                values[net] = 0
            elif gate.op == "NOT":
                values[net] = 1 - ins[0]
            elif gate.op == "BUF":
                values[net] = ins[0]
            elif gate.op == "SOP":
                hit = any(
                    all(
                        (row[pos] == "1") == bool(ins[pos])
                        for pos in range(len(ins))
                    )
                    for row in gate.cover
                )
                values[net] = int(hit) if gate.cover_value else 1 - int(hit)
            else:  # pragma: no cover - emitter only produces the above
                raise AssertionError(gate.op)
        sim = aig.simulate(minterm)
        _, literal = aig.outputs[0]
        want = sim[lit_var(literal)] ^ int(_compl(literal))
        assert values["y"] == want
