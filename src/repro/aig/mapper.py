"""Cut-based technology mapping with npn Boolean matching.

The full application loop the paper targets: enumerate k-feasible cuts
over the subject AIG with each cut's local function, decide by npn
matching which library cells can implement it, and pick a cover by
dynamic programming on (duplication-ignoring) area.

The mapper runs the two-phase whole-netlist flow.  Phase one composes
every cut's truth table as :func:`repro.aig.cuts.enumerate_cuts` forms
the cut, and :func:`repro.aig.cuts.catalog_cut_functions` dedups the
non-trivial cuts' functions by exact ``(n, bits)`` identity, grouped by
support width.  Phase two pushes each width group through the
:class:`~repro.engine.ClassificationEngine` (kernel-batched pre-keys,
membership probes, optional persistent store warm-start/write-back)
and binds each resulting npn class against the cell index by witness
replay (:meth:`~repro.library.techmap.CellLibrary.bind_with_key`) — one
class-key resolution per *class*, one bind per distinct function, and
no matcher run at all.  Each bind is a pure function of the cut
function and the library, so the cover does not depend on store
warmth, the pre-key path or what the engine mapped before.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.aig.cuts import Cut, CutCatalog, catalog_cut_functions, enumerate_cuts
from repro.aig.graph import FALSE, Aig, lit_compl, lit_var
from repro.benchcircuits.netlist import Gate, Netlist
from repro.boolfunc.truthtable import TruthTable
from repro.engine import ClassificationEngine, ClassKey, EngineOptions
from repro.library.techmap import Binding, CellLibrary
from repro.obs import runtime as _obs
from repro.utils import bitops

INVERTER_AREA = 1.0


class MappingError(RuntimeError):
    """An internal inconsistency in the mapping pipeline — a cover that
    references unmapped logic.  Deliberately loud: emitting such a cover
    would produce a functionally wrong netlist."""


@dataclass
class MappedNode:
    """One chosen cover element: a node implemented by a cell on a cut."""

    node: int
    cut: Cut
    binding: Binding
    function: TruthTable
    """Local function over ``cut.leaves`` (already phase-resolved)."""


@dataclass
class ClassAccount:
    """Per-npn-class accounting row of one mapping run.

    ``distinct_functions`` counts the deduped cut functions the class
    absorbed, ``cut_occurrences`` the raw cut evaluations behind them;
    ``cell`` is the representative bound cell (members can bind to
    other cells of the class, with other inverter counts).
    ``instances``/``area`` are filled after cover selection with the
    chosen cover elements of the class.
    """

    n: int
    key: int
    quarantined: bool
    distinct_functions: int
    cut_occurrences: int
    cell: Optional[str] = None
    cell_area: float = 0.0
    instances: int = 0
    area: float = 0.0


@dataclass
class MappingStats:
    """Work counters for one mapping run: dedup, engine work, and
    witness-replay binds (``matcher_calls`` counts the per-function
    binds of quarantined classes)."""

    cuts_evaluated: int = 0
    matcher_calls: int = 0
    distinct_cut_functions: int = 0
    cut_classes: int = 0
    bound_classes: int = 0
    unbound_classes: int = 0
    quarantined_classes: int = 0
    witness_replays: int = 0
    engine_canonicalizations: int = 0
    engine_membership_hits: int = 0
    engine_cache_hits: int = 0
    engine_store_hits: int = 0
    enumerate_seconds: float = 0.0
    classify_seconds: float = 0.0
    bind_seconds: float = 0.0

    def dedup_rate(self) -> float:
        """Fraction of cut evaluations resolved by exact dedup."""
        if not self.cuts_evaluated:
            return 0.0
        return 1.0 - self.distinct_cut_functions / self.cuts_evaluated


@dataclass
class MappingResult:
    """A complete cover of the AIG outputs."""

    aig: Aig
    nodes: Dict[int, MappedNode]
    output_literals: List[Tuple[str, int]]
    area: float
    stats: MappingStats = field(repr=False, default_factory=MappingStats)
    class_accounts: List[ClassAccount] = field(repr=False, default_factory=list)

    def cell_histogram(self) -> Dict[str, int]:
        hist: Dict[str, int] = {}
        for mapped in self.nodes.values():
            hist[mapped.binding.cell.name] = hist.get(mapped.binding.cell.name, 0) + 1
        return hist

    def to_netlist(self, name: str = "mapped") -> Netlist:
        """Emit the cover as a netlist (one SOP gate per cell instance,
        NOT gates for output inverters) for independent verification.
        Emission is stack-based, so arbitrarily deep covers (e.g. a long
        AND chain) never hit the recursion limit."""
        netlist = Netlist(name, list(self.aig.input_names), [o for o, _ in self.output_literals])
        net_of: Dict[int, str] = {
            1 + k: self.aig.input_names[k] for k in range(self.aig.n_inputs)
        }
        needed_const = any(lit_var(l) == FALSE for _, l in self.output_literals)
        if needed_const:
            netlist.add_gate(Gate("__const0", "CONST0"))
            net_of[FALSE] = "__const0"

        def emit(node: int) -> str:
            stack = [node]
            while stack:
                current = stack[-1]
                if current in net_of:
                    stack.pop()
                    continue
                mapped = self.nodes.get(current)
                if mapped is None:
                    raise MappingError(f"cover references unmapped node {current}")
                pending = [leaf for leaf in mapped.cut.leaves if leaf not in net_of]
                if pending:
                    stack.extend(pending)
                    continue
                fanin_nets = tuple(net_of[leaf] for leaf in mapped.cut.leaves)
                rows = []
                for m in mapped.function.minterms():
                    rows.append(
                        "".join(
                            "1" if (m >> pos) & 1 else "0"
                            for pos in range(len(fanin_nets))
                        )
                    )
                net = f"g{current}"
                if rows:
                    netlist.add_gate(Gate(net, "SOP", fanin_nets, tuple(rows), 1))
                else:
                    netlist.add_gate(Gate(net, "CONST0"))
                net_of[current] = net
                stack.pop()
            return net_of[node]

        def literal_net(literal: int) -> str:
            base = emit(lit_var(literal))
            if not lit_compl(literal):
                return base
            inv = f"{base}__n"
            if inv not in netlist.gates:
                netlist.add_gate(Gate(inv, "NOT", (base,)))
            return inv

        for out_name, literal in self.output_literals:
            netlist.add_gate(Gate(out_name, "BUF", (literal_net(literal),)))
        return netlist

    def verify(self, max_inputs: int = 14) -> bool:
        """End-to-end check: the mapped netlist equals the subject AIG.

        Each output is compared over its own input *cone*, so narrow
        outputs of very wide netlists verify cheaply; the ``max_inputs``
        bound applies per cone and is enforced up front — an output
        whose cone exceeds it raises :class:`ValueError` before any
        enumeration starts.  The comparison itself is pure table
        algebra (replicate the mapped function over the cone width,
        permute its support into cone positions, compare bits), so no
        per-minterm Python loop runs.
        """
        aig = self.aig
        cones: Dict[str, Tuple[int, ...]] = {}
        for out_name, literal in self.output_literals:
            leaves = tuple(aig.cone_inputs(lit_var(literal)))
            if len(leaves) > max_inputs:
                raise ValueError(
                    f"output {out_name!r} depends on {len(leaves)} inputs, over "
                    f"the max_inputs={max_inputs} verification bound; raise "
                    f"max_inputs to verify it densely"
                )
            cones[out_name] = leaves
        mapped = self.to_netlist()
        for out_name, literal in self.output_literals:
            leaves = cones[out_name]
            k = len(leaves)
            want = aig.cut_function(lit_var(literal), leaves)
            if lit_compl(literal):
                want = ~want
            try:
                got, support = mapped.output_function(out_name, max_support=k)
            except ValueError:
                return False  # cover reads inputs outside the spec cone
            pos_of = {leaf: pos for pos, leaf in enumerate(leaves)}
            j = len(support)
            bits = got.bits
            if k > j:
                # Replicate over the cone width: vars j..k-1 are dummies.
                bits *= ((1 << (1 << k)) - 1) // ((1 << (1 << j)) - 1)
            perm = [0] * k
            used = set()
            for p, var in enumerate(support):
                pos = pos_of.get(1 + var)
                if pos is None:
                    return False  # cover reads an input outside the cone
                perm[p] = pos
                used.add(pos)
            spare = iter(pos for pos in range(k) if pos not in used)
            for p in range(j, k):
                perm[p] = next(spare)
            if bitops.permute_vars(bits, k, perm) != want.bits:
                return False
        return True


class AigMapper:
    """Map an AIG onto a :class:`CellLibrary` with npn matching.

    A custom ``engine`` (or ``engine_options``/``store``) configures
    classification — pass a store-backed engine for cross-run warm
    starts, or reuse one engine across many circuits so its
    canonical-key cache persists.  Neither changes the cover.
    """

    def __init__(
        self,
        library: Optional[CellLibrary] = None,
        cut_size: int = 4,
        max_cuts_per_node: int = 16,
        engine: Optional[ClassificationEngine] = None,
        engine_options: Optional[EngineOptions] = None,
        store=None,
    ):
        if engine is not None and (engine_options is not None or store is not None):
            raise ValueError("pass either engine or engine_options/store, not both")
        self.library = library if library is not None else CellLibrary()
        self.cut_size = cut_size
        self.max_cuts_per_node = max_cuts_per_node
        self.engine = (
            engine
            if engine is not None
            else ClassificationEngine(engine_options or EngineOptions(), store=store)
        )

    def map(self, aig: Aig) -> Optional[MappingResult]:
        """Compute a minimum-area (duplication-ignoring) cover.

        Returns ``None`` only when some required node has no matchable
        cut — impossible with a library containing a 2-input AND class.
        """
        with _obs.tracer.span("mapper.map") as span:
            result = self._map(aig)
            if span.recording:
                span.set("and_nodes", aig.num_ands())
                if result is not None:
                    span.set("cells", len(result.nodes))
                    span.set("area", result.area)
                    span.set("cut_classes", result.stats.cut_classes)
            return result

    def _map(self, aig: Aig) -> Optional[MappingResult]:
        stats = MappingStats()
        t0 = time.perf_counter()
        cuts = enumerate_cuts(aig, self.cut_size, self.max_cuts_per_node)
        catalog = catalog_cut_functions(aig, cuts)
        stats.cuts_evaluated = catalog.cut_functions_evaluated
        stats.distinct_cut_functions = catalog.distinct_functions
        stats.enumerate_seconds = time.perf_counter() - t0
        bindings: Dict[Tuple[int, int], Optional[Binding]] = {}
        table_of: Dict[Tuple[int, int], TruthTable] = {}
        accounts: Dict[ClassKey, ClassAccount] = {}
        class_of: Dict[Tuple[int, int], ClassKey] = {}
        self._bind_catalog(catalog, stats, bindings, table_of, accounts, class_of)
        # Cell area plus input/output inverters, once per bound function.
        cell_cost: Dict[Tuple[int, int], float] = {
            key: binding.cell.area + INVERTER_AREA * binding.inverter_count()
            for key, binding in bindings.items()
            if binding is not None
        }

        # Every leaf is a primary input or an earlier AND node, and a
        # node without a cover ends the mapping, so every leaf has a cost.
        best_cost: Dict[int, float] = {FALSE: 0.0}
        best_choice: Dict[int, Tuple[Cut, Tuple[int, int]]] = {}
        for idx in range(1, aig.n_inputs + 1):
            best_cost[idx] = 0.0

        for node in aig.and_nodes():
            node_best: Optional[float] = None
            for cut, key in catalog.node_cuts[node]:
                cost = cell_cost.get(key)
                if cost is None:
                    continue
                cost += sum(best_cost[leaf] for leaf in cut.leaves)
                if node_best is None or cost < node_best:
                    node_best = cost
                    best_choice[node] = (cut, key)
            if node_best is None:
                return None
            best_cost[node] = node_best

        # Collect the cover actually reachable from the outputs.
        chosen: Dict[int, MappedNode] = {}
        area = 0.0
        stack = [lit_var(l) for _, l in aig.outputs]
        seen = set()
        while stack:
            node = stack.pop()
            if node in seen or not aig.is_and(node):
                continue
            seen.add(node)
            cut, key = best_choice[node]
            chosen[node] = MappedNode(node, cut, bindings[key], table_of[key])
            cell_area = cell_cost[key]
            area += cell_area
            account = accounts[class_of[key]]
            account.instances += 1
            account.area += cell_area
            stack.extend(cut.leaves)
        area += INVERTER_AREA * sum(
            1 for _, literal in aig.outputs if lit_compl(literal)
        )
        return MappingResult(
            aig=aig,
            nodes=chosen,
            output_literals=list(aig.outputs),
            area=area,
            stats=stats,
            class_accounts=sorted(
                accounts.values(), key=lambda a: (a.n, a.quarantined, a.key)
            ),
        )

    # ------------------------------------------------------------------
    # Phase two: classify and bind
    # ------------------------------------------------------------------

    def _bind_catalog(
        self,
        catalog: CutCatalog,
        stats: MappingStats,
        bindings: Dict[Tuple[int, int], Optional[Binding]],
        table_of: Dict[Tuple[int, int], TruthTable],
        accounts: Dict[ClassKey, ClassAccount],
        class_of: Dict[Tuple[int, int], ClassKey],
    ) -> None:
        """Classify every distinct cut function and bind each class.

        One engine batch per support width; classes resolve to cells
        through the indexed witness-replay path.  Quarantined classes
        (no canonical key) fall back to the library's per-function bind.
        """
        occurrences = catalog.occurrences
        t_start = time.perf_counter()
        engine_seconds = 0.0
        for width in sorted(catalog.distinct_by_width):
            keys = catalog.distinct_by_width[width]
            tables = [TruthTable(n, bits) for n, bits in keys]
            for key, tt in zip(keys, tables):
                table_of[key] = tt
            result = self.engine.classify(tables)
            es = result.stats
            engine_seconds += es.total_seconds
            stats.engine_canonicalizations += es.canonicalizations
            stats.engine_membership_hits += es.membership_hits
            stats.engine_cache_hits += es.cache_hits
            stats.engine_store_hits += es.store_hits
            stats.cut_classes += result.num_classes
            for class_key, idxs in sorted(result.members.items()):
                account = ClassAccount(
                    n=class_key.n,
                    key=class_key.key,
                    quarantined=class_key.quarantined,
                    distinct_functions=len(idxs),
                    cut_occurrences=sum(occurrences[keys[i]] for i in idxs),
                )
                if class_key.quarantined:
                    stats.quarantined_classes += 1
                    for i in idxs:
                        bindings[keys[i]] = self.library.bind(tables[i])
                        stats.matcher_calls += 1
                elif not self.library.entries_for(class_key.n, class_key.key):
                    for i in idxs:
                        bindings[keys[i]] = None
                else:
                    for i in idxs:
                        t_f = self.engine.resolve_witness(tables[i], class_key.key)
                        bindings[keys[i]] = self.library.bind_with_key(
                            class_key.n, class_key.key, t_f
                        )
                        stats.witness_replays += 1
                bound = next(
                    (bindings[keys[i]] for i in idxs if bindings[keys[i]] is not None),
                    None,
                )
                if bound is not None:
                    account.cell = bound.cell.name
                    account.cell_area = bound.cell.area
                    stats.bound_classes += 1
                else:
                    stats.unbound_classes += 1
                accounts[class_key] = account
                for i in idxs:
                    class_of[keys[i]] = class_key
        elapsed = time.perf_counter() - t_start
        stats.classify_seconds = engine_seconds
        stats.bind_seconds = max(0.0, elapsed - engine_seconds)
        if _obs.enabled:
            reg = _obs.registry
            reg.counter("mapper.cut_classes").inc(stats.cut_classes)
            reg.counter("mapper.bound_classes").inc(stats.bound_classes)
            reg.counter("mapper.unbound_classes").inc(stats.unbound_classes)
            reg.counter("mapper.witness_replays").inc(stats.witness_replays)
            reg.counter("mapper.distinct_cut_functions").inc(
                stats.distinct_cut_functions
            )
            reg.counter("mapper.cuts_evaluated").inc(stats.cuts_evaluated)
