"""K-feasible cut enumeration on AIGs, with each cut's truth table.

A *cut* of node ``v`` is a set of nodes (leaves) such that every path
from the primary inputs to ``v`` passes through a leaf; it is
k-feasible when it has at most ``k`` leaves.  The mapper matches the
local function of each cut against the library.

Standard bottom-up enumeration: the cuts of an AND node are the merged
pairs of its fanins' cuts (unions of at most ``k`` leaves), plus the
trivial cut ``{v}``; dominated cuts (supersets of another cut) are
pruned and the per-node list is truncated to the smallest few.

Each cut's truth table is composed as the cut is formed, as ABC does:
both fanin tables are stretched onto the merged leaf set, complemented
where the fanin edge is complemented, and ANDed.  No cone is walked
again (except above a cut list that ``max_cuts_per_node`` truncated;
see :func:`enumerate_cuts`), so the catalog only hashes tables that
already exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.aig.graph import FALSE, Aig
from repro.utils import bitops

TRIVIAL_TABLE = 0b10
"""The table of a one-leaf cut: the leaf itself."""


@dataclass(slots=True)
class Cut:
    """An ordered (sorted) tuple of leaf node ids and the node's local
    function over them: bit ``m`` of ``table`` is the node's value when
    leaf ``leaves[i]`` takes bit ``i`` of ``m``, as in
    :meth:`Aig.cut_function`."""

    leaves: Tuple[int, ...]
    table: int

    def size(self) -> int:
        return len(self.leaves)


@dataclass
class CutCatalog:
    """Every non-trivial cut of an AIG with its local function, deduped.

    Phase one of the mapping flow: ``node_cuts[v]`` lists the
    matchable ``(cut, (n, bits))`` pairs of node ``v`` in enumeration
    order, and ``distinct_by_width[n]`` holds each distinct ``(n, bits)``
    cut function exactly once (first-seen order), grouped by support
    width so phase two can push whole width groups through the batch
    classification engine.  ``occurrences`` counts the cataloged cuts of
    each distinct function.  ``cut_functions_evaluated`` counts the
    cataloged cut tables, so ``1 - distinct/evaluated`` is the dedup
    rate the netlist-flow benchmark reports.
    """

    node_cuts: Dict[int, List[Tuple[Cut, Tuple[int, int]]]] = field(default_factory=dict)
    distinct_by_width: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)
    cut_functions_evaluated: int = 0
    occurrences: Dict[Tuple[int, int], int] = field(default_factory=dict)

    @property
    def distinct_functions(self) -> int:
        return sum(len(group) for group in self.distinct_by_width.values())

    def dedup_rate(self) -> float:
        """Fraction of cut evaluations resolved by exact dedup."""
        if not self.cut_functions_evaluated:
            return 0.0
        return 1.0 - self.distinct_functions / self.cut_functions_evaluated


def catalog_cut_functions(
    aig: Aig,
    cuts: Optional[Dict[int, List[Cut]]] = None,
    k: int = 4,
    max_cuts_per_node: int = 16,
) -> CutCatalog:
    """Collect every matchable cut function of the whole AIG, deduped.

    ``cuts`` defaults to :func:`enumerate_cuts` with the given limits.
    Trivial cuts are skipped (a node cannot implement itself); every
    other cut's table is recorded under its exact ``(n, bits)`` identity,
    and one key tuple is shared by all the cuts of a function.
    """
    if cuts is None:
        cuts = enumerate_cuts(aig, k, max_cuts_per_node)
    catalog = CutCatalog()
    occurrences = catalog.occurrences
    shared: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for node in aig.and_nodes():
        entries: List[Tuple[Cut, Tuple[int, int]]] = []
        for cut in cuts[node]:
            leaves = cut.leaves
            if leaves[0] == node:
                continue  # the trivial cut
            key = (len(leaves), cut.table)
            first = shared.get(key)
            if first is None:
                shared[key] = key
                occurrences[key] = 1
                catalog.distinct_by_width.setdefault(key[0], []).append(key)
            else:
                key = first
                occurrences[key] += 1
            entries.append((cut, key))
        catalog.cut_functions_evaluated += len(entries)
        catalog.node_cuts[node] = entries
    return catalog


def _stretch(table: int, positions: Tuple[int, ...], width: int) -> int:
    """Move variable ``j`` of a ``len(positions)``-variable table to
    variable ``positions[j]`` of a ``width``-variable one; the variables
    no position names are don't-cares."""
    spare = [p for p in range(width) if p not in positions]
    table = bitops.spread_table(table, len(positions), width)
    return bitops.permute_vars(table, width, list(positions) + spare)


def enumerate_cuts(
    aig: Aig, k: int = 4, max_cuts_per_node: int = 16
) -> Dict[int, List[Cut]]:
    """All (pruned) k-feasible cuts for every node of the AIG.

    Primary inputs get their trivial cut; AND nodes get merged fanin
    cuts, sorted by ``(size, leaves)``, plus the trivial cut (listed
    last so the mapper prefers real covers).  Every cut carries its
    truth table, equal to :meth:`Aig.cut_function` over its leaves.

    A table is composed from the fanin cuts the cut was merged from.
    That equals the re-walk while both fanin lists hold every minimal
    cut: the merged cuts are then minimal too, so no leaf lies inside
    the cone that the other fanin cut spans.  Once a list is truncated
    at ``max_cuts_per_node`` that no longer holds for the nodes above
    it, and their tables come from :meth:`Aig.cut_function`.
    """
    if k < 2:
        raise ValueError("cut size must be at least 2")
    if max_cuts_per_node < 1:
        raise ValueError("max_cuts_per_node must be at least 1")
    cuts: Dict[int, List[Cut]] = {FALSE: [Cut((), 0)]}
    for idx in range(1, aig.n_inputs + 1):
        cuts[idx] = [Cut((idx,), TRIVIAL_TABLE)]
    ones = [bitops.table_mask(n) for n in range(k + 1)]
    incomplete: Set[int] = set()  # nodes whose list may miss a minimal cut
    # (table, positions, width) -> stretched table; per call, so the
    # memo never outlives the AIG it was filled from.
    stretched: Dict[Tuple[int, Tuple[int, ...], int], int] = {}

    def fanin_table(cut: Cut, leaves: Tuple[int, ...], literal: int) -> int:
        """The function of fanin ``literal`` over ``leaves``, from its cut."""
        width = len(leaves)
        table = cut.table
        if len(cut.leaves) != width:  # else the fanin cut spans the union
            key = (table, tuple(map(leaves.index, cut.leaves)), width)
            table = stretched.get(key)
            if table is None:
                table = stretched[key] = _stretch(*key)
        return table ^ ones[width] if literal & 1 else table

    for node in aig.and_nodes():
        lit_a, lit_b = aig.fanins(node)
        cuts_b = cuts[lit_b >> 1]
        # leaves -> (leaf set, fanin cut a, fanin cut b), first pair wins.
        formed: Dict[Tuple[int, ...], Tuple[Set[int], Cut, Cut]] = {}
        by_size: List[List[Tuple[int, ...]]] = [[] for _ in range(k + 1)]
        for cut_a in cuts[lit_a >> 1]:
            set_a = set(cut_a.leaves)
            for cut_b in cuts_b:
                union = set_a.union(cut_b.leaves)
                if len(union) > k:
                    continue
                leaves = tuple(sorted(union))
                if leaves not in formed:
                    formed[leaves] = (union, cut_a, cut_b)
                    by_size[len(leaves)].append(leaves)
        exact = lit_a >> 1 not in incomplete and lit_b >> 1 not in incomplete
        kept: List[Cut] = []
        truncated = False
        for bucket in by_size:
            bucket.sort()
            for leaves in bucket:
                union, cut_a, cut_b = formed[leaves]
                for other in kept:
                    if union.issuperset(other.leaves):
                        break
                else:
                    if len(kept) == max_cuts_per_node:
                        truncated = True
                        break
                    if exact:
                        table = fanin_table(cut_a, leaves, lit_a) & fanin_table(
                            cut_b, leaves, lit_b
                        )
                    else:
                        table = aig.cut_function(node, leaves).bits
                    kept.append(Cut(leaves, table))
            if truncated:
                break
        if truncated or not exact:
            incomplete.add(node)
        kept.append(Cut((node,), TRIVIAL_TABLE))
        cuts[node] = kept
    return cuts
