"""K-feasible cut enumeration on AIGs.

A *cut* of node ``v`` is a set of nodes (leaves) such that every path
from the primary inputs to ``v`` passes through a leaf; it is
k-feasible when it has at most ``k`` leaves.  The mapper evaluates the
local function of each cut and matches it against the library.

Standard bottom-up enumeration: the cuts of an AND node are the merged
pairs of its fanins' cuts (unions of at most ``k`` leaves), plus the
trivial cut ``{v}``; dominated cuts (supersets of another cut) are
pruned and the per-node list is truncated to the smallest few.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.aig.graph import FALSE, Aig, lit_var


@dataclass(frozen=True)
class Cut:
    """An ordered (sorted) tuple of leaf node ids."""

    leaves: Tuple[int, ...]

    def size(self) -> int:
        return len(self.leaves)

    def dominates(self, other: "Cut") -> bool:
        """True when this cut's leaves are a subset of ``other``'s."""
        return set(self.leaves) <= set(other.leaves)


def _merge(a: Cut, b: Cut, k: int) -> Cut | None:
    union = sorted(set(a.leaves) | set(b.leaves))
    if len(union) > k:
        return None
    return Cut(tuple(union))


def _prune(cuts: List[Cut], max_cuts: int) -> List[Cut]:
    cuts = sorted(set(cuts), key=lambda c: (c.size(), c.leaves))
    kept: List[Cut] = []
    for cut in cuts:
        if any(existing.dominates(cut) for existing in kept):
            continue
        kept.append(cut)
        if len(kept) >= max_cuts:
            break
    return kept


@dataclass
class CutCatalog:
    """Every non-trivial cut of an AIG with its local function, deduped.

    Phase one of the mapping flow: ``node_cuts[v]`` lists the
    matchable ``(cut, (n, bits))`` pairs of node ``v`` in enumeration
    order, and ``distinct_by_width[n]`` holds each distinct ``(n, bits)``
    cut function exactly once (first-seen order), grouped by support
    width so phase two can push whole width groups through the batch
    classification engine.  ``cut_functions_evaluated`` counts cut
    evaluations, so ``1 - distinct/evaluated`` is the dedup rate the
    netlist-flow benchmark reports.
    """

    node_cuts: Dict[int, List[Tuple[Cut, Tuple[int, int]]]] = field(default_factory=dict)
    distinct_by_width: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)
    cut_functions_evaluated: int = 0

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
    other cut's local function is evaluated once and recorded under its
    exact ``(n, bits)`` identity.
    """
    if cuts is None:
        cuts = enumerate_cuts(aig, k, max_cuts_per_node)
    catalog = CutCatalog()
    seen: Dict[Tuple[int, int], None] = {}
    for node in aig.and_nodes():
        entries: List[Tuple[Cut, Tuple[int, int]]] = []
        for cut in cuts[node]:
            if cut.leaves == (node,):
                continue
            function = aig.cut_function(node, cut.leaves)
            catalog.cut_functions_evaluated += 1
            key = (function.n, function.bits)
            if key not in seen:
                seen[key] = None
                catalog.distinct_by_width.setdefault(key[0], []).append(key)
            entries.append((cut, key))
        catalog.node_cuts[node] = entries
    return catalog


def enumerate_cuts(
    aig: Aig, k: int = 4, max_cuts_per_node: int = 16
) -> Dict[int, List[Cut]]:
    """All (pruned) k-feasible cuts for every node of the AIG.

    Primary inputs get their trivial cut; AND nodes get merged fanin
    cuts plus the trivial cut (listed last so the mapper prefers real
    covers).
    """
    if k < 2:
        raise ValueError("cut size must be at least 2")
    cuts: Dict[int, List[Cut]] = {FALSE: [Cut(())]}
    for idx in range(1, aig.n_inputs + 1):
        cuts[idx] = [Cut((idx,))]
    for node in aig.and_nodes():
        fa, fb = aig.fanins(node)
        merged: List[Cut] = []
        for ca in cuts[lit_var(fa)]:
            for cb in cuts[lit_var(fb)]:
                cut = _merge(ca, cb, k)
                if cut is not None:
                    merged.append(cut)
        merged = _prune(merged, max_cuts_per_node)
        trivial = Cut((node,))
        if trivial not in merged:
            merged.append(trivial)
        cuts[node] = merged
    return cuts
