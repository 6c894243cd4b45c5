"""Disjoint-support decomposition (DSD) of Boolean functions.

A function *decomposes disjointly* when ``f = F(h(A), B)`` for a
variable set ``A`` disjoint from ``B``; applying this recursively
yields the (unique up to isomorphism) DSD tree whose internal nodes are
AND/XOR chains and *prime* blocks (functions with no disjoint
decomposition, like majority or the multiplexer).  DSD structure is
invariant under npn transformations, which makes the tree shape a
strong matching signature — the modern complement to the paper's
GRM-derived signatures.

Algorithm: repeatedly merge *pseudo-variable pairs*.  A pair ``(i, j)``
is mergeable iff the four cofactors of the current function with
respect to it take at most two distinct values; the indicator of the
non-reference value is the local two-input function, and the pair
collapses into one new pseudo-variable.  In a disjoint tree, two
siblings always form a mergeable pair, so the fixpoint of pairwise
merging discovers every binary-composable layer and leaves exactly the
prime blocks flat.

Two callers use it: ``grm-match decompose`` prints the tree, and
:func:`shape_signature` turns it into an npn-invariant key.  Matching
itself never decomposes: the matcher, the engine and the mapper all
work on the whole ``2**n``-bit table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.boolfunc.truthtable import TruthTable
from repro.utils import bitops


@dataclass(frozen=True)
class DsdNode:
    """One node of a DSD tree.

    Leaves have ``var`` set (an original input index) and no children.
    Internal nodes carry ``function`` — their local truth table over
    their children, in child order — which for flattened AND/XOR chains
    is the n-ary gate and for prime blocks the prime function itself.
    """

    var: Optional[int] = None
    function: Optional[TruthTable] = None
    children: Tuple["DsdNode", ...] = ()

    def is_leaf(self) -> bool:
        return self.var is not None

    def support(self) -> Tuple[int, ...]:
        if self.is_leaf():
            return (self.var,)
        out: List[int] = []
        for child in self.children:
            out.extend(child.support())
        return tuple(sorted(out))

    def gate_label(self) -> str:
        """A readable label: VAR / AND / XOR / PRIME(k)."""
        if self.is_leaf():
            return f"x{self.var}"
        k = len(self.children)
        fn = self.function
        assert fn is not None
        if k == 1 and fn == ~TruthTable.var(1, 0):
            return "NOT"
        if fn == _nary_and(k):
            return f"AND{k}"
        if fn == _nary_xor(k):
            return f"XOR{k}"
        return f"PRIME{k}"

    def describe(self) -> str:
        if self.is_leaf():
            return f"x{self.var}"
        inner = ", ".join(child.describe() for child in self.children)
        return f"{self.gate_label()}({inner})"


def _nary_and(k: int) -> TruthTable:
    from repro.boolfunc.ops import and_all

    return and_all(k)


def _nary_xor(k: int) -> TruthTable:
    from repro.boolfunc.ops import xor_all

    return xor_all(k)


@dataclass(frozen=True)
class Dsd:
    """A complete decomposition: ``f = phase ⊕ root(...)``.

    The root's local functions absorb input phases; a possible global
    complement is normalized into ``output_phase`` so that structure
    comparisons are phase-clean.
    """

    n: int
    root: Optional[DsdNode]
    constant: Optional[int] = None
    """Set (0/1) when ``f`` is constant and there is no tree at all."""

    def to_truthtable(self) -> TruthTable:
        if self.constant is not None:
            return TruthTable.one(self.n) if self.constant else TruthTable.zero(self.n)
        assert self.root is not None
        return _compose(self.root, self.n)

    def describe(self) -> str:
        if self.constant is not None:
            return str(self.constant)
        assert self.root is not None
        return self.root.describe()

    def is_prime_function(self) -> bool:
        """True when the top node is a prime block over bare variables
        covering the whole support (no disjoint structure at all)."""
        if self.root is None or self.root.is_leaf():
            return False
        return self.root.gate_label().startswith("PRIME") and all(
            c.is_leaf() for c in self.root.children
        )


def _compose(node: DsdNode, n: int) -> TruthTable:
    if node.is_leaf():
        return TruthTable.var(n, node.var)
    child_tables = [_compose(c, n) for c in node.children]
    fn = node.function
    assert fn is not None
    result = TruthTable.zero(n)
    for m in range(1 << fn.n):
        if not fn.evaluate(m):
            continue
        term = TruthTable.one(n)
        for pos, child in enumerate(child_tables):
            term = term & (child if (m >> pos) & 1 else ~child)
        result = result | term
    return result


def decompose(f: TruthTable) -> Dsd:
    """Compute the DSD of ``f`` (over its true support)."""
    n = f.n
    if f.is_constant():
        return Dsd(n, None, constant=1 if f.bits else 0)

    # Pseudo-variable state: current table over k pseudo-variables and,
    # per pseudo-variable, its subtree over original inputs.
    reduced, keep = f.project_to_support()
    current = reduced
    nodes: List[DsdNode] = [DsdNode(var=keep[pos]) for pos in range(len(keep))]

    changed = True
    while changed and current.n > 1:
        changed = False
        k = current.n
        for i in range(k):
            for j in range(i + 1, k):
                merged = _try_merge(current, i, j)
                if merged is None:
                    continue
                new_table, local = merged
                new_node = DsdNode(function=local, children=(nodes[i], nodes[j]))
                nodes = [nodes[p] for p in range(k) if p not in (i, j)] + [new_node]
                current = new_table
                changed = True
                break
            if changed:
                break

    root = _finalize_root(current, nodes)
    root = _flatten(root)
    return Dsd(n, root)


def _try_merge(f: TruthTable, i: int, j: int) -> Optional[Tuple[TruthTable, TruthTable]]:
    """Merge pseudo-variables ``i`` and ``j`` if their four cofactors
    take at most two distinct values.

    Returns ``(new_table, local_fn)``: the function over ``k-1``
    pseudo-variables (the merged one appended last) and the two-input
    local function (normalized so ``local(0,0) = 0``).
    """
    cof = {
        (a, b): f.cofactor(i, a).cofactor(j, b) for a in (0, 1) for b in (0, 1)
    }
    distinct = []
    for value in cof.values():
        if value not in distinct:
            distinct.append(value)
    if len(distinct) > 2:
        return None
    v0 = cof[(0, 0)]
    v1 = next((v for v in distinct if v != v0), None)
    local_bits = 0
    for (a, b), value in cof.items():
        if value != v0:
            local_bits |= 1 << (a | (b << 1))
    local = TruthTable(2, local_bits)
    if v1 is None:
        # The pair is vacuous as a pair — cannot happen on true support
        # unless the two variables only matter jointly... treat the
        # constant-local case as non-mergeable to stay safe.
        return None

    # Build the reduced table: variables except i, j (order kept), plus
    # the merged variable z appended last:  F(rest, z) = z ? v1 : v0.
    k = f.n
    rest = [p for p in range(k) if p not in (i, j)]
    new_n = k - 1

    def project(table: TruthTable) -> int:
        return bitops.project_table(table.bits, k, rest)

    v0_bits = project(v0)
    v1_bits = project(v1)
    width = 1 << (new_n - 1)
    bits = v0_bits | (v1_bits << width)
    return TruthTable(new_n, bits), local


def _finalize_root(current: TruthTable, nodes: Sequence[DsdNode]) -> DsdNode:
    if current.n == 1:
        # f = z or ~z: fold a complement into the single child's parent
        # by wrapping with a 1-input function if needed.
        if current == TruthTable.var(1, 0):
            return nodes[0]
        return DsdNode(function=~TruthTable.var(1, 0), children=(nodes[0],))
    return DsdNode(function=current, children=tuple(nodes))


def _flatten(node: DsdNode) -> DsdNode:
    """Flatten nested AND/XOR chains (absorbing input phases where the
    local functions allow it) for a tidier, more canonical tree."""
    if node.is_leaf():
        return node
    children = tuple(_flatten(c) for c in node.children)
    fn = node.function
    assert fn is not None
    label_fn = {"AND": _nary_and(len(children)), "XOR": _nary_xor(len(children))}
    kind = None
    for name, table in label_fn.items():
        if fn == table:
            kind = name
            break
    if kind is None:
        return DsdNode(function=fn, children=children)
    flat: List[DsdNode] = []
    for child in children:
        if not child.is_leaf() and child.function is not None:
            ck = len(child.children)
            if (kind == "AND" and child.function == _nary_and(ck)) or (
                kind == "XOR" and child.function == _nary_xor(ck)
            ):
                flat.extend(child.children)
                continue
        flat.append(child)
    total = len(flat)
    table = _nary_and(total) if kind == "AND" else _nary_xor(total)
    return DsdNode(function=table, children=tuple(flat))


# ----------------------------------------------------------------------
# DSD shape as a matching signature
# ----------------------------------------------------------------------

def _node_kind(node: DsdNode) -> str:
    """npn-class kind of an internal node's local function.

    A binary merge node is always in the AND class (one or three
    minterms) or the XOR class; wider nodes are prime blocks.  Kinds are
    npn-invariant, unlike the raw local tables (which absorb phases).
    """
    fn = node.function
    assert fn is not None
    k = fn.n
    if k == 1:
        return "wrap"  # unary complement wrapper at the root
    count = fn.count()
    if count in (1, (1 << k) - 1):
        return "and"  # a single cube (or its complement): AND with phases
    if fn == _nary_xor(k) or fn == ~_nary_xor(k):
        return "xor"
    return "prime"


def shape_signature(dsd: Dsd) -> Tuple:
    """A hashable, npn-invariant shape of the decomposition.

    npn transformations permute leaves, flip phases (which the binary
    merge absorbs into its local tables as complements), and re-associate
    chains.  The signature therefore quotients all of that out: unary
    complement wrappers are skipped, binary nodes contribute only their
    npn *class* (AND-like or XOR-like), maximal same-class chains are
    flattened into one n-ary node with a sorted child multiset, and
    prime blocks contribute the npn-canonical class of their local
    function.  Coarser than the raw tree (e.g. ``a·b·c`` and
    ``a·b + ~c`` share a shape) but invariant — the right trade-off for
    a matching signature.
    """
    from repro.core.canonical import canonical_form

    if dsd.constant is not None:
        return ("const",)
    assert dsd.root is not None

    def walk(node: DsdNode) -> Tuple:
        if node.is_leaf():
            return ("leaf",)
        kind = _node_kind(node)
        if kind == "wrap":
            return walk(node.children[0])
        if kind == "prime":
            assert node.function is not None
            canon, _ = canonical_form(node.function)
            children = tuple(sorted(walk(c) for c in node.children))
            return ("prime", node.function.n, canon.bits, children)
        # AND/XOR chain: splice same-kind descendants into one node.
        members: List[Tuple] = []

        def gather(current: DsdNode) -> None:
            if not current.is_leaf() and _node_kind(current) == kind:
                for child in current.children:
                    gather(child)
            else:
                members.append(walk(current))

        for child in node.children:
            gather(child)
        return (kind, tuple(sorted(members)))

    return walk(dsd.root)
