"""NPN transformations: input permutation, input negation, output negation.

The paper's equivalence classes:

* **p-equivalence** — input permutations only (P1);
* **np-equivalence** — input permutations and input negations (P1+P2);
* **npn-equivalence** — additionally output negation (P1+P2+P3).

:class:`NpnTransform` is the group element.  The semantics are fixed once
and used consistently by the matcher, the baselines, and the tests:

    ``g = t.apply(f)``  means  ``g(y) = out ⊕ f(t_0, ..., t_{n-1})``
    with ``t_i = y[perm[i]] ⊕ input_neg_i``,

i.e. input ``i`` of ``f`` is driven by variable ``perm[i]`` of ``g``,
possibly through an inverter.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.boolfunc.truthtable import TruthTable
from repro.utils import bitops


RawTransform = Tuple[Tuple[int, ...], int, bool]
"""An :class:`NpnTransform`'s ``(perm, input_neg, output_neg)`` fields,
unvalidated, for loops too hot to build transform objects."""


def compose_raw(outer: RawTransform, inner: RawTransform) -> RawTransform:
    """:meth:`NpnTransform.compose` on raw triples: ``inner``, then ``outer``."""
    outer_perm, outer_neg, outer_out = outer
    perm, neg, out = inner
    for i, j in enumerate(perm):
        neg ^= ((outer_neg >> j) & 1) << i
    return tuple(outer_perm[j] for j in perm), neg, out ^ outer_out


@dataclass(frozen=True)
class NpnTransform:
    """An element of the NPN transformation group on ``n`` variables."""

    perm: Tuple[int, ...]
    input_neg: int = 0
    output_neg: bool = False

    def __post_init__(self) -> None:
        bitops.check_permutation(self.perm, len(self.perm))
        if not 0 <= self.input_neg < (1 << len(self.perm)):
            raise ValueError("input negation mask out of range")

    @property
    def n(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, n: int) -> "NpnTransform":
        return cls(tuple(range(n)))

    @classmethod
    def random(cls, n: int, rng: random.Random, allow_output_neg: bool = True) -> "NpnTransform":
        """A uniformly random transform (over the chosen subgroup)."""
        perm = list(range(n))
        rng.shuffle(perm)
        neg = rng.getrandbits(n) if n else 0
        out = bool(rng.getrandbits(1)) if allow_output_neg else False
        return cls(tuple(perm), neg, out)

    def apply(self, f: TruthTable) -> TruthTable:
        """Transform ``f`` into ``g`` per the class docstring."""
        if f.n != self.n:
            raise ValueError("transform width does not match function width")
        g = f.negate_inputs(self.input_neg).permute_vars(self.perm)
        return ~g if self.output_neg else g

    def compose(self, first: "NpnTransform") -> "NpnTransform":
        """The transform applying ``first`` and then ``self``.

        ``self.compose(first).apply(f) == self.apply(first.apply(f))``.
        """
        if first.n != self.n:
            raise ValueError("mixed-width transforms")
        return NpnTransform(
            *compose_raw(
                (self.perm, self.input_neg, self.output_neg),
                (first.perm, first.input_neg, first.output_neg),
            )
        )

    def invert(self) -> "NpnTransform":
        """The inverse group element."""
        q = bitops.invert_permutation(self.perm)
        neg = 0
        for j in range(self.n):
            neg |= (((self.input_neg >> q[j]) & 1)) << j
        return NpnTransform(q, neg, self.output_neg)

    def is_np(self) -> bool:
        """True when the transform does not negate the output."""
        return not self.output_neg

    def describe(self) -> str:
        """Human-readable rendering, e.g. ``x0 <- ~y2, x1 <- y0, out inverted``."""
        parts = []
        for i in range(self.n):
            inv = "~" if (self.input_neg >> i) & 1 else ""
            parts.append(f"x{i} <- {inv}y{self.perm[i]}")
        if self.output_neg:
            parts.append("out inverted")
        return ", ".join(parts) if parts else "identity"


def all_transforms(n: int, include_output_neg: bool = True) -> Iterator[NpnTransform]:
    """Enumerate the whole NPN (or NP) group — ``n! * 2**n * (2 or 1)`` elements."""
    outs = (False, True) if include_output_neg else (False,)
    for perm in itertools.permutations(range(n)):
        for neg in range(1 << n):
            for out in outs:
                yield NpnTransform(perm, neg, out)


def automorphisms(n: int, bits: int) -> List[RawTransform]:
    """Every transform ``a`` with ``a.apply(f) == f`` for the ``n``-input
    table ``bits`` (the npn symmetry group of ``f``), as raw triples.

    Works on packed ints: the ``2**n`` input negations of ``f`` are
    tabulated once, then each permutation/output-phase pair costs one
    table permutation and a dictionary lookup, since ``a`` fixes ``f``
    exactly when ``f`` with inputs ``input_neg`` negated equals
    ``f ⊕ output_neg`` with its inputs moved by ``perm⁻¹``.
    """
    negs_of: Dict[int, List[int]] = {}
    for neg in range(1 << n):
        negs_of.setdefault(bitops.negate_inputs(bits, n, neg), []).append(neg)
    found: List[RawTransform] = []
    for perm in itertools.permutations(range(n)):
        inverse = bitops.invert_permutation(perm)
        for output_neg in (False, True):
            phase = bits ^ bitops.table_mask(n) if output_neg else bits
            for neg in negs_of.get(bitops.permute_vars(phase, n, inverse), ()):
                found.append((perm, neg, output_neg))
    return found


def transform_count(n: int, include_output_neg: bool = True) -> int:
    """Size of the NPN (or NP) transformation group."""
    total = 1
    for k in range(2, n + 1):
        total *= k
    total <<= n
    return total * (2 if include_output_neg else 1)


def random_equivalent_pair(
    n: int, rng: random.Random, allow_output_neg: bool = True
) -> Tuple[TruthTable, TruthTable, NpnTransform]:
    """A random function, a random transform, and the transformed function.

    Returns ``(f, g, t)`` with ``g = t.apply(f)`` — the standard workload
    for matcher soundness/performance experiments.
    """
    f = TruthTable.random(n, rng)
    t = NpnTransform.random(n, rng, allow_output_neg=allow_output_neg)
    return f, t.apply(f), t
