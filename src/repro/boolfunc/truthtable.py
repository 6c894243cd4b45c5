"""Packed truth tables for completely specified Boolean functions.

:class:`TruthTable` is the workhorse function representation of the
library: an immutable value object wrapping ``(n, bits)`` where ``bits``
is the ``2**n``-bit packed table described in :mod:`repro.utils.bitops`.
All of the paper's function-level notions (on-set weight, cofactor
weights, balanced/unbalanced variables, neutral/odd functions, Boolean
difference) are methods here.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple

from repro.utils import bitops


class TruthTable:
    """A completely specified Boolean function of ``n`` ordered variables.

    Instances are immutable and hashable; the operators ``& | ^ ~`` act
    pointwise.  Variable ``i`` corresponds to bit ``i`` of the minterm
    index.
    """

    __slots__ = ("n", "bits", "_count", "_support", "_weights")

    def __init__(self, n: int, bits: int):
        if n < 0 or n > bitops.MAX_VARS:
            raise ValueError(f"unsupported variable count {n}")
        mask = bitops.table_mask(n)
        if bits < 0 or bits > mask:
            raise ValueError("table bits out of range for declared width")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)
        # Lazily-filled caches; immutability makes them safe, and the
        # classification hot path queries both repeatedly per function.
        object.__setattr__(self, "_count", None)
        object.__setattr__(self, "_support", None)
        object.__setattr__(self, "_weights", None)

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("TruthTable is immutable")

    def __reduce__(self):
        # Rebuild through __init__ (caches are per-process, not state).
        return (TruthTable, (self.n, self.bits))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "TruthTable":
        """The constant-0 function on ``n`` variables."""
        return cls(n, 0)

    @classmethod
    def one(cls, n: int) -> "TruthTable":
        """The constant-1 function on ``n`` variables."""
        return cls(n, bitops.table_mask(n))

    @classmethod
    def var(cls, n: int, i: int) -> "TruthTable":
        """The projection function ``x_i`` on ``n`` variables."""
        return cls(n, bitops.table_mask(n) & ~bitops.axis_mask(n, i))

    @classmethod
    def from_minterms(cls, n: int, minterms: Iterable[int]) -> "TruthTable":
        """Function that is 1 exactly on the given minterm indices."""
        bits = 0
        for m in minterms:
            if not 0 <= m < (1 << n):
                raise ValueError(f"minterm {m} out of range for n={n}")
            bits |= 1 << m
        return cls(n, bits)

    @classmethod
    def from_function(cls, n: int, fn: Callable[[Tuple[int, ...]], int]) -> "TruthTable":
        """Tabulate ``fn`` over all assignments (tuples of 0/1, index order)."""
        bits = 0
        for m in range(1 << n):
            assignment = tuple((m >> i) & 1 for i in range(n))
            if fn(assignment):
                bits |= 1 << m
        return cls(n, bits)

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "TruthTable":
        """A uniformly random function on ``n`` variables."""
        return cls(n, rng.getrandbits(1 << n))

    @classmethod
    def parity(cls, n: int) -> "TruthTable":
        """The XOR of all ``n`` variables."""
        bits = 0
        for m in range(1 << n):
            if bitops.popcount(m) & 1:
                bits |= 1 << m
        return cls(n, bits)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    def evaluate(self, assignment: int) -> int:
        """Value of the function on minterm index ``assignment``."""
        if not 0 <= assignment < (1 << self.n):
            raise ValueError("assignment out of range")
        return (self.bits >> assignment) & 1

    def __call__(self, assignment: int) -> int:
        return self.evaluate(assignment)

    def count(self) -> int:
        """On-set size ``|f|`` (the paper's functional weight ``fw``)."""
        c = self._count
        if c is None:
            c = bitops.popcount(self.bits)
            object.__setattr__(self, "_count", c)
        return c

    def is_neutral(self) -> bool:
        """True when ``|f| = 2**(n-1)`` (paper: *neutral* function)."""
        return self.count() == (1 << self.n) // 2

    def is_odd(self) -> bool:
        """True when ``|f|`` is odd (paper: *odd* function)."""
        return self.count() & 1 == 1

    def is_constant(self) -> bool:
        return self.bits == 0 or self.bits == bitops.table_mask(self.n)

    def minterms(self) -> Iterator[int]:
        """Iterate the on-set minterm indices in increasing order."""
        return bitops.iter_bits(self.bits)

    # ------------------------------------------------------------------
    # Cofactors, weights, variable structure
    # ------------------------------------------------------------------

    def cofactor(self, i: int, value: int) -> "TruthTable":
        """Cofactor with ``x_i`` fixed, returned over the same ``n`` variables."""
        return TruthTable(self.n, bitops.restrict(self.bits, self.n, i, value))

    def cofactor_weight(self, i: int, value: int) -> int:
        """On-set size of the cofactor over the remaining ``n-1`` variables.

        ``cofactor_weight(i, 1)`` is the paper's positive cofactor weight
        (pcw); ``cofactor_weight(i, 0)`` is the negative cofactor weight
        (ncw).
        """
        return bitops.half_weight(self.bits, self.n, i, value)

    def cofactor_weights(self) -> Tuple[Tuple[int, int], ...]:
        """``((ncw_i, pcw_i), ...)`` for every variable, lazily cached.

        The full weight vector drives polarity selection, the membership
        probe and the engine's pre-keys; the batch kernels pre-seed it
        (:meth:`prime_weights`) so those consumers never recompute it.
        """
        w = self._weights
        if w is None:
            bits = self.bits
            w = tuple(
                (
                    (bits & m).bit_count(),
                    ((bits >> (1 << i)) & m).bit_count(),
                )
                for i, m in enumerate(bitops.axis_masks(self.n))
            )
            object.__setattr__(self, "_weights", w)
        return w

    def prime_weights(self, weights: Tuple[Tuple[int, int], ...]) -> None:
        """Seed the :meth:`cofactor_weights` cache with a precomputed
        vector (from the batch kernels).  The caller vouches that
        ``weights`` is exactly what ``cofactor_weights`` would compute."""
        object.__setattr__(self, "_weights", weights)

    def is_balanced(self, i: int) -> bool:
        """True when ``|f_xi| = |f_x̄i|`` (paper: *balanced* variable)."""
        return self.cofactor_weight(i, 1) == self.cofactor_weight(i, 0)

    def major_pole(self, i: int) -> int | None:
        """The M-pole of ``x_i``: 1 if pcw > ncw, 0 if pcw < ncw, None if balanced."""
        pcw = self.cofactor_weight(i, 1)
        ncw = self.cofactor_weight(i, 0)
        if pcw > ncw:
            return 1
        if pcw < ncw:
            return 0
        return None

    def depends_on(self, i: int) -> bool:
        """True when the function genuinely depends on ``x_i``."""
        return self.cofactor(i, 0).bits != self.cofactor(i, 1).bits

    def support(self) -> int:
        """Bit mask of the variables the function genuinely depends on."""
        mask = self._support
        if mask is None:
            mask = 0
            for i in range(self.n):
                if self.depends_on(i):
                    mask |= 1 << i
            object.__setattr__(self, "_support", mask)
        return mask

    def support_size(self) -> int:
        return bitops.popcount(self.support())

    def project_to_support(self) -> Tuple["TruthTable", List[int]]:
        """Shrink to the true support.

        Returns ``(g, vars)`` where ``vars`` lists the original indices of
        the surviving variables and ``g`` is the function over them.
        """
        keep = bitops.bits_of(self.support())
        bits = bitops.project_table(self.bits, self.n, keep)
        return TruthTable(len(keep), bits), keep

    # ------------------------------------------------------------------
    # Boolean difference
    # ------------------------------------------------------------------

    def boolean_difference(self, i: int) -> "TruthTable":
        """``∂f/∂x_i = f|x_i=1 XOR f|x_i=0`` (independent of ``x_i``)."""
        return self.cofactor(i, 0) ^ self.cofactor(i, 1)

    def boolean_difference_set(self, var_mask: int) -> "TruthTable":
        """Boolean difference with respect to every variable in ``var_mask``.

        By the paper's property (a)/(b) the result depends only on the
        *set* of variables, not on literal polarities or order.
        """
        result = self
        for i in bitops.iter_bits(var_mask):
            result = result.boolean_difference(i)
        return result

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def permute_vars(self, perm: Sequence[int]) -> "TruthTable":
        """``g(y) = f(y[perm[0]], ..., y[perm[n-1]])``."""
        return TruthTable(self.n, bitops.permute_vars(self.bits, self.n, perm))

    def negate_inputs(self, neg_mask: int) -> "TruthTable":
        """``g(x) = f(x ^ neg_mask)``."""
        return TruthTable(self.n, bitops.negate_inputs(self.bits, self.n, neg_mask))

    def flip_input(self, i: int) -> "TruthTable":
        """Complement a single input variable."""
        return self.negate_inputs(1 << i)

    def extend(self, n_to: int) -> "TruthTable":
        """View the function over a wider variable set (new vars are don't-care)."""
        return TruthTable(n_to, bitops.spread_table(self.bits, self.n, n_to))

    # ------------------------------------------------------------------
    # Pointwise algebra
    # ------------------------------------------------------------------

    def _coerce(self, other: "TruthTable") -> None:
        if not isinstance(other, TruthTable):
            raise TypeError(f"expected TruthTable, got {type(other).__name__}")
        if other.n != self.n:
            raise ValueError("mixed-width truth tables")

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._coerce(other)
        return TruthTable(self.n, self.bits & other.bits)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._coerce(other)
        return TruthTable(self.n, self.bits | other.bits)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._coerce(other)
        return TruthTable(self.n, self.bits ^ other.bits)

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.n, self.bits ^ bitops.table_mask(self.n))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruthTable)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"TruthTable(n={self.n}, bits=0x{self.bits:x})"

    def to_binary_string(self) -> str:
        """The table as a ``2**n``-character 0/1 string, minterm 0 first."""
        return format(self.bits, f"0{1 << self.n}b")[::-1]
