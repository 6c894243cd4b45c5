"""Canonical Generalized Reed-Muller forms as first-class objects.

:class:`Grm` couples a polarity vector with the canonical cube set of a
function under that vector, and exposes the structural data the paper
mines for signatures (cube-length distributions, variable inclusion and
incidence counts, prime cubes) and for symmetry detection (the
``t_i``/dc branch decomposition of Section 5.3).
"""

from __future__ import annotations

from typing import FrozenSet, Sequence, Tuple

from repro.boolfunc.truthtable import TruthTable
from repro.grm import transform as fprm
from repro.utils import bitops


class Grm:
    """The GRM form of a function under a fixed polarity vector.

    ``polarity`` bit ``i`` = 1 means ``x_i`` appears positively in every
    cube, 0 means it appears complemented.  ``cubes`` is the canonical set
    of cube masks; mask bit ``i`` set means the literal of ``x_i`` is in
    the cube, and the empty mask is the constant-1 cube.
    """

    __slots__ = (
        "n",
        "polarity",
        "cubes",
        "_coeffs",
        "_fc",
        "_vic",
        "_fvc",
        "_inc",
        "_finc",
        "_primes",
    )

    def __init__(self, n: int, polarity: int, cubes: FrozenSet[int]):
        if not 0 <= polarity < (1 << n):
            raise ValueError(f"polarity vector {polarity} out of range for n={n}")
        self.n = n
        self.polarity = polarity
        self.cubes = frozenset(cubes)
        coeffs = 0
        for c in self.cubes:
            if not 0 <= c < (1 << n):
                raise ValueError(f"cube mask {c} out of range for n={n}")
            coeffs |= 1 << c
        self._coeffs = coeffs
        self._init_signature_caches()

    def _init_signature_caches(self) -> None:
        # One-shot caches for the structural signature data; a form is
        # immutable, and the refinement path used to recompute these on
        # every call.
        self._fc = None
        self._vic = None
        self._fvc = None
        self._inc = None
        self._finc = None
        self._primes = None

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------

    @classmethod
    def from_truthtable(cls, f: TruthTable, polarity: int) -> "Grm":
        """Canonical GRM of ``f`` under ``polarity`` (via the FPRM butterfly)."""
        coeffs = fprm.fprm_coefficients(f.bits, f.n, polarity)
        return cls.from_coefficients(f.n, polarity, coeffs)

    @classmethod
    def from_coefficients(cls, n: int, polarity: int, coeffs: int) -> "Grm":
        if not 0 <= polarity < (1 << n):
            raise ValueError(f"polarity vector {polarity} out of range for n={n}")
        grm = cls.__new__(cls)
        grm.n = n
        grm.polarity = polarity
        grm.cubes = frozenset(bitops.iter_bits(coeffs))
        grm._coeffs = coeffs
        grm._init_signature_caches()
        return grm

    def to_truthtable(self) -> TruthTable:
        """Evaluate the form back to a truth table (inverse FPRM)."""
        return TruthTable(self.n, fprm.fprm_inverse(self._coeffs, self.n, self.polarity))

    @property
    def coefficients(self) -> int:
        """The packed coefficient vector (bit ``c`` = cube ``c`` present)."""
        return self._coeffs

    # ------------------------------------------------------------------
    # Size structure
    # ------------------------------------------------------------------

    def num_cubes(self) -> int:
        return len(self.cubes)

    def has_constant_cube(self) -> bool:
        """True when the constant-1 cube is part of the form."""
        return 0 in self.cubes

    def cube_length_histogram(self) -> Tuple[int, ...]:
        """The paper's FC vector, with index ``k`` counting cubes of length
        ``k`` (index 0 counts the constant cube)."""
        if self._fc is None:
            self._fc = tuple(bitops.weight_by_length(self.cubes, self.n))
        return self._fc

    def variable_inclusion_counts(self) -> Tuple[Tuple[int, ...], ...]:
        """The paper's VIC matrix: entry ``[k][j]`` is the number of cubes of
        length ``k`` containing variable ``x_j`` (rows ``k = 0..n``; row 0 is
        all zeros since the constant cube has no literals)."""
        if self._vic is None:
            vic = [[0] * self.n for _ in range(self.n + 1)]
            for cube in self.cubes:
                k = bitops.popcount(cube)
                for j in bitops.iter_bits(cube):
                    vic[k][j] += 1
            self._vic = tuple(tuple(row) for row in vic)
        return self._vic

    def variable_cube_counts(self) -> Tuple[int, ...]:
        """The paper's FVC vector: total number of cubes containing each
        variable (the column sums of VIC)."""
        if self._fvc is None:
            fvc = [0] * self.n
            for cube in self.cubes:
                for j in bitops.iter_bits(cube):
                    fvc[j] += 1
            self._fvc = tuple(fvc)
        return self._fvc

    def incidence_matrix(self) -> Tuple[Tuple[int, ...], ...]:
        """The paper's INC matrix: entry ``[i][j]`` (i != j) counts cubes
        containing both ``x_i`` and ``x_j``; the diagonal entry ``[i][i]`` is
        1 exactly when the single-literal cube of ``x_i`` is present."""
        if self._inc is None:
            inc = [[0] * self.n for _ in range(self.n)]
            for cube in self.cubes:
                vars_in = bitops.bits_of(cube)
                if len(vars_in) == 1:
                    inc[vars_in[0]][vars_in[0]] = 1
                for a in range(len(vars_in)):
                    for b in range(a + 1, len(vars_in)):
                        inc[vars_in[a]][vars_in[b]] += 1
                        inc[vars_in[b]][vars_in[a]] += 1
            self._inc = tuple(tuple(row) for row in inc)
        return self._inc

    def incidence_totals(self) -> Tuple[int, ...]:
        """The paper's FINC vector: INC row sums excluding the diagonal."""
        if self._finc is None:
            inc = self.incidence_matrix()
            self._finc = tuple(
                sum(inc[i][j] for j in range(self.n) if j != i) for i in range(self.n)
            )
        return self._finc

    # ------------------------------------------------------------------
    # Prime cubes (Section 3.3)
    # ------------------------------------------------------------------

    def prime_cubes(self) -> FrozenSet[int]:
        """Cubes ``p`` with ``∂f/∂S(p) ≡ 1``.

        Csanky's characterization: ``p`` is prime iff ``p`` is the only
        cube of the form whose support contains ``S(p)`` — equivalently no
        other cube's support is a strict superset.  Prime cubes appear in
        *every* GRM form of the function.

        Computed for all cubes at once by superset-closure sweeps over the
        packed coefficient vector, the butterfly shape of the FPRM
        transform: after ``closure |= (closure >> 2**i) & axis_mask(n, i)``
        for every ``i``, bit ``c`` of ``closure`` is set iff some cube
        contains ``c``; one more OR of the same shifted terms marks the
        masks with a *strict* superset among the cubes.  A cube is prime
        iff its mark is clear.  The marks are read through one byte view,
        as walking the ``2**n``-bit integer bit by bit costs
        ``O(primes · 2**n)``.
        """
        if self._primes is None:
            masks = bitops.axis_masks(self.n)
            closure = self._coeffs
            for i, mask in enumerate(masks):
                closure |= (closure >> (1 << i)) & mask
            strict = 0
            for i, mask in enumerate(masks):
                strict |= (closure >> (1 << i)) & mask
            view = strict.to_bytes(((1 << self.n) + 7) >> 3, "little")
            self._primes = frozenset(
                c for c in self.cubes if not (view[c >> 3] >> (c & 7)) & 1
            )
        return self._primes

    # ------------------------------------------------------------------
    # Algebra on forms (same polarity vector)
    # ------------------------------------------------------------------

    def _check_compatible(self, other: "Grm") -> None:
        if self.n != other.n or self.polarity != other.polarity:
            raise ValueError("GRM forms under different polarity vectors")

    def __xor__(self, other: "Grm") -> "Grm":
        """XOR of the functions = symmetric difference of the cube sets."""
        self._check_compatible(other)
        return Grm.from_coefficients(self.n, self.polarity, self._coeffs ^ other._coeffs)

    def complement(self) -> "Grm":
        """GRM of ``~f`` under the same polarity (Theorem 2): toggle the
        constant-1 cube."""
        return Grm.from_coefficients(self.n, self.polarity, self._coeffs ^ 1)

    def xor_literal(self, i: int) -> "Grm":
        """GRM of ``f ⊕ t_i`` (toggle the single-literal cube of ``x_i``).

        Used to derive the Section 6.3 additional GRMs for hard variables.
        """
        return Grm.from_coefficients(self.n, self.polarity, self._coeffs ^ (1 << (1 << i)))

    # ------------------------------------------------------------------
    # Branch decomposition for symmetry checks (Section 5.3)
    # ------------------------------------------------------------------

    def branch_sets(self, i: int, j: int) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        """Writing ``f = A ⊕ t_i·B ⊕ t_j·C ⊕ t_i·t_j·D`` over the cube set,
        return ``(B, C)`` as cube sets over the remaining variables.

        ``B`` collects the cubes containing ``t_i`` but not ``t_j`` (with
        ``t_i`` dropped); ``C`` symmetrically.  Positive symmetry of the
        pair in the form is ``B == C``; negative (skew) symmetry is
        ``B == C Δ {1}`` (Section 5.3's "add a 1 to one branch").
        """
        bi, bj = 1 << i, 1 << j
        b = frozenset(c ^ bi for c in self.cubes if (c & bi) and not (c & bj))
        c_ = frozenset(c ^ bj for c in self.cubes if (c & bj) and not (c & bi))
        return b, c_

    def swap_vars_cubeset(self, i: int, j: int) -> FrozenSet[int]:
        """The cube set with the roles of ``x_i`` and ``x_j`` exchanged."""
        bi, bj = 1 << i, 1 << j
        out = set()
        for c in self.cubes:
            has_i, has_j = bool(c & bi), bool(c & bj)
            if has_i != has_j:
                c ^= bi | bj
            out.add(c)
        return frozenset(out)

    def relabel(self, perm: Sequence[int]) -> "Grm":
        """Rename variables: cube bit ``i`` moves to bit ``perm[i]``, and the
        polarity vector is carried along.

        If ``g(y) = f(x)`` with ``x_i = y_{perm[i]}`` and ``self`` is the
        form of ``f``, the result is the form of ``g`` (same cubes over the
        renamed literals).
        """
        bitops.check_permutation(perm, self.n)
        new_cubes = set()
        for c in self.cubes:
            nc = 0
            for i in bitops.iter_bits(c):
                nc |= 1 << perm[i]
            new_cubes.add(nc)
        new_pol = 0
        for i in range(self.n):
            if (self.polarity >> i) & 1:
                new_pol |= 1 << perm[i]
        return Grm(self.n, new_pol, frozenset(new_cubes))

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Grm)
            and self.n == other.n
            and self.polarity == other.polarity
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.polarity, self._coeffs))

    def __repr__(self) -> str:
        return f"Grm(n={self.n}, polarity=0b{self.polarity:0{self.n}b}, cubes={len(self.cubes)})"

    def to_expression(self, names: Sequence[str] | None = None) -> str:
        """Render as an XOR-of-products expression, smallest cubes first."""
        if names is None:
            names = [f"x{i}" for i in range(self.n)]
        if not self.cubes:
            return "0"
        terms = []
        for cube in sorted(self.cubes, key=lambda c: (bitops.popcount(c), c)):
            if cube == 0:
                terms.append("1")
                continue
            lits = []
            for i in bitops.iter_bits(cube):
                neg = "" if (self.polarity >> i) & 1 else "~"
                lits.append(f"{neg}{names[i]}")
            terms.append("*".join(lits))
        return " ^ ".join(terms)
