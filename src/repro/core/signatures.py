"""Signatures for Boolean matching (Section 4 of the paper).

Three signature sources:

* **on-set weights** (Section 4.1): the functional weight ``fw = |f|``,
  the weight-distribution vector ``wd``, and the per-variable cofactor
  weight pair ``(ncw, pcw)`` — np-invariant as an unordered pair
  (Theorem 3).
* **influence & sensitivity** (:mod:`repro.core.sensitivity`, from the
  post-paper literature): the per-variable Boolean-difference weight
  ``inf_i`` and the per-variable sensitivity columns.  Both depend only
  on the truth table (not the GRM form), cost ``O(n)`` / ``O(n**2)``
  popcounts, and frequently split weight-tied variables before any
  GRM-derived signature is consulted.
* **the GRM form** (Section 4.2): cube-length distributions (VIC, FC,
  FVC), incidence counts (INC, FINC), and the prime-cube statistics
  (PC, PCV, PCvic, PCinc).

Function-level signatures gate whether two functions can match at all;
variable-level signatures refine the ordered partition of variables that
bounds the matcher's permutation search.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.boolfunc.truthtable import TruthTable
from repro.core import primes as primes_mod
from repro.core import sensitivity as sens_mod
from repro.grm.forms import Grm
from repro.obs import runtime as _obs
from repro.obs.trace import TRACE_DETAIL
from repro.utils.partition import Partition

DEFAULT_FAMILIES = ("weights", "influence", "sensitivity", "vic", "inc", "primes")
"""Refinement family order: truth-table-only families (weights,
influence, sensitivity) run before the GRM-derived ones so the cheap
invariants do as much splitting as possible first."""


@dataclass(frozen=True)
class FunctionSignature:
    """Permutation-invariant summary of one function under one GRM form.

    Any mismatch between two functions' signatures disproves
    np-equivalence of the underlying (phase-normalized) functions.
    """

    n: int
    fw: int
    wd: Tuple[Tuple[Tuple[int, int], int], ...]
    fc: Tuple[int, ...]
    fvc_multiset: Tuple[int, ...]
    finc_multiset: Tuple[int, ...]
    pc: int
    pcv_multiset: Tuple[int, ...]
    num_cubes: int


@dataclass(frozen=True)
class VariableSignatures:
    """Per-variable signature columns for one function under one GRM form."""

    weight_pairs: Tuple[Tuple[int, int], ...]
    vic_columns: Tuple[Tuple[int, ...], ...]
    fvc: Tuple[int, ...]
    finc: Tuple[int, ...]
    pcv: Tuple[int, ...]
    pcvic_columns: Tuple[Tuple[int, ...], ...]

    def key(self, v: int) -> Tuple:
        """The refinement key of variable ``v`` (everything but INC links)."""
        return (
            self.weight_pairs[v],
            self.fvc[v],
            self.finc[v],
            self.pcv[v],
            self.vic_columns[v],
            self.pcvic_columns[v],
        )


def weight_pair(f: TruthTable, i: int) -> Tuple[int, int]:
    """The np-invariant cofactor weight pair, ordered ``(min, max)``.

    Negating input ``i`` swaps ncw and pcw, so sorting the pair makes it
    invariant under input phase as well as permutation.
    """
    ncw = f.cofactor_weight(i, 0)
    pcw = f.cofactor_weight(i, 1)
    return (ncw, pcw) if ncw <= pcw else (pcw, ncw)


def function_signature(f: TruthTable, grm: Grm) -> FunctionSignature:
    """Build the functional-level signature of ``f`` under ``grm``."""
    pairs = [weight_pair(f, i) for i in range(f.n)]
    wd = tuple(sorted(Counter(pairs).items()))
    pcv = primes_mod.prime_count_vector(grm)
    primes = grm.prime_cubes()
    return FunctionSignature(
        n=f.n,
        fw=f.count(),
        wd=wd,
        fc=grm.cube_length_histogram(),
        fvc_multiset=tuple(sorted(grm.variable_cube_counts())),
        finc_multiset=tuple(sorted(grm.incidence_totals())),
        pc=len(primes),
        pcv_multiset=tuple(sorted(pcv)),
        num_cubes=grm.num_cubes(),
    )


def variable_signatures(
    f: TruthTable,
    grm: Grm,
    weight_pairs: Optional[Sequence[Tuple[int, int]]] = None,
) -> VariableSignatures:
    """Build the per-variable signature columns of ``f`` under ``grm``.

    ``weight_pairs`` is the weights column when the caller already holds
    it, so that no column is built twice.
    """
    n = f.n
    if weight_pairs is None:
        weight_pairs = [weight_pair(f, i) for i in range(n)]
    vic = grm.variable_inclusion_counts()
    pcvic = primes_mod.prime_vic(grm)
    return VariableSignatures(
        weight_pairs=tuple(weight_pairs),
        vic_columns=tuple(tuple(vic[k][j] for k in range(n + 1)) for j in range(n)),
        fvc=grm.variable_cube_counts(),
        finc=grm.incidence_totals(),
        pcv=tuple(primes_mod.prime_count_vector(grm)),
        pcvic_columns=tuple(tuple(pcvic[k][j] for k in range(n + 1)) for j in range(n)),
    )


def refine_partition_with_grm(
    partition: Partition,
    f: TruthTable,
    grm: Grm,
    use_incidence: bool = True,
    inc_rounds: Optional[int] = None,
    signature_families: Sequence[str] = DEFAULT_FAMILIES,
) -> Partition:
    """Refine a variable partition with every signature the form offers.

    ``signature_families`` selects which families participate — the
    ablation benchmark switches them off one at a time.  Incidence
    refinement keys each variable on the multiset of its INC counts
    toward every current block; ``inc_rounds`` bounds how often that is
    repeated (1 = the paper's static signature comparison, ``None`` with
    ``use_incidence`` = iterate to a Weisfeiler-Lehman-style fixpoint —
    our enhancement).

    A family runs only while some block still holds two variables:
    :meth:`Partition.refine` keeps singleton blocks, so refining a
    discrete partition changes nothing.  The GRM-derived columns
    (:func:`variable_signatures`) are built only when a block survives
    the truth-table families.
    """
    fams = set(signature_families)
    tr = _obs.tracer
    detail = tr.wants(TRACE_DETAIL)

    def _trace(family: str, split: bool) -> None:
        tr.event(
            "refine",
            family=family,
            split=split,
            blocks=[list(b) for b in partition.blocks],
        )

    def runs(family: str) -> bool:
        return family in fams and not partition.is_discrete()

    pairs = None
    if runs("weights"):
        pairs = [weight_pair(f, v) for v in range(f.n)]
        split = partition.refine(lambda v: pairs[v])
        if detail:
            _trace("weights", split)
    if runs("influence"):
        infl = sens_mod.influence_vector(f)
        split = partition.refine(lambda v: infl[v])
        if detail:
            _trace("influence", split)
    if runs("sensitivity"):
        cols = sens_mod.sensitivity_columns(f)
        split = partition.refine(lambda v: cols[v])
        if detail:
            _trace("sensitivity", split)
    if not any(runs(family) for family in ("vic", "primes", "inc")):
        return partition
    # Called by its module-level name: profilers time the GRM columns by
    # wrapping ``signatures.variable_signatures``.
    sigs = variable_signatures(f, grm, pairs)
    if runs("vic"):
        split = partition.refine(lambda v: (sigs.fvc[v], sigs.vic_columns[v]))
        if detail:
            _trace("vic", split)
    if runs("primes"):
        split = partition.refine(lambda v: (sigs.pcv[v], sigs.pcvic_columns[v]))
        if detail:
            _trace("primes", split)
    if runs("inc"):
        split = partition.refine(lambda v: sigs.finc[v])
        if inc_rounds is None:
            inc_rounds = 10**9 if use_incidence else 1
        inc = grm.incidence_matrix()
        for _ in range(inc_rounds):
            blocks_snapshot = [tuple(b) for b in partition.blocks]

            def inc_key(v: int) -> Tuple:
                return tuple(
                    tuple(sorted(inc[v][w] for w in block if w != v))
                    for block in blocks_snapshot
                )

            round_split = partition.refine(inc_key)
            split = split or round_split
            if not round_split:
                break
        if detail:
            _trace("inc", split)
    return partition


def signatures_equal_for_matching(a: FunctionSignature, b: FunctionSignature) -> bool:
    """Functional-level gate used by the matcher before any search."""
    return a == b
