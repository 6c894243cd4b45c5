"""Variable differentiation — the paper's Section 7 experiment.

For each output function of a benchmark circuit the paper tries to
*differentiate* every input variable: give it a signature no other
variable shares, or show that the variables sharing a signature are
symmetric (and therefore interchangeable, needing no differentiation).
An output is *hard* (counted in Table 1's ``#h`` column) when some
variables remain non-differentiable; Table 2 reports the sizes of the
variable subsets that no output of the circuit differentiates.

Stages, mirroring Section 7:

1. cofactor-weight signatures;
2. the decided-polarity GRM and its Section 4 signatures;
3. symmetry detection inside the remaining multi-variable blocks (a
   block whose members are pairwise symmetric — any of the four types —
   is resolved);
4. additional GRMs (the ≤ n polarity family of Section 5.3);
5. whatever is left is a *non-differentiable set*.

Two fidelity modes:

* ``mode="paper"`` (default for the Table 1/2 benchmarks): signatures
  refine in one static pass and the stage-4 extra GRMs are used **for
  symmetry checking only**, exactly as Section 6.3 describes — so
  structurally entangled but non-symmetric variables (e.g. the data
  inputs of ``cm150a``) stay non-differentiable, matching Table 2.
* ``mode="enhanced"``: our extension — incidence refinement iterates to
  a Weisfeiler-Lehman-style fixpoint and every extra GRM also refines
  the partition.  This differentiates most of the paper's hard cases;
  the ablation benchmark quantifies the difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from typing import Callable, Dict, List, Sequence, Tuple

from repro.boolfunc.truthtable import TruthTable
from repro.core import signatures as sigs_mod
from repro.core import symmetry as sym_mod
from repro.core.polarity import decide_polarity_primary
from repro.grm.forms import Grm
from repro.utils.partition import Partition

MODES = ("paper", "enhanced")


@dataclass
class DifferentiationReport:
    """Outcome of differentiating the variables of one output function."""

    n: int
    stage: str
    """Stage that finished the job: ``weights``, ``grm``, ``symmetry``,
    ``extra-grms`` or ``hard``."""

    grms_used: int
    """Number of GRM forms built (0 when weights alone sufficed)."""

    used_linear: bool
    """Whether polarity selection needed the linear-function trick."""

    blocks: Tuple[Tuple[int, ...], ...]
    """Final partition blocks (variable indices of this function)."""

    symmetric_blocks: Tuple[Tuple[int, ...], ...]
    """Multi-variable blocks resolved because all pairs are symmetric."""

    hard_sets: Tuple[Tuple[int, ...], ...]
    """Multi-variable blocks that could not be differentiated."""

    @property
    def is_hard(self) -> bool:
        """True when the output contributes to Table 1's ``#h`` count."""
        return bool(self.hard_sets)

    @property
    def differentiated(self) -> bool:
        return not self.hard_sets


def _block_fully_symmetric(
    symmetric: Callable[[int, int], bool], block: Sequence[int]
) -> bool:
    """True when every pair in the block holds one of the four symmetries."""
    return all(symmetric(a, b) for a, b in combinations(block, 2))


def _all_blocks_symmetric(symmetric: Callable[[int, int], bool], part: Partition) -> bool:
    return all(_block_fully_symmetric(symmetric, b) for b in part.nontrivial_blocks())


def differentiate_output(
    f: TruthTable,
    mode: str = "paper",
    max_extra_grms: int | None = None,
) -> DifferentiationReport:
    """Differentiate all variables of one (support-reduced) function.

    ``f`` should be given over its true support; ``max_extra_grms``
    bounds stage 4 (default: ``n``, the paper's bound).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    n = f.n
    if max_extra_grms is None:
        max_extra_grms = n
    part = Partition(n)
    part.refine(lambda v: 1 if f.depends_on(v) else 0)
    part.refine(lambda v: sigs_mod.weight_pair(f, v))
    grms_used = 0
    used_linear = False
    if part.is_discrete():
        return _finish(part, "weights", grms_used, used_linear)

    decision = decide_polarity_primary(f)
    used_linear = decision.used_linear
    grm = Grm.from_truthtable(f, decision.polarity)
    grms_used += 1
    sigs_mod.refine_partition_with_grm(
        part, f, grm, use_incidence=(mode == "enhanced")
    )
    if part.is_discrete():
        return _finish(part, "grm", grms_used, used_linear)

    # Memoized: each pair is judged once, however often its block is
    # consulted (here, after each extra GRM, and by _finish).
    symmetric = cache(lambda a, b: sym_mod.has_any_symmetry(f, a, b))
    if _all_blocks_symmetric(symmetric, part):
        return _finish(part, "symmetry", grms_used, used_linear, symmetric)

    # Stage 4: additional GRMs from the Section 5.3 polarity family.  In
    # paper mode they only feed the symmetry verdicts (which
    # _block_fully_symmetric already renders exactly); in enhanced mode
    # each form also refines the partition.
    if mode == "enhanced":
        for polarity in sym_mod.symmetry_polarity_family(decision.polarity, n)[1:]:
            if grms_used - 1 >= max_extra_grms:
                break
            extra = Grm.from_truthtable(f, polarity)
            grms_used += 1
            sigs_mod.refine_partition_with_grm(part, f, extra, use_incidence=True)
            if part.is_discrete() or _all_blocks_symmetric(symmetric, part):
                return _finish(part, "extra-grms", grms_used, used_linear, symmetric)
    else:
        # The symmetry family still costs GRM constructions in the
        # paper's flow; account for them in the statistics.
        grms_used += min(max_extra_grms, max(0, n - 1))

    return _finish(part, "hard", grms_used, used_linear, symmetric)


def _finish(
    part: Partition,
    stage: str,
    grms_used: int,
    used_linear: bool,
    symmetric: Callable[[int, int], bool] | None = None,
) -> DifferentiationReport:
    """Sort the nontrivial blocks into symmetric and hard ones, with the
    pair verdicts the stages already hold (a discrete partition has no
    blocks to sort)."""
    symmetric_blocks: List[Tuple[int, ...]] = []
    hard_sets: List[Tuple[int, ...]] = []
    for block in part.nontrivial_blocks():
        if _block_fully_symmetric(symmetric, block):
            symmetric_blocks.append(block)
        else:
            hard_sets.append(block)
    if stage == "hard" and not hard_sets:
        stage = "extra-grms"
    return DifferentiationReport(
        n=part.n,
        stage=stage,
        grms_used=grms_used,
        used_linear=used_linear,
        blocks=tuple(part.blocks),
        symmetric_blocks=tuple(symmetric_blocks),
        hard_sets=tuple(hard_sets),
    )


@dataclass
class CircuitDifferentiation:
    """Aggregated differentiation results for one multi-output circuit
    (one Table 1 row plus the circuit's Table 2 entry)."""

    name: str
    n_inputs: int
    n_outputs: int
    hard_outputs: int
    reports: List[DifferentiationReport] = field(repr=False, default_factory=list)
    output_supports: List[Tuple[int, ...]] = field(repr=False, default_factory=list)

    @property
    def table2_sets(self) -> List[Tuple[int, ...]]:
        """Variable subsets not differentiated in any output (Table 2).

        Two circuit inputs stay confusable only if *every* output treats
        them identically: both outside its support, or both inside the
        same unresolved hard block.  Each input gets one key per output —
        ``None`` (absent), ``('h', block)`` (in an unresolved block), or
        a unique token (differentiated) — and inputs sharing the entire
        key vector form the non-differentiable sets.
        """
        n = self.n_inputs
        keys: List[List[object]] = [[] for _ in range(n)]
        for report, support in zip(self.reports, self.output_supports):
            hard_of: Dict[int, int] = {}
            for k, block in enumerate(report.hard_sets):
                for local in block:
                    hard_of[support[local]] = k
            in_support = set(support)
            for a in range(n):
                if a not in in_support:
                    keys[a].append(None)
                elif a in hard_of:
                    keys[a].append(("h", hard_of[a]))
                else:
                    keys[a].append(("u", a))
        groups: Dict[Tuple, List[int]] = {}
        all_absent = tuple([None] * len(self.reports))
        for a in range(n):
            key = tuple(keys[a])
            if key == all_absent:
                continue  # input unused by every output: not a variable at all
            groups.setdefault(key, []).append(a)
        return sorted(
            (tuple(g) for g in groups.values() if len(g) > 1),
            key=lambda g: (len(g), g),
        )

    def table2_set_sizes(self) -> List[int]:
        """Sizes of the non-differentiable sets (the paper's ``#hi``)."""
        return [len(s) for s in self.table2_sets]


def differentiate_circuit(
    name: str,
    n_inputs: int,
    output_functions: Sequence[Tuple[TruthTable, Sequence[int]]],
    mode: str = "paper",
) -> CircuitDifferentiation:
    """Differentiate every output of a circuit.

    ``output_functions`` pairs each output's support-reduced function
    with the circuit-level indices of its support variables.
    """
    reports: List[DifferentiationReport] = []
    supports: List[Tuple[int, ...]] = []
    hard_outputs = 0
    for tt, support in output_functions:
        report = differentiate_output(tt, mode=mode)
        reports.append(report)
        supports.append(tuple(support))
        if report.is_hard:
            hard_outputs += 1
    return CircuitDifferentiation(
        name=name,
        n_inputs=n_inputs,
        n_outputs=len(reports),
        hard_outputs=hard_outputs,
        reports=reports,
        output_supports=supports,
    )
