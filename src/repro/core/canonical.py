"""NPN-canonical forms driven by the GRM machinery.

Classifying a set of functions into npn classes with pairwise matching
is quadratic in the number of classes; a *canonical form* makes it a
hash lookup.  This module canonicalizes with the same ingredients as
the matcher: output-phase candidates, decided polarity vectors (with
hard-variable completions), signature-refined variable partitions, and
symmetry-pruned orderings — the minimum truth table over all candidate
normalizations is the class representative.

Canonicity (equivalent functions produce identical representatives) is
property-tested against random transforms and validated exactly against
the exhaustive baseline (14 classes for n=3, 222 for n=4).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.boolfunc.transform import NpnTransform
from repro.boolfunc.truthtable import TruthTable
from repro.core import symmetry as sym_mod
from repro.core.errors import BudgetExceededError, CanonicalizationBudgetError
from repro.core.matcher import MatchOptions, DEFAULT_OPTIONS, match, _refined_partition
from repro.core.polarity import (
    PolarityDecision,
    decide_polarity,
    hard_completions,
    phase_candidates,
)
from repro.grm.forms import Grm
from repro.obs.profile import timed
from repro.utils.partition import Partition

__all__ = [
    "CanonicalizationBudgetError",
    "canonical_form",
    "classify",
    "npn_class_count",
]


def _orderings(
    part: Partition,
    group_of: Dict[int, int],
    max_orderings: int,
) -> Iterator[Tuple[int, ...]]:
    """Orderings of the variables consistent with the partition blocks.

    Within a block all arrangements are produced, except that variables
    in the same in-form symmetric orbit are interchangeable and only one
    representative choice is explored per decision point.
    """
    blocks = part.blocks
    produced = 0
    prefix: List[int] = []
    used: set = set()

    def rec(bi: int, inner: int) -> Iterator[Tuple[int, ...]]:
        nonlocal produced
        if bi == len(blocks):
            produced += 1
            if produced > max_orderings:
                raise CanonicalizationBudgetError(
                    f"more than {max_orderings} candidate orderings"
                )
            yield tuple(prefix)
            return
        block = blocks[bi]
        if inner == len(block):
            yield from rec(bi + 1, 0)
            return
        tried = set()
        for v in block:
            if v in used:
                continue
            gid = group_of[v]
            if gid in tried:
                continue
            tried.add(gid)
            used.add(v)
            prefix.append(v)
            yield from rec(bi, inner + 1)
            prefix.pop()
            used.remove(v)

    yield from rec(0, 0)


@timed("canonical.canonical_form")
def canonical_form(
    f: TruthTable,
    options: MatchOptions = DEFAULT_OPTIONS,
    max_orderings: int = 40320,
) -> Tuple[TruthTable, NpnTransform]:
    """The GRM-driven npn-canonical representative of ``f``.

    Returns ``(canon, t)`` with ``canon == t.apply(f)``; npn-equivalent
    inputs yield the same ``canon``.
    """
    n = f.n
    if n == 0:
        if f.bits == 0:
            return f, NpnTransform(())
        return TruthTable(0, 0), NpnTransform((), 0, True)

    full = (1 << n) - 1
    best_bits: Optional[int] = None
    best_t: Optional[NpnTransform] = None

    try:
        for ff, fo in phase_candidates(f):
            for dec in decide_polarity(ff):
                for w in hard_completions(ff, dec, options.hard_enumeration_limit):
                    grm = Grm.from_truthtable(ff, w)
                    dec_w = PolarityDecision(
                        n=n,
                        polarity=w,
                        decided_mask=dec.decided_mask,
                        hard_mask=dec.hard_mask,
                        vacuous_mask=dec.vacuous_mask,
                        used_linear=dec.used_linear,
                        rounds=dec.rounds,
                    )
                    part = _refined_partition(ff, grm, dec_w, options)
                    groups = sym_mod.positive_symmetric_groups([grm], n)
                    group_of: Dict[int, int] = {}
                    for gi, grp in enumerate(groups):
                        for v in grp:
                            group_of[v] = gi
                    neg = ~w & full  # rotate every literal to positive phase
                    for order in _orderings(part, group_of, max_orderings):
                        perm = [0] * n
                        for pos, v in enumerate(order):
                            perm[v] = pos
                        t = NpnTransform(tuple(perm), neg, fo)
                        bits = t.apply(f).bits
                        if best_bits is None or bits < best_bits:
                            best_bits = bits
                            best_t = t
    except BudgetExceededError as exc:
        # Identify the offending function so batch drivers can quarantine
        # it instead of abandoning completed work.
        raise exc.attach_function(n, f.bits)

    assert best_bits is not None and best_t is not None
    return TruthTable(n, best_bits), best_t


def classify(
    functions: Iterable[TruthTable],
    options: MatchOptions = DEFAULT_OPTIONS,
    max_orderings: int = 40320,
    budget_fallback: bool = True,
) -> Dict[int, List[TruthTable]]:
    """Group functions by npn class (keyed by canonical table bits).

    A :class:`~repro.core.errors.BudgetExceededError` raised while
    canonicalizing one function no longer aborts the batch: with
    ``budget_fallback`` (the default) the offending function is matched
    pairwise against the class representatives found so far, and failing
    that it seeds a fallback class keyed by ``~rep.bits`` (negative, so
    fallback keys can never collide with canonical keys).  Pass
    ``budget_fallback=False`` to restore the raising behaviour.

    For batch workloads prefer :class:`repro.engine.ClassificationEngine`,
    which adds pre-key bucketing, caching, and membership probes on top
    of the same canonical keys.
    """
    classes: Dict[int, List[TruthTable]] = {}
    canon_reps: List[Tuple[int, TruthTable]] = []
    fallback_reps: List[Tuple[int, TruthTable]] = []
    deferred: List[TruthTable] = []
    for f in functions:
        try:
            canon, _ = canonical_form(f, options, max_orderings)
        except BudgetExceededError:
            if not budget_fallback:
                raise
            deferred.append(f)
            continue
        if canon.bits not in classes:
            canon_reps.append((canon.bits, canon))
        classes.setdefault(canon.bits, []).append(f)
    # Quarantined functions are grouped last so every canonical class is
    # known before the pairwise sweep (a classmate later in the input
    # would otherwise split the class).
    for f in deferred:
        classes.setdefault(_fallback_key(f, canon_reps, fallback_reps, options), []).append(f)
    return classes


def _fallback_key(
    f: TruthTable,
    canon_reps: List[Tuple[int, TruthTable]],
    fallback_reps: List[Tuple[int, TruthTable]],
    options: MatchOptions,
) -> int:
    """Class key for a function whose canonicalization blew its budget."""
    for key, rep in canon_reps + fallback_reps:
        if rep.n != f.n:
            continue
        try:
            if match(f, rep, options) is not None:
                return key
        except BudgetExceededError:
            continue
    key = ~f.bits  # negative: disjoint from canonical (non-negative) keys
    fallback_reps.append((key, f))
    return key


def npn_class_count(n: int, options: MatchOptions = DEFAULT_OPTIONS) -> int:
    """Number of npn classes over all ``n``-variable functions.

    Known values: 2, 4, 14, 222 for n = 1..4.
    """
    return len(classify((TruthTable(n, bits) for bits in range(1 << (1 << n))), options))
