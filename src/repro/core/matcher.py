"""The Boolean matching procedure (Section 6 of the paper).

Given two completely specified functions with equal input counts, decide
npn-equivalence and recover a witnessing :class:`NpnTransform`:

1. **Output phase** is normalized by on-set weight (complement when more
   than half the minterms are on; neutral functions try both phases).
2. **Input polarities** come from the M-pole folding procedure
   (:mod:`repro.core.polarity`); persistently balanced (*hard*)
   variables have their polarity completions enumerated on one side —
   the paper's "additional GRMs" of Section 6.3 — reduced by
   truth-level NE-symmetry classes so that e.g. parity needs ``n + 1``
   completions rather than ``2**n``.
3. **Signatures** (Section 4) gate each candidate pair of GRM forms and
   refine the ordered variable partition.  Ahead of all of that, a
   *tier dispatcher* escalates through ever-richer npn-invariant
   signature tiers — cofactor weights, then influence vectors, then
   sensitivity profiles (:mod:`repro.core.sensitivity`) — and stops at
   the cheapest tier that differentiates the pair, so weight-twin pairs
   are rejected before any GRM form is built.
4. **Symmetries** (Section 5) collapse interchangeable variables so the
   backtracking assignment only explores one representative per orbit.
5. The **cube sets** of the two forms are matched by a partition-guided
   backtracking search; input phases fall out of the polarity-vector
   comparison and the recovered transform is verified on the truth
   tables before being returned (reported matches are sound by
   construction).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.boolfunc.transform import NpnTransform
from repro.boolfunc.truthtable import TruthTable
from repro.core import sensitivity as sens_mod
from repro.core import signatures as sigs_mod
from repro.core import symmetry as sym_mod
from repro.core.errors import MatchBudgetExceededError
from repro.obs import runtime as _obs
from repro.obs.profile import timed
from repro.obs.trace import TRACE_DETAIL
from repro.core.polarity import (
    PolarityDecision,
    decide_polarity,
    hard_completions,
    phase_candidates,
)
from repro.grm.forms import Grm
from repro.utils import bitops
from repro.utils.partition import Partition

__all__ = [
    "MatchBudgetExceededError",
    "MatchOptions",
    "MatchStats",
    "MatchResult",
    "MatchOutcome",
    "DEFAULT_OPTIONS",
    "hard_completions",
    "np_match",
    "match",
    "match_with_stats",
    "is_npn_equivalent",
    "is_np_equivalent",
]


@dataclass
class MatchOptions:
    """Tuning knobs; defaults reproduce the paper's full procedure.

    The ablation benchmark switches individual features off.
    """

    signature_families: Tuple[str, ...] = sigs_mod.DEFAULT_FAMILIES
    use_incidence_refinement: bool = True
    use_symmetry_pruning: bool = True
    use_function_signature_gate: bool = True
    use_tier_dispatch: bool = True
    """Escalate through npn-invariant signature tiers (weights ->
    influence -> sensitivity) before any GRM work, stopping at the
    cheapest tier that differentiates the pair.  Tiers outside
    ``signature_families`` are skipped."""
    prune_every_assignment: bool = True
    hard_enumeration_limit: int = 4096


@dataclass
class MatchStats:
    """Work counters filled in by one :func:`match` call."""

    phase_pairs_tried: int = 0
    grms_built: int = 0
    signature_rejects: int = 0
    influence_rejects: int = 0
    sensitivity_rejects: int = 0
    partition_rejects: int = 0
    search_nodes: int = 0
    leaf_checks: int = 0
    hard_completions_tried: int = 0
    assignment_prunes: int = 0
    leaf_rejects: int = 0
    symmetry_skips: int = 0
    backtracks: int = 0
    max_depth: int = 0
    differentiated_by: Optional[str] = None
    """Which signature tier settled a non-match: ``"weights"``,
    ``"influence"`` or ``"sensitivity"`` when the dispatcher pruned
    before GRM construction, ``"grm"`` when the full pipeline had to
    decide, ``None`` on a match (or when dispatch is disabled)."""


# The paper's signature families, used to label prune events.  A
# function-signature mismatch is attributed to every family whose
# component(s) differ, so a trace shows *which* signature did the work.
def _rejecting_families(
    a: sigs_mod.FunctionSignature, b: sigs_mod.FunctionSignature
) -> Tuple[str, ...]:
    fams = []
    if a.fw != b.fw or a.wd != b.wd:
        fams.append("weights")
    if a.fc != b.fc or a.fvc_multiset != b.fvc_multiset or a.num_cubes != b.num_cubes:
        fams.append("vic")
    if a.finc_multiset != b.finc_multiset:
        fams.append("inc")
    if a.pc != b.pc or a.pcv_multiset != b.pcv_multiset:
        fams.append("primes")
    return tuple(fams) or ("weights",)


@dataclass
class MatchResult:
    """A successful match: ``g == transform.apply(f)``."""

    transform: NpnTransform
    stats: MatchStats


DEFAULT_OPTIONS = MatchOptions()


# ----------------------------------------------------------------------
# The cube-set assignment search
# ----------------------------------------------------------------------

def _refined_partition(
    f: TruthTable, grm: Grm, decision: PolarityDecision, options: MatchOptions
) -> Partition:
    part = Partition(f.n)
    # Structural status first: vacuous / hard / decided are np-invariant.
    part.refine(
        lambda v: (
            (decision.vacuous_mask >> v) & 1,
            (decision.hard_mask >> v) & 1,
        )
    )
    sigs_mod.refine_partition_with_grm(
        part,
        f,
        grm,
        use_incidence=options.use_incidence_refinement,
        signature_families=options.signature_families,
    )
    return part


def _search_assignment(
    grm_f: Grm,
    grm_g: Grm,
    part_f: Partition,
    part_g: Partition,
    options: MatchOptions,
    stats: MatchStats,
) -> Optional[Tuple[int, ...]]:
    """Find a variable bijection mapping ``grm_f``'s cubes onto ``grm_g``'s."""
    n = grm_f.n
    tr = _obs.tracer
    detail = tr.wants(TRACE_DETAIL)
    if part_f.block_sizes() != part_g.block_sizes():
        stats.partition_rejects += 1
        if detail:
            tr.event(
                "prune",
                reason="partition_shape",
                blocks_f=part_f.block_sizes(),
                blocks_g=part_g.block_sizes(),
            )
        return None

    block_of_f: Dict[int, int] = {}
    for bi, block in enumerate(part_f.blocks):
        for v in block:
            block_of_f[v] = bi

    if options.use_symmetry_pruning:
        groups = sym_mod.positive_symmetric_groups([grm_g], n)
        group_of: Dict[int, int] = {}
        for gi, grp in enumerate(groups):
            for v in grp:
                group_of[v] = gi
    else:
        group_of = {v: v for v in range(n)}

    order = [v for block in part_f.blocks for v in block]
    sigma: Dict[int, int] = {}
    assigned_g: set = set()
    cubes_f = grm_f.cubes
    cubes_g = grm_g.cubes

    def partial_consistent() -> bool:
        mask_f = 0
        for v in sigma:
            mask_f |= 1 << v
        proj_f: Counter = Counter()
        for cube in cubes_f:
            m = cube & mask_f
            mapped = 0
            for i in bitops.iter_bits(m):
                mapped |= 1 << sigma[i]
            proj_f[mapped] += 1
        mask_g = 0
        for w in assigned_g:
            mask_g |= 1 << w
        proj_g = Counter(cube & mask_g for cube in cubes_g)
        return proj_f == proj_g

    def recurse(idx: int) -> Optional[Tuple[int, ...]]:
        stats.search_nodes += 1
        if idx > stats.max_depth:
            stats.max_depth = idx
        if idx == n:
            stats.leaf_checks += 1
            perm = tuple(sigma[i] for i in range(n))
            relabeled = set()
            for cube in cubes_f:
                m = 0
                for i in bitops.iter_bits(cube):
                    m |= 1 << perm[i]
                relabeled.add(m)
            if relabeled == set(cubes_g):
                return perm
            stats.leaf_rejects += 1
            if detail:
                tr.event("prune", reason="leaf_mismatch", perm=list(perm))
            return None
        i = order[idx]
        block = part_g.blocks[block_of_f[i]]
        tried_groups = set()
        for j in block:
            if j in assigned_g:
                continue
            gid = group_of[j]
            if gid in tried_groups:
                stats.symmetry_skips += 1
                if detail:
                    tr.event(
                        "prune", reason="symmetry_orbit", var=i, to=j, depth=idx
                    )
                continue
            tried_groups.add(gid)
            sigma[i] = j
            assigned_g.add(j)
            ok = (not options.prune_every_assignment) or partial_consistent()
            if ok:
                found = recurse(idx + 1)
                if found is not None:
                    return found
            else:
                stats.assignment_prunes += 1
                if detail:
                    tr.event("prune", reason="projection", var=i, to=j, depth=idx)
            del sigma[i]
            assigned_g.remove(j)
        stats.backtracks += 1
        return None

    return recurse(0)


# ----------------------------------------------------------------------
# np- and npn-level matching
# ----------------------------------------------------------------------

def np_match(
    ff: TruthTable,
    gg: TruthTable,
    options: MatchOptions = DEFAULT_OPTIONS,
    stats: Optional[MatchStats] = None,
) -> Optional[NpnTransform]:
    """Match under input permutation and negation only (no output phase).

    Returns ``t`` with ``gg == t.apply(ff)`` and ``t.output_neg == False``,
    or ``None``.
    """
    if stats is None:
        stats = MatchStats()
    n = ff.n
    if gg.n != n or ff.count() != gg.count():
        return None
    if bitops.popcount(ff.support()) != bitops.popcount(gg.support()):
        return None
    fams = options.signature_families
    # Function-level influence/sensitivity gates: np-invariant (no
    # output-phase lexmin, both functions are already phase-fixed here),
    # strictly sharper than the dispatcher's npn tiers and still far
    # cheaper than one GRM construction.
    if "influence" in fams and (
        sens_mod.np_influence_profile(ff) != sens_mod.np_influence_profile(gg)
    ):
        stats.influence_rejects += 1
        if _obs.tracer.wants(TRACE_DETAIL):
            _obs.tracer.event(
                "prune", reason="signature_tier", family="influence", stage="np_gate"
            )
        return None
    if "sensitivity" in fams and (
        sens_mod.np_sensitivity_profile(ff) != sens_mod.np_sensitivity_profile(gg)
    ):
        stats.sensitivity_rejects += 1
        if _obs.tracer.wants(TRACE_DETAIL):
            _obs.tracer.event(
                "prune", reason="signature_tier", family="sensitivity", stage="np_gate"
            )
        return None

    for dec_f in decide_polarity(ff):
        grm_f = Grm.from_truthtable(ff, dec_f.polarity)
        stats.grms_built += 1
        sig_f = sigs_mod.function_signature(ff, grm_f)
        part_f = _refined_partition(ff, grm_f, dec_f, options)
        detail = _obs.tracer.wants(TRACE_DETAIL)
        for dec_g in decide_polarity(gg):
            # Hard/vacuous variable counts are np-invariants of the
            # polarity procedure (driven by cofactor-weight balance), so
            # a mismatch is a weights-family rejection.
            if dec_f.num_hard() != dec_g.num_hard():
                if detail:
                    _obs.tracer.event(
                        "prune",
                        reason="function_signature",
                        family="weights",
                        stage="hard_count",
                        hard_f=dec_f.num_hard(),
                        hard_g=dec_g.num_hard(),
                    )
                continue
            if bitops.popcount(dec_f.vacuous_mask) != bitops.popcount(dec_g.vacuous_mask):
                if detail:
                    _obs.tracer.event(
                        "prune",
                        reason="function_signature",
                        family="weights",
                        stage="vacuous_count",
                    )
                continue
            for w in hard_completions(gg, dec_g, options.hard_enumeration_limit):
                stats.hard_completions_tried += 1
                grm_g = Grm.from_truthtable(gg, w)
                stats.grms_built += 1
                if options.use_function_signature_gate:
                    sig_g = sigs_mod.function_signature(gg, grm_g)
                    if sig_g != sig_f:
                        stats.signature_rejects += 1
                        tr = _obs.tracer
                        if tr.wants(TRACE_DETAIL):
                            for family in _rejecting_families(sig_f, sig_g):
                                tr.event(
                                    "prune",
                                    reason="function_signature",
                                    family=family,
                                    polarity_g=w,
                                )
                        continue
                dec_g_w = PolarityDecision(
                    n=n,
                    polarity=w,
                    decided_mask=dec_g.decided_mask,
                    hard_mask=dec_g.hard_mask,
                    vacuous_mask=dec_g.vacuous_mask,
                    used_linear=dec_g.used_linear,
                    rounds=dec_g.rounds,
                )
                part_g = _refined_partition(gg, grm_g, dec_g_w, options)
                perm = _search_assignment(grm_f, grm_g, part_f, part_g, options, stats)
                if perm is None:
                    continue
                neg = 0
                for i in range(n):
                    vi = (dec_f.polarity >> i) & 1
                    wj = (w >> perm[i]) & 1
                    neg |= (vi ^ wj) << i
                candidate = NpnTransform(perm, neg, False)
                if candidate.apply(ff) == gg:
                    return candidate
    return None


def match(
    f: TruthTable,
    g: TruthTable,
    options: MatchOptions = DEFAULT_OPTIONS,
    allow_output_neg: bool = True,
) -> Optional[NpnTransform]:
    """Full npn matching: find ``t`` with ``g == t.apply(f)``, or ``None``."""
    return match_with_stats(f, g, options, allow_output_neg).transform_or_none()


@dataclass
class MatchOutcome:
    """Transform (if any) plus the work counters of the attempt."""

    transform: Optional[NpnTransform]
    stats: MatchStats

    def transform_or_none(self) -> Optional[NpnTransform]:
        return self.transform


@timed("matcher.match")
def match_with_stats(
    f: TruthTable,
    g: TruthTable,
    options: MatchOptions = DEFAULT_OPTIONS,
    allow_output_neg: bool = True,
) -> MatchOutcome:
    """Like :func:`match` but also returns the search statistics."""
    stats = MatchStats()
    if f.n != g.n:
        return MatchOutcome(None, stats)
    n = f.n
    if n == 0:
        if f.bits == g.bits:
            return MatchOutcome(NpnTransform(()), stats)
        if allow_output_neg:
            return MatchOutcome(NpnTransform((), 0, True), stats)
        return MatchOutcome(None, stats)

    if options.use_tier_dispatch:
        tier = tier_differentiator(f, g, options.signature_families)
        if tier is not None:
            # An npn-invariant tier differs, which disproves
            # npn-equivalence (and a fortiori np-equivalence) — no GRM
            # form is ever built for this pair.
            stats.differentiated_by = tier
            if _obs.tracer.wants(TRACE_DETAIL):
                _obs.tracer.event(
                    "prune", reason="signature_tier", family=tier, stage="dispatch"
                )
            if _obs.enabled:
                _flush_match_metrics(stats, False)
            return MatchOutcome(None, stats)

    with _obs.tracer.span("match", n=n) as span:
        outcome = None
        f_phases = phase_candidates(f) if allow_output_neg else [(f, False)]
        g_phases = phase_candidates(g) if allow_output_neg else [(g, False)]
        detail = _obs.tracer.wants(TRACE_DETAIL)
        for ff, fo in f_phases:
            for gg, go in g_phases:
                if ff.count() != gg.count():
                    if detail:
                        _obs.tracer.event(
                            "prune",
                            reason="function_signature",
                            family="weights",
                            stage="phase_weight",
                            fw_f=ff.count(),
                            fw_g=gg.count(),
                        )
                    continue
                if not allow_output_neg and (fo or go):
                    continue
                stats.phase_pairs_tried += 1
                t0 = np_match(ff, gg, options, stats)
                if t0 is not None:
                    result = NpnTransform(t0.perm, t0.input_neg, fo ^ go)
                    if result.apply(f) == g:
                        outcome = MatchOutcome(result, stats)
                        break
            if outcome is not None:
                break
        if outcome is None:
            if options.use_tier_dispatch:
                stats.differentiated_by = "grm"
            outcome = MatchOutcome(None, stats)
        if span.recording:
            span.set("matched", outcome.transform is not None)
            span.set("search_nodes", stats.search_nodes)
            span.set("signature_rejects", stats.signature_rejects)
    if _obs.enabled:
        _flush_match_metrics(stats, outcome.transform is not None)
    return outcome


def tier_differentiator(
    f: TruthTable,
    g: TruthTable,
    families: Tuple[str, ...] = sigs_mod.DEFAULT_FAMILIES,
) -> Optional[str]:
    """The cheapest enabled npn-invariant tier that separates the pair.

    Escalates weights -> influence -> sensitivity, computing each tier
    lazily; returns ``None`` when every enabled tier ties (the pair then
    goes to the full GRM pipeline).  Tier keys are memoized per
    ``(n, bits)`` in :mod:`repro.core.sensitivity`, and the weights tier
    reuses the engine's coarse pre-key.  The serving ``match`` op reports
    the same tier as its ``differentiated_by``.
    """
    if "weights" in families:
        # Cheap scalar screens first: both counts are cached on the
        # TruthTable, so a weight mismatch never reaches the profile.
        size = 1 << f.n
        if min(f.count(), size - f.count()) != min(g.count(), size - g.count()):
            return "weights"
        # Imported here: the engine imports this module at load time.
        from repro.engine.prekey import coarse_prekey

        if coarse_prekey(f) != coarse_prekey(g):
            return "weights"
    if "influence" in families and (
        sens_mod.influence_profile(f) != sens_mod.influence_profile(g)
    ):
        return "influence"
    if "sensitivity" in families and (
        sens_mod.sensitivity_profile(f) != sens_mod.sensitivity_profile(g)
    ):
        return "sensitivity"
    return None


_SEARCH_NODE_BUCKETS = (1, 10, 100, 1_000, 10_000, 100_000, 1_000_000)


def _flush_match_metrics(stats: MatchStats, matched: bool) -> None:
    """Ship one match call's counters into the global registry (enabled
    mode only — the per-call MatchStats stays the zero-dependency path)."""
    registry = _obs.registry
    registry.counter("matcher.calls").inc()
    if matched:
        registry.counter("matcher.matches").inc()
    registry.histogram("matcher.search_nodes", edges=_SEARCH_NODE_BUCKETS).observe(
        stats.search_nodes
    )
    if stats.differentiated_by is not None:
        registry.counter(
            "matcher.tier_prune", family=stats.differentiated_by
        ).inc()
    for field, value in (
        ("phase_pairs_tried", stats.phase_pairs_tried),
        ("grms_built", stats.grms_built),
        ("signature_rejects", stats.signature_rejects),
        ("influence_rejects", stats.influence_rejects),
        ("sensitivity_rejects", stats.sensitivity_rejects),
        ("partition_rejects", stats.partition_rejects),
        ("search_nodes", stats.search_nodes),
        ("leaf_checks", stats.leaf_checks),
        ("leaf_rejects", stats.leaf_rejects),
        ("hard_completions_tried", stats.hard_completions_tried),
        ("assignment_prunes", stats.assignment_prunes),
        ("symmetry_skips", stats.symmetry_skips),
        ("backtracks", stats.backtracks),
    ):
        if value:
            registry.counter("matcher." + field).inc(value)


def is_npn_equivalent(f: TruthTable, g: TruthTable) -> bool:
    """Convenience predicate for npn-equivalence."""
    return match(f, g) is not None


def is_np_equivalent(f: TruthTable, g: TruthTable) -> bool:
    """Convenience predicate for np-equivalence (no output negation)."""
    return match(f, g, allow_output_neg=False) is not None
