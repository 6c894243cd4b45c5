"""The batch NPN classification engine.

Layered on the per-function canonicalizer
(:func:`repro.core.canonical.canonical_form`) to classify *many*
functions — the paper's library-matching workload — without redoing
work:

1. **Exact dedup.**  Repeated ``(n, bits)`` tables are classified once;
   a bounded LRU cache (:class:`~repro.engine.cache.CanonicalKeyCache`)
   also short-circuits repeats across buckets and batches.
2. **Pre-key bucketing.**  The npn-invariant pre-keys of
   :mod:`repro.engine.prekey` split the batch into buckets; every npn
   class lies wholly inside one bucket, so buckets are independent units
   of work and the cross-bucket merge is a disjoint union.
3. **Membership fast-path.**  Inside a bucket, the first function of a
   class pays full ``canonical_form``.  Later members run a cheaper
   *early-exit probe*: the same phase/polarity/completion candidate
   machinery, but with only the structural + cofactor-weight partition
   (no GRM signature refinement) and no symmetry pruning.  The probe's
   candidate set is therefore a superset of the canonicalizer's, so the
   class's canonical table is guaranteed to appear in it; the first
   candidate whose transformed table equals a known canonical key is a
   literal witness of membership and the probe stops.  A probe miss
   proves the function opens a new class (completeness), and a probe
   that overflows :data:`MEMBERSHIP_CAP` orderings falls back to the
   full canonicalizer (soundness is never at stake).  A bucket stops
   probing after :data:`PROBE_MISS_LIMIT` consecutive misses.
4. **Quarantine.**  A function whose canonicalization exceeds its budget
   no longer poisons the batch: after the bucket's canonical classes are
   all known it is matched pairwise against them, then against earlier
   quarantined representatives, and otherwise seeds a fallback class of
   its own (keys carry a ``quarantined`` flag so they can never collide
   with canonical keys).
5. **Deterministic merge.**  Buckets are classified largest first and
   the results merge back to input positions in sorted key order; every
   class key is derived from content (canonical bits), not from
   discovery order.
6. **Warm start.**  Given a :class:`~repro.store.ClassStore`, every
   bucket's ``known`` set is pre-seeded with the store's classes for
   that pre-key (and the LRU cache with their representatives), so a
   function whose class was ever stored resolves through the membership
   probe — or an exact cache hit — without a single canonicalization.
   Classes discovered fresh are written back after the batch, making
   every repeated workload cheaper than the last.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from itertools import chain, islice, permutations, product
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro import kernels
from repro.boolfunc.transform import NpnTransform
from repro.boolfunc.truthtable import TruthTable
from repro.core.canonical import canonical_form
from repro.core.errors import (
    BudgetExceededError,
    CanonicalizationBudgetError,
    MatchBudgetExceededError,
)
from repro.core.matcher import MatchOptions, match
from repro.core.polarity import phase_candidates
from repro.core import sensitivity as sens_mod
from repro.engine.cache import CanonicalKeyCache
from repro.engine.prekey import coarse_prekey, fine_prekey, sensitivity_prekey
from repro.obs import runtime as _obs
from repro.utils import bitops

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store imports prekey)
    from repro.store.store import ClassStore

# One store-seeded class handed to a bucket: (n, canon_bits, rep_bits,
# witness tuple).
WarmEntry = Tuple[int, int, int, Tuple[Tuple[int, ...], int, bool]]

MEMBERSHIP_CAP = 64
"""Candidate orderings a membership probe may explore per polarity
decision before the function falls back to full canonicalization."""

PROBE_MISS_LIMIT = 8
"""A bucket stops probing after this many consecutive misses (a hit
resets the count)."""


class ClassKey(NamedTuple):
    """Identity of one engine class.

    ``key`` is the canonical table bits for regular classes; quarantined
    classes use their representative's raw bits with ``quarantined=True``
    so the two namespaces cannot collide.
    """

    n: int
    key: int
    quarantined: bool = False


@dataclass
class EngineOptions:
    """Tuning knobs of the batch engine."""

    cache_size: int = 1 << 16
    """Bound on the canonical-key LRU cache."""

    max_orderings: int = 40320
    """Ordering budget handed to :func:`canonical_form`."""

    match_options: MatchOptions = field(default_factory=MatchOptions)


@dataclass
class EngineStats:
    """Work counters and per-stage wall times of one engine run.

    The engine counts straight into these fields.  With observability
    on, each nonzero field is added to the global registry as
    ``engine.<field>`` once the batch completes (:meth:`publish`).
    """

    functions: int = 0
    distinct_functions: int = 0
    duplicates: int = 0
    buckets: int = 0
    singleton_buckets: int = 0
    influence_keyed_buckets: int = 0
    sensitivity_keyed_buckets: int = 0
    fine_keyed_buckets: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    canonicalizations: int = 0
    membership_probes: int = 0
    membership_hits: int = 0
    membership_bailouts: int = 0
    orderings_explored: int = 0
    quarantined: int = 0
    pairwise_matches: int = 0
    kernel_batched: int = 0
    kernel_scalar: int = 0
    store_seeded: int = 0
    store_hits: int = 0
    store_new_classes: int = 0
    prekey_seconds: float = 0.0
    classify_seconds: float = 0.0
    merge_seconds: float = 0.0
    total_seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def publish(self) -> None:
        """Add every nonzero field to the global registry as ``engine.<field>``."""
        registry = _obs.registry
        for name, value in self.as_dict().items():
            if value:
                registry.counter("engine." + name).inc(value)


@dataclass
class EngineResult:
    """Outcome of one batch classification.

    ``members`` maps each class to the *input positions* of its member
    functions (ascending); ``functions`` is the batch in input order.
    """

    functions: List[TruthTable]
    members: Dict[ClassKey, List[int]]
    stats: EngineStats

    @property
    def num_classes(self) -> int:
        return len(self.members)

    def groups(self) -> Dict[ClassKey, List[TruthTable]]:
        """Classes as lists of member functions, in input order."""
        return {
            key: [self.functions[i] for i in idxs]
            for key, idxs in self.members.items()
        }

    def class_of(self, index: int) -> ClassKey:
        """The class key of the ``index``-th input function."""
        for key, idxs in self.members.items():
            if index in idxs:
                return key
        raise KeyError(index)

    def report_dict(self) -> Dict:
        """JSON-able summary (used by ``grm-match classify --report json``).

        Canonical keys are hex strings (the store/wire convention): a
        raw decimal int would trip CPython's int-to-str conversion
        limit for tables of 14+ variables.
        """
        return {
            "functions": len(self.functions),
            "classes": [
                {
                    "n": key.n,
                    "key": f"0x{key.key:x}",
                    "quarantined": key.quarantined,
                    "members": idxs,
                }
                for key, idxs in sorted(self.members.items())
            ],
            "stats": self.stats.as_dict(),
        }


# ----------------------------------------------------------------------
# Membership fast-path
# ----------------------------------------------------------------------

def _membership_probe(
    f: TruthTable,
    known_bits: Dict[int, None],
    options: EngineOptions,
    stats: EngineStats,
) -> Optional[Tuple[int, NpnTransform]]:
    """Early-exit test of ``f`` against the bucket's known canonical keys.

    Returns ``(canon_bits, witness)`` on a hit — the witness satisfies
    ``witness.apply(f).bits == canon_bits`` — and ``None`` on a miss.
    Raises :class:`CanonicalizationBudgetError` when the candidate
    enumeration overflows its caps (caller falls back to the full
    canonicalizer).

    The probe is *opportunistic*: a hit is a literal witness of
    membership (sound by direct table comparison), while a miss merely
    sends the function to :func:`canonical_form`, which classifies it
    correctly regardless.  That freedom lets the probe skip the
    polarity-decision machinery entirely and enumerate candidates from
    raw cofactor-weight analysis: unbalanced variables get the pole the
    canonicalizer's first decision round would give them, balanced
    variables are tried under both poles, and orderings come from the
    canonically-ordered weight-pair partition (the same first
    refinements the canonicalizer applies, so the candidate sets almost
    always intersect in the canonical table).
    """
    n = f.n
    if n == 0:
        return None
    mask = bitops.table_mask(n)
    half = (1 << n) >> 1
    neg_limit = options.match_options.hard_enumeration_limit
    # Raw per-variable weight analysis: pole forced by the unbalance
    # direction (pcw > ncw is the canonicalizer's positive M-pole,
    # i.e. no negation), both poles tried for balanced variables.  The
    # weight vector comes from the function's cache (batch-kernel
    # pre-seeded on the engine path); the complement phase derives its
    # vector as ncw(~f) = 2**(n-1) - ncw(f) instead of recounting, and
    # only genuinely balanced variables pay the exact dependence check.
    base_weights = f.cofactor_weights()
    axis_masks = bitops.axis_masks(n)
    for ff, fo in phase_candidates(f):
        out_mask = mask if fo else 0
        bits = ff.bits
        if bits == f.bits:
            weights = base_weights
        else:
            weights = tuple((half - a, half - b) for a, b in base_weights)
        forced_neg = 0
        balanced_mask = 0
        keys = []
        for v in range(n):
            ncw, pcw = weights[v]
            if ncw == pcw:
                span = 1 << v
                amask = axis_masks[v]
                depends = (bits & amask) != ((bits >> span) & amask)
                if depends:
                    balanced_mask |= span
                keys.append((0 if depends else 1, (ncw, pcw)))
            else:
                if ncw > pcw:
                    forced_neg |= 1 << v
                keys.append((0, (ncw, pcw) if ncw < pcw else (pcw, ncw)))
        balanced = bitops.bits_of(balanced_mask)
        if (1 << len(balanced)) > neg_limit:
            raise CanonicalizationBudgetError(
                f"membership probe: more than {neg_limit} candidate negations"
            )
        # The canonically-ordered weight-pair partition, grouped inline
        # (equivalent to Partition(n).refine(keys.__getitem__) for these
        # homogeneous keys, without the object overhead).
        groups: Dict[Tuple, List[int]] = {}
        for v in range(n):
            groups.setdefault(keys[v], []).append(v)
        blocks = [tuple(groups[k]) for k in sorted(groups)]
        # Orderings are the products of within-block permutations, in the
        # same nesting order the canonicalizer's recursive enumeration
        # uses, but generated by itertools at C speed and truncated at
        # MEMBERSHIP_CAP — a truncated scan just lowers the hit chance,
        # never the correctness, since a miss falls back to the full
        # canonicalizer anyway.
        orders = islice(
            (
                tuple(chain.from_iterable(combo))
                for combo in product(*[list(permutations(b)) for b in blocks])
            ),
            MEMBERSHIP_CAP,
        )
        # Negation commutes past permutation:
        #   permute(negate(f, neg), perm) == negate(permute(f, perm), neg')
        # with bit i of neg landing on bit perm[i] of neg'.  Permute once
        # per ordering, then walk the balanced-pole subsets in Gray-code
        # order so every further candidate is a single axis flip;
        # NpnTransform objects are only built for the witness.
        for order in orders:
            perm = [0] * n
            for pos, v in enumerate(order):
                perm[v] = pos
            permuted = bitops.permute_vars(f.bits, n, perm)
            mapped = 0
            for i in bitops.iter_bits(forced_neg):
                mapped |= 1 << perm[i]
            cand = bitops.negate_inputs(permuted, n, mapped) ^ out_mask
            stats.orderings_explored += 1
            if cand in known_bits:
                return cand, NpnTransform(tuple(perm), forced_neg, fo)
            neg = forced_neg
            for k in range(1, 1 << len(balanced)):
                v = balanced[(k & -k).bit_length() - 1]
                neg ^= 1 << v
                cand = bitops.flip_axis(cand, n, perm[v])
                stats.orderings_explored += 1
                if cand in known_bits:
                    return cand, NpnTransform(tuple(perm), neg, fo)
    return None


# ----------------------------------------------------------------------
# Bucket classification
# ----------------------------------------------------------------------

def _classify_bucket(
    items: Sequence[Tuple[int, int]],
    options: EngineOptions,
    cache: CanonicalKeyCache,
    stats: EngineStats,
    warm: Sequence[WarmEntry],
    weights_of: Dict[Tuple[int, int], Tuple],
) -> Tuple[
    Dict[ClassKey, List[Tuple[int, int]]],
    Dict[Tuple[int, int], Tuple[int, Tuple[Tuple[int, ...], int, bool]]],
]:
    """Classify one bucket of distinct ``(n, bits)`` functions.

    Items are processed in sorted order so class discovery (and with it
    quarantine representatives) is deterministic.  ``warm`` carries the
    persistent store's classes for this bucket's pre-key: their canonical
    keys seed ``known`` (so membership probes can hit them without any
    canonicalization) and their representatives seed the LRU cache (so
    an exact repeat of a stored representative is a dictionary hit).
    ``weights_of`` maps ``(n, bits)`` to the cofactor-weight vector the
    batch pre-key kernel already computed (when it ran), pre-seeding each
    :class:`TruthTable` so the membership probe and polarity selection
    skip their per-variable popcounts.

    Returns the class map plus the *discovered* classes — the ones whose
    canonical key was neither warm-seeded nor already known — as
    ``(n, canon_bits) -> (rep_bits, witness tuple)`` for store write-back.
    """
    out: Dict[ClassKey, List[Tuple[int, int]]] = {}
    known: Dict[int, None] = {}  # canon_bits -> None, in discovery order
    discovered: Dict[Tuple[int, int], Tuple[int, Tuple[Tuple[int, ...], int, bool]]] = {}
    warm_keys: set = set()
    deferred: List[TruthTable] = []
    consecutive_misses = 0

    for wn, canon_bits, rep_bits, witness in warm:
        known.setdefault(canon_bits)
        warm_keys.add(canon_bits)
        cache.put((wn, rep_bits), (canon_bits, witness))

    def assign(key: ClassKey, n: int, bits: int) -> None:
        out.setdefault(key, []).append((n, bits))

    for n, bits in sorted(items):
        f = TruthTable(n, bits)
        w = weights_of.get((n, bits))
        if w is not None:
            f.prime_weights(w)
        cached = cache.get((n, bits))
        if cached is not None:
            stats.cache_hits += 1
            if cached[0] in warm_keys:
                stats.store_hits += 1
            elif cached[0] not in known:
                discovered.setdefault((n, cached[0]), (bits, cached[1]))
            known.setdefault(cached[0])
            assign(ClassKey(n, cached[0]), n, bits)
            continue
        stats.cache_misses += 1
        # Probes are opportunistic, so a bucket that keeps missing (a
        # batch with no repeated classes) stops paying for them.
        if known and consecutive_misses < PROBE_MISS_LIMIT:
            stats.membership_probes += 1
            try:
                hit = _membership_probe(f, known, options, stats)
            except BudgetExceededError:
                stats.membership_bailouts += 1
                hit = None
            if hit is not None:
                canon_bits, t = hit
                stats.membership_hits += 1
                if canon_bits in warm_keys:
                    stats.store_hits += 1
                consecutive_misses = 0
                cache.put((n, bits), (canon_bits, (t.perm, t.input_neg, t.output_neg)))
                assign(ClassKey(n, canon_bits), n, bits)
                continue
            consecutive_misses += 1
        try:
            canon, t = canonical_form(f, options.match_options, options.max_orderings)
            stats.canonicalizations += 1
        except BudgetExceededError:
            stats.quarantined += 1
            deferred.append(f)
            continue
        witness = (t.perm, t.input_neg, t.output_neg)
        cache.put((n, bits), (canon.bits, witness))
        if canon.bits not in known:
            discovered.setdefault((n, canon.bits), (bits, witness))
        known.setdefault(canon.bits)
        assign(ClassKey(n, canon.bits), n, bits)

    # Quarantined functions: every canonical class of the bucket is now
    # known, so pairwise matching cannot split a class.
    quarantine_reps: List[Tuple[int, TruthTable]] = []
    for f in deferred:
        assign(_quarantine_key(f, known, quarantine_reps, options, stats), f.n, f.bits)
    return out, discovered


def _quarantine_key(
    f: TruthTable,
    known: Dict[int, None],
    quarantine_reps: List[Tuple[int, TruthTable]],
    options: EngineOptions,
    stats: EngineStats,
) -> ClassKey:
    for canon_bits in known:
        stats.pairwise_matches += 1
        try:
            if match(f, TruthTable(f.n, canon_bits), options.match_options) is not None:
                return ClassKey(f.n, canon_bits)
        except MatchBudgetExceededError:
            continue
    for rep_bits, rep in quarantine_reps:
        stats.pairwise_matches += 1
        try:
            if match(f, rep, options.match_options) is not None:
                return ClassKey(f.n, rep_bits, quarantined=True)
        except MatchBudgetExceededError:
            continue
    quarantine_reps.append((f.bits, f))
    return ClassKey(f.n, f.bits, quarantined=True)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

class ClassificationEngine:
    """Cached, bucketed batch NPN classification.

    The engine (and its cache) may be reused across batches; class keys
    are stable because they are canonical table bits.

    ``store`` (a :class:`repro.store.ClassStore`) enables warm starts:
    stored classes whose pre-key matches a bucket are seeded into it
    before classification, and classes discovered fresh are written back
    (and flushed) after the batch.  Quarantined classes are never
    persisted — their keys are raw representative bits, not canonical.
    """

    def __init__(
        self,
        options: Optional[EngineOptions] = None,
        store: Optional["ClassStore"] = None,
        auto_flush: bool = True,
    ):
        self.options = options or EngineOptions()
        self.cache = CanonicalKeyCache(self.options.cache_size)
        self.store = store
        self.auto_flush = auto_flush
        """Flush the store at the end of every batch (the one-shot CLI
        default).  A long-running server sets this False and flushes in
        a background task so disk writes stay off the request path;
        write-backs still buffer in the store immediately."""

    def classify(self, functions: Iterable[TruthTable]) -> EngineResult:
        """Classify a batch; equivalent inputs share a class key, and the
        keys equal :func:`canonical_form`'s canonical bits."""
        with _obs.tracer.span("engine.classify") as span:
            result = self._classify(functions)
            if span.recording:
                span.set("functions", result.stats.functions)
                span.set("classes", result.num_classes)
                span.set("canonicalizations", result.stats.canonicalizations)
                span.set("membership_hits", result.stats.membership_hits)
            return result

    def _classify(self, functions: Iterable[TruthTable]) -> EngineResult:
        t_start = time.perf_counter()
        funcs = list(functions)
        stats = EngineStats(functions=len(funcs))

        # Stage 1+2: dedup and pre-key bucketing.
        t0 = time.perf_counter()
        members_of: Dict[Tuple[int, int], List[int]] = {}
        for idx, f in enumerate(funcs):
            if not isinstance(f, TruthTable):
                raise TypeError(f"expected TruthTable, got {type(f).__name__}")
            members_of.setdefault((f.n, f.bits), []).append(idx)
        stats.distinct_functions = len(members_of)
        stats.duplicates = len(funcs) - len(members_of)
        buckets, weights_of = self._bucketize(members_of, stats)
        stats.prekey_seconds += time.perf_counter() - t0

        # Warm start: pull the store's classes for every bucket pre-key.
        warm_by_key: Dict[Tuple, List[WarmEntry]] = {}
        if self.store is not None:
            t0 = time.perf_counter()
            for bkey in buckets:
                records = self.store.warm_records(bkey[0], bkey[:4])
                if records:
                    warm_by_key[bkey] = [
                        (r.n, r.canon_bits, r.rep_bits, r.witness) for r in records
                    ]
                    stats.store_seeded += len(records)
            stats.prekey_seconds += time.perf_counter() - t0

        # Stage 3: classify every bucket, largest first.
        t0 = time.perf_counter()
        evictions_before = self.cache.evictions
        raw: Dict[ClassKey, List[Tuple[int, int]]] = {}
        discovered: Dict[Tuple[int, int], Tuple[int, Tuple[Tuple[int, ...], int, bool]]] = {}
        ordered = sorted(buckets.items(), key=lambda kv: (-len(kv[1]), kv[0]))
        for key, items in ordered:
            warm = warm_by_key.get(key, ())
            bucket_classes, found = _classify_bucket(
                items, self.options, self.cache, stats, warm, weights_of
            )
            for ckey, bucket_members in bucket_classes.items():
                raw.setdefault(ckey, []).extend(bucket_members)
            for dkey, dval in found.items():
                discovered.setdefault(dkey, dval)
        stats.cache_evictions = self.cache.evictions - evictions_before
        stats.classify_seconds = time.perf_counter() - t0

        # Write newly discovered classes back to the store.
        if self.store is not None and discovered:
            for dkey in sorted(discovered):
                d_n, d_canon = dkey
                rep_bits, witness = discovered[dkey]
                if self.store.has(d_n, d_canon):
                    continue
                if self.store.add_class(
                    d_n, d_canon, rep_bits, witness, meta={"source": "engine"}
                ):
                    stats.store_new_classes += 1
            if self.auto_flush:
                self.store.flush()

        # Stage 4: deterministic merge back to input positions.
        t0 = time.perf_counter()
        members: Dict[ClassKey, List[int]] = {}
        for key in sorted(raw):
            idxs: List[int] = []
            for nb in raw[key]:
                idxs.extend(members_of[nb])
            members[key] = sorted(idxs)
        stats.merge_seconds = time.perf_counter() - t0
        stats.total_seconds = time.perf_counter() - t_start
        if _obs.enabled:
            stats.publish()
        return EngineResult(functions=funcs, members=members, stats=stats)

    def resolve_witness(self, f: TruthTable, canon_bits: int) -> NpnTransform:
        """A transform ``t`` with ``t.apply(f).bits == canon_bits``.

        The witness-replay companion of :meth:`classify`: callers that
        learned ``f``'s class key from an :class:`EngineResult` (e.g. the
        netlist mapper binding cut functions against a cell index) use
        this to recover the canonicalizing transform.  Resolution is
        cache-first — the in-process classify path records a witness for
        every function it touches — then an early-exit membership probe
        against the single known key, and finally a full
        canonicalization.  Raises :class:`ValueError` if ``f`` does not
        actually belong to the claimed class (a corrupted key, or a
        quarantined key passed by mistake).
        """
        cached = self.cache.get((f.n, f.bits))
        if cached is not None and cached[0] == canon_bits:
            perm, input_neg, output_neg = cached[1]
            return NpnTransform(tuple(perm), input_neg, bool(output_neg))
        hit = probe_known(f, (canon_bits,), self.options)
        if hit is not None:
            self.cache.put(
                (f.n, f.bits),
                (canon_bits, (hit[1].perm, hit[1].input_neg, hit[1].output_neg)),
            )
            return hit[1]
        canon, t = canonical_form(f, self.options.match_options, self.options.max_orderings)
        if canon.bits != canon_bits:
            raise ValueError(
                f"function 0x{f.bits:x} (n={f.n}) canonicalizes to "
                f"0x{canon.bits:x}, not the claimed class key 0x{canon_bits:x}"
            )
        self.cache.put((f.n, f.bits), (canon.bits, (t.perm, t.input_neg, t.output_neg)))
        return t

    def _bucketize(
        self, members_of: Dict[Tuple[int, int], List[int]], stats: EngineStats
    ) -> Tuple[Dict[Tuple, List[Tuple[int, int]]], Dict[Tuple[int, int], Tuple]]:
        """Group distinct functions by pre-key, escalating through the
        tiers of :mod:`repro.engine.prekey` — coarse, then influence,
        then sensitivity, then the symmetry fine key — with each tier
        only computed inside buckets where the cheaper tier collided.

        Same-width groups the bit-parallel kernel takes (see
        :func:`repro.kernels.should_batch`: enough tables of a supported
        width) get their coarse pre-keys — and cofactor-weight vectors,
        returned as the second element for :class:`TruthTable`
        pre-seeding — from one packed pass, and collided coarse buckets
        batch their influence vectors the same way; the rest take the
        scalar path.  Both paths emit identical keys, so bucket contents
        never depend on which one ran.
        """
        buckets: Dict[Tuple, List[Tuple[int, int]]] = {}
        weights_of: Dict[Tuple[int, int], Tuple] = {}
        coarse: Dict[Tuple, List[Tuple[int, int]]] = {}
        by_n: Dict[int, List[int]] = {}
        for n, bits in members_of:
            by_n.setdefault(n, []).append(bits)
        for n, group in sorted(by_n.items()):
            if kernels.should_batch(n, len(group)):
                keys, weights = kernels.coarse_prekeys(group, n)
                stats.kernel_batched += len(group)
                for bits, ckey, w in zip(group, keys, weights):
                    coarse.setdefault(ckey, []).append((n, bits))
                    weights_of[(n, bits)] = w
            else:
                stats.kernel_scalar += len(group)
                for bits in group:
                    coarse.setdefault(
                        coarse_prekey(TruthTable(n, bits)), []
                    ).append((n, bits))
        for ckey, items in coarse.items():
            if len(items) == 1:
                buckets[ckey] = items
                continue
            self._escalate_bucket(ckey, items, buckets, weights_of, stats)
        stats.buckets = len(buckets)
        stats.singleton_buckets = sum(1 for v in buckets.values() if len(v) == 1)
        return buckets, weights_of

    def _escalate_bucket(
        self,
        ckey: Tuple,
        items: List[Tuple[int, int]],
        buckets: Dict[Tuple, List[Tuple[int, int]]],
        weights_of: Dict[Tuple[int, int], Tuple],
        stats: EngineStats,
    ) -> None:
        """Split one collided coarse bucket through the remaining tiers.

        Influence first (batched through the kernel when the group
        qualifies), then sensitivity, then the symmetry fine key; each
        tier only touches the groups the previous tier left collided.
        Singleton groups keep their shortest differentiating key, so the
        ``[:4]`` coarse prefix the store routes on is preserved at every
        depth.
        """
        stats.influence_keyed_buckets += 1
        n = items[0][0]
        if kernels.should_batch(n, len(items)):
            infls = kernels.influence_vectors([bits for _, bits in items], n)
        else:
            infls = None
        by_ikey: Dict[Tuple, List[Tuple[int, int]]] = {}
        for idx, (fn, bits) in enumerate(items):
            f = TruthTable(fn, bits)
            w = weights_of.get((fn, bits))
            if w is not None:
                f.prime_weights(w)
            iv = infls[idx] if infls is not None else sens_mod.influence_vector(f)
            profile = sens_mod.influence_profile_parts(f.cofactor_weights(), iv, fn)
            by_ikey.setdefault(ckey + (profile,), []).append((fn, bits))
        for ikey, igroup in by_ikey.items():
            if len(igroup) == 1:
                buckets[ikey] = igroup
                continue
            stats.sensitivity_keyed_buckets += 1
            by_skey: Dict[Tuple, List[Tuple[int, int]]] = {}
            for fn, bits in igroup:
                skey = sensitivity_prekey(TruthTable(fn, bits), ikey)
                by_skey.setdefault(skey, []).append((fn, bits))
            for skey, sgroup in by_skey.items():
                if len(sgroup) == 1:
                    buckets[skey] = sgroup
                    continue
                stats.fine_keyed_buckets += 1
                for fn, bits in sgroup:
                    fkey = fine_prekey(TruthTable(fn, bits), skey)
                    buckets.setdefault(fkey, []).append((fn, bits))


def classify_batch(
    functions: Iterable[TruthTable],
    options: Optional[EngineOptions] = None,
    **overrides,
) -> EngineResult:
    """One-shot convenience: ``classify_batch(funcs, cache_size=1024)``."""
    if options is None:
        options = EngineOptions(**overrides)
    elif overrides:
        raise TypeError("pass either options or keyword overrides, not both")
    return ClassificationEngine(options).classify(functions)


def probe_known(
    f: TruthTable,
    known_bits: Iterable[int],
    options: Optional[EngineOptions] = None,
) -> Optional[Tuple[int, NpnTransform]]:
    """Early-exit membership probe of ``f`` against known canonical keys.

    Returns ``(canon_bits, witness)`` with ``witness.apply(f).bits ==
    canon_bits`` on a hit, ``None`` on a miss or probe-budget bailout.
    A miss never proves non-membership on its own — the candidate scan
    is truncated at :data:`MEMBERSHIP_CAP` — so callers fall back to
    :func:`repro.core.canonical.canonical_form`.
    """
    opts = options or EngineOptions()
    known = dict.fromkeys(known_bits)
    if not known:
        return None
    try:
        return _membership_probe(f, known, opts, EngineStats())
    except BudgetExceededError:
        return None


def store_lookup(
    store: "ClassStore",
    f: TruthTable,
    options: Optional[EngineOptions] = None,
) -> Optional[Tuple[int, NpnTransform]]:
    """Resolve ``f``'s canonical key through a persistent class store.

    The warm path of single-function consumers (library binding, ``lib
    query``): fetch the store's classes for ``f``'s coarse pre-key —
    one shard read — then try exact representative/canonical matches
    and finally the membership probe.  Returns ``(canon_bits, t)`` with
    ``t.apply(f).bits == canon_bits``, or ``None`` when the store
    cannot resolve ``f`` (unknown class *or* probe bailout); the caller
    decides whether to canonicalize cold.
    """
    records = store.warm_records(f.n, coarse_prekey(f))
    if not records:
        return None
    for record in records:
        if record.rep_bits == f.bits:
            return record.canon_bits, record.transform
        if record.canon_bits == f.bits:
            return record.canon_bits, NpnTransform.identity(f.n)
    return probe_known(f, [r.canon_bits for r in records], options)


def npn_class_count_engine(n: int, options: Optional[EngineOptions] = None) -> int:
    """Engine-powered twin of :func:`repro.core.canonical.npn_class_count`."""
    result = classify_batch(
        (TruthTable(n, bits) for bits in range(1 << (1 << n))), options
    )
    return result.num_classes
