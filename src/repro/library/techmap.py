"""Matcher-driven library binding (the technology-mapping application).

A :class:`CellLibrary` precomputes, per cell, the GRM-driven canonical
form — the paper's "for hard-to-match functions, the set of GRMs and
their signatures are computed beforehand" — and keeps the canonicalizing
*witness* alongside each cell.  Binding a target function is then:

1. one canonical-key resolution for the target — through the persistent
   :class:`~repro.store.ClassStore` when one is attached (a single-shard
   membership probe, no canonicalization), else ``canonical_form``;
2. a hash lookup of the target's class among the cell classes;
3. **witness replay** for the pin assignment: with ``t_f.apply(f) ==
   canon`` and ``t_c.apply(cell) == canon``, every transform taking the
   cell onto ``f`` is ``t_f⁻¹ ∘ a ∘ t_c`` for an automorphism ``a`` of
   ``canon`` — pure transform composition, no matcher run at all.  The
   bind takes the smallest cell, then the fewest inverters, then the
   smallest transform, so the binding is a pure function of ``f`` and
   the library, whichever witness ``t_f`` the caller found.

The pre-store behaviour (full :func:`repro.core.matcher.match` against
every candidate cell) survives as :meth:`CellLibrary.bind_linear`, the
reference that parity tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.boolfunc.transform import NpnTransform, RawTransform, automorphisms, compose_raw
from repro.boolfunc.truthtable import TruthTable
from repro.core.canonical import canonical_form
from repro.core.matcher import match
from repro.engine.classifier import store_lookup
from repro.library.cells import (
    CellIndex,
    LibraryCell,
    build_cell_index,
    default_cells,
)
from repro.obs import runtime as _obs
from repro.obs.profile import scoped_timer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.store import ClassStore

CELL_CLASS_KIND = "cell-class"

# A candidate pin assignment: a cell and a raw transform taking it onto
# its class's canonical representative.
CosetEntry = Tuple[LibraryCell, RawTransform]


@dataclass(frozen=True)
class Binding:
    """A successful bind: ``target == transform.apply(cell.function)``.

    The transform tells the mapper which target net drives each cell pin
    and where inverters are needed (input phase bits and output phase).
    """

    cell: LibraryCell
    transform: NpnTransform

    def inverter_count(self) -> int:
        """Inverters implied by the phase assignment."""
        return bin(self.transform.input_neg).count("1") + int(self.transform.output_neg)


class CellLibrary:
    """An npn-indexed cell library.

    ``store`` attaches a persistent class store used to resolve target
    canonical keys warm (see :func:`repro.engine.store_lookup`); without
    one, every bind pays a fresh canonicalization of the target.
    """

    def __init__(
        self,
        cells: Optional[Sequence[LibraryCell]] = None,
        store: Optional["ClassStore"] = None,
        _index: Optional[CellIndex] = None,
    ):
        self.cells: List[LibraryCell] = (
            list(cells) if cells is not None else default_cells()
        )
        self._store = store
        self._index: CellIndex = (
            _index if _index is not None else build_cell_index(self.cells)
        )
        self._cosets: Dict[Tuple[int, int], List[CosetEntry]] = {}

    # -- persistent index -----------------------------------------------

    def attach_store(self, store: Optional["ClassStore"]) -> None:
        """Attach (or detach, with None) the warm-lookup store."""
        self._store = store

    def build_store(self, store: "ClassStore") -> int:
        """Write the library's class index into a persistent store.

        One record per cell class; the metadata lists every member cell
        with its canonicalizing witness, so :meth:`from_store` can
        rebuild the whole index with zero canonicalizations.  Returns
        the number of records the store accepted as new or changed (a
        rebuild over an unchanged library is a no-op).
        """
        changed = 0
        for (n, canon_bits), entries in sorted(self._index.items()):
            rep_cell, rep_witness = entries[0]
            meta = {
                "kind": CELL_CLASS_KIND,
                "cells": [
                    {
                        "name": cell.name,
                        "area": cell.area,
                        "w": [list(w.perm), w.input_neg, int(w.output_neg)],
                    }
                    for cell, w in entries
                ],
            }
            if store.add_class(
                n,
                canon_bits,
                rep_cell.function.bits,
                (rep_witness.perm, rep_witness.input_neg, rep_witness.output_neg),
                meta=meta,
            ):
                changed += 1
        store.flush()
        return changed

    @classmethod
    def from_store(
        cls,
        store: "ClassStore",
        cells: Optional[Sequence[LibraryCell]] = None,
    ) -> "CellLibrary":
        """Rebuild a library from a store's cell-class records.

        No canonicalization happens: each recorded witness is replayed
        against the named cell's function and must reproduce the
        record's canonical bits — a cheap integrity check that catches
        a cell library drifting out from under a stale store (raises
        :class:`repro.store.StoreError`).
        """
        from repro.store.errors import StoreError

        cell_list = list(cells) if cells is not None else default_cells()
        by_name = {cell.name: cell for cell in cell_list}
        index: CellIndex = {}
        seen: set = set()
        for record in store.records():
            meta = record.meta
            if meta.get("kind") != CELL_CLASS_KIND:
                continue
            entries = []
            for item in meta.get("cells", []):
                cell = by_name.get(item["name"])
                if cell is None:
                    raise StoreError(
                        f"store references unknown cell {item['name']!r}; "
                        "rebuild the store against the current library"
                    )
                perm, neg, out = item["w"]
                witness = NpnTransform(tuple(perm), neg, bool(out))
                if witness.apply(cell.function).bits != record.canon_bits:
                    raise StoreError(
                        f"stored witness for cell {cell.name!r} does not "
                        "reproduce its class key; the cell library changed — "
                        "rebuild the store"
                    )
                entries.append((cell, witness))
                seen.add(cell.name)
            index[(record.n, record.canon_bits)] = entries
        missing = sorted(set(by_name) - seen)
        if missing:
            raise StoreError(
                f"store has no class records for cells {missing}; "
                "rebuild the store against the current library"
            )
        return cls(cells=cell_list, store=store, _index=index)

    # -- matching -------------------------------------------------------

    def _target_key(self, f: TruthTable) -> Tuple[int, Optional[NpnTransform]]:
        """``(canon_bits, t_f)`` with ``t_f.apply(f).bits == canon_bits``.

        Resolved through the attached store when possible; a store miss
        (unknown class or probe bailout) falls back to canonicalizing.
        """
        if self._store is not None:
            hit = store_lookup(self._store, f)
            if hit is not None:
                if _obs.enabled:
                    _obs.registry.counter("library.warm_resolutions").inc()
                return hit
        if _obs.enabled:
            _obs.registry.counter("library.cold_resolutions").inc()
        canon, t_f = canonical_form(f)
        return canon.bits, t_f

    def matchable_cells(self, f: TruthTable) -> List[LibraryCell]:
        """All cells npn-equivalent to ``f`` (canonical-key lookup)."""
        if not self._has_width(f.n):
            return []
        canon_bits, _ = self._target_key(f)
        return [cell for cell, _ in self._index.get((f.n, canon_bits), ())]

    def _has_width(self, n: int) -> bool:
        return any(key_n == n for key_n, _ in self._index)

    def entries_for(self, n: int, canon_bits: int) -> Sequence[Tuple[LibraryCell, NpnTransform]]:
        """The indexed ``(cell, witness)`` entries of one npn class."""
        return self._index.get((n, canon_bits), ())

    def _coset(self, n: int, canon_bits: int) -> List[CosetEntry]:
        """Every transform taking a smallest-area cell of the class onto
        the canonical representative: ``a ∘ t_cell`` for each of its
        automorphisms ``a``.  Enumerated once per class and library."""
        coset = self._cosets.get((n, canon_bits))
        if coset is None:
            entries = self._index.get((n, canon_bits), ())
            area = min((cell.area for cell, _ in entries), default=None)
            group = automorphisms(n, canon_bits) if entries else []
            coset = [
                (cell, compose_raw(a, (t.perm, t.input_neg, t.output_neg)))
                for cell, t in entries
                if cell.area == area
                for a in group
            ]
            self._cosets[(n, canon_bits)] = coset
        return coset

    def bind_with_key(
        self, f_n: int, canon_bits: int, t_f: NpnTransform
    ) -> Optional[Binding]:
        """Witness-replay bind of a target whose class key is already known.

        The mapping path: phase two of the mapper resolves every
        distinct cut function's canonical key through the classification
        engine, then binds each class here without re-deriving the key.
        ``t_f`` must canonicalize the target (``t_f.apply(f).bits ==
        canon_bits``).  Of every pin assignment ``t_f⁻¹ ∘ a ∘ t_cell``
        the result is the minimum of ``(cell.area, inverter_count, perm,
        input_neg, output_neg)``; the set does not depend on which
        witness ``t_f`` is, so neither does the binding.  Returns
        ``None`` when the library has no cell in the class.
        """
        coset = self._coset(f_n, canon_bits)
        if not coset:
            if _obs.enabled:
                _obs.registry.counter("library.bind_misses").inc()
            return None
        inv_f = t_f.invert()
        from_canon = (inv_f.perm, inv_f.input_neg, inv_f.output_neg)
        best = None
        for cell, to_canon in coset:
            perm, neg, out = compose_raw(from_canon, to_canon)
            key = (bin(neg).count("1") + out, perm, neg, out)
            if best is None or key < best[0]:
                best = (key, cell)
        (_, perm, neg, out), cell = best
        if _obs.enabled:
            _obs.registry.counter("library.bind_hits").inc()
        return Binding(cell, NpnTransform(perm, neg, out))

    def bind(self, f: TruthTable) -> Optional[Binding]:
        """Bind ``f`` to the cheapest matching cell and recover pins.

        Cheapest = smallest cell area, then fewest implied inverters
        (see :meth:`bind_with_key`).  The pin assignment is witness
        replay, so no matcher invocation happens on the bind path at all.
        """
        if not self._has_width(f.n):
            return None
        with scoped_timer("library.bind"):
            canon_bits, t_f = self._target_key(f)
            return self.bind_with_key(f.n, canon_bits, t_f)

    def bind_linear(self, f: TruthTable) -> Optional[Binding]:
        """The pre-store baseline: canonicalize the target, then run the
        full matcher against every candidate cell.  Kept as the test
        reference: it picks a cell of the same area as :meth:`bind`,
        with the matcher's pin assignment, so never fewer inverters."""
        per_class = self._index.get((f.n, canonical_form(f)[0].bits)) if self._has_width(f.n) else None
        best: Optional[Binding] = None
        for cell, _ in sorted(per_class or (), key=lambda e: e[0].area):
            transform = match(cell.function, f)
            if transform is None:  # pragma: no cover - index guarantees a match
                continue
            binding = Binding(cell, transform)
            if (
                best is None
                or (binding.cell.area, binding.inverter_count())
                < (best.cell.area, best.inverter_count())
            ):
                best = binding
        return best

    def bind_all(self, functions: Sequence[TruthTable]) -> List[Optional[Binding]]:
        """Bind a batch of functions (the mapping inner loop).

        Identical input functions are bound once: results are memoized
        by exact identity ``(n, bits)`` within the call, so the repeated
        sub-functions a mapper extracts from a real netlist pay one
        canonical-key resolution, not one per occurrence.
        """
        memo: Dict[Tuple[int, int], Optional[Binding]] = {}
        out: List[Optional[Binding]] = []
        with scoped_timer("library.bind_all"):
            for f in functions:
                key = (f.n, f.bits)
                if key not in memo:
                    memo[key] = self.bind(f)
                else:
                    if _obs.enabled:
                        _obs.registry.counter("library.bind_memo_hits").inc()
                out.append(memo[key])
        return out
