"""Tests for the cell library and technology-mapping layer."""

import random

import pytest

from repro.boolfunc import ops
from repro.boolfunc.transform import NpnTransform, all_transforms, automorphisms
from repro.boolfunc.truthtable import TruthTable
from repro.library import Binding, CellLibrary, LibraryCell, cells_by_name, default_cells


def test_default_cells_are_well_formed():
    cells = default_cells()
    names = [c.name for c in cells]
    assert len(set(names)) == len(names)
    for cell in cells:
        assert cell.function.n == cell.n_inputs
        assert cell.area > 0


def test_cells_by_name_lookup():
    cells = cells_by_name()
    assert cells["XOR2"].function == ops.xor_all(2)
    assert cells["MAJ3"].function == ops.majority(3)


@pytest.fixture(scope="module")
def library():
    return CellLibrary()


def test_matchable_cells_groups_npn_class(library):
    # AND2, NAND2, OR2, NOR2 are all npn-equivalent.
    hits = {c.name for c in library.matchable_cells(ops.and_all(2))}
    assert {"AND2", "NAND2", "OR2", "NOR2"} <= hits


def test_bind_prefers_cheaper_cell(library):
    binding = library.bind(~ops.and_all(2))
    assert binding is not None
    assert binding.cell.name in ("NAND2", "NOR2")  # cheaper than AND2/OR2
    assert binding.transform.apply(binding.cell.function) == ~ops.and_all(2)


def test_bind_recovers_pin_assignment(library, rng):
    for cell in default_cells():
        t = NpnTransform.random(cell.n_inputs, rng)
        target = t.apply(cell.function)
        binding = library.bind(target)
        assert binding is not None, cell.name
        assert binding.transform.apply(binding.cell.function) == target


def test_bind_unmatchable_returns_none(library):
    weird = TruthTable.from_minterms(4, [0, 3, 5, 6, 9, 11, 14])
    assert library.bind(weird) is None
    assert library.matchable_cells(TruthTable.parity(7)) == []


def test_inverter_count():
    b = Binding(
        cell=LibraryCell("X", ops.and_all(2), 1.0),
        transform=NpnTransform((1, 0), 0b11, True),
    )
    assert b.inverter_count() == 3


def test_bind_is_witness_independent_and_inverter_minimal(library, rng):
    # Any witness of the target's class (the canonical one composed with
    # an automorphism of the representative) must give the same binding,
    # and that binding is the minimum over every cell-to-target
    # transform of (area, inverters, perm, input_neg, output_neg).
    from repro.core.canonical import canonical_form

    for cell in default_cells():
        if cell.n_inputs > 3:
            continue  # brute force below walks the whole npn group
        target = NpnTransform.random(cell.n_inputs, rng).apply(cell.function)
        canon, t_f = canonical_form(target)
        bindings = {
            library.bind_with_key(
                target.n, canon.bits, NpnTransform(*a).compose(t_f)
            )
            for a in automorphisms(canon.n, canon.bits)
        }
        assert len(bindings) == 1
        (got,) = bindings
        best = min(
            (c.area, Binding(c, t).inverter_count(), t.perm, t.input_neg, t.output_neg, c.name)
            for c in default_cells()
            if c.n_inputs == target.n
            for t in all_transforms(target.n)
            if t.apply(c.function) == target
        )
        assert (
            got.cell.area,
            got.inverter_count(),
            got.transform.perm,
            got.transform.input_neg,
            got.transform.output_neg,
            got.cell.name,
        ) == best


def test_bind_all(library):
    funcs = [ops.xor_all(2), ops.and_all(3), TruthTable.parity(7)]
    bindings = library.bind_all(funcs)
    assert bindings[0] is not None and bindings[1] is not None
    assert bindings[2] is None


def test_custom_library():
    lib = CellLibrary([LibraryCell("ONLY", ops.xor_all(3), 2.0)])
    assert lib.bind(~ops.xor_all(3)) is not None
    assert lib.bind(ops.and_all(3)) is None


# ----------------------------------------------------------------------
# Persistent store integration
# ----------------------------------------------------------------------

from repro.store import ClassStore, StoreError  # noqa: E402


def test_build_store_from_store_roundtrip(tmp_path):
    lib = CellLibrary()
    store = ClassStore(tmp_path / "cells", num_shards=8)
    assert lib.build_store(store) > 0
    assert lib.build_store(store) == 0  # idempotent rebuild
    rebuilt = CellLibrary.from_store(store)
    assert {c.name for c in rebuilt.cells} == {c.name for c in lib.cells}
    assert sorted(rebuilt._index) == sorted(lib._index)


def test_store_backed_bind_matches_linear_baseline(tmp_path, rng):
    """Acceptance: witness-replay bind == full-matcher baseline, cost-wise,
    over every cell class in the library (random targets per cell)."""
    baseline = CellLibrary()
    store = ClassStore(tmp_path / "cells", num_shards=8)
    baseline.build_store(store)
    warm = CellLibrary.from_store(store)

    targets = []
    for cell in default_cells():
        for _ in range(4):
            t = NpnTransform.random(cell.n_inputs, rng)
            targets.append(t.apply(cell.function))
    targets.append(TruthTable.from_minterms(4, [0, 3, 5, 6, 9, 11, 14]))
    targets.append(TruthTable.parity(7))

    for target in targets:
        fast = warm.bind(target)
        slow = baseline.bind_linear(target)
        assert (fast is None) == (slow is None)
        if fast is None:
            continue
        assert fast.cell.area == slow.cell.area
        assert fast.inverter_count() <= slow.inverter_count()
        assert fast.transform.apply(fast.cell.function) == target
        assert slow.transform.apply(slow.cell.function) == target


def test_from_store_detects_library_drift(tmp_path):
    CellLibrary().build_store(store := ClassStore(tmp_path / "cells", num_shards=4))
    pruned = [c for c in default_cells() if c.name != "XOR2"]
    with pytest.raises(StoreError, match="rebuild the store"):
        CellLibrary.from_store(store, cells=pruned)
    swapped = [
        LibraryCell("XOR2", ops.and_all(2), c.area) if c.name == "XOR2" else c
        for c in default_cells()
    ]
    with pytest.raises(StoreError, match="rebuild the store"):
        CellLibrary.from_store(store, cells=swapped)


def test_bind_all_memoizes_duplicate_functions(monkeypatch):
    lib = CellLibrary()
    resolved = []
    orig = CellLibrary._target_key

    def counting(self, f):
        resolved.append((f.n, f.bits))
        return orig(self, f)

    monkeypatch.setattr(CellLibrary, "_target_key", counting)
    f = ops.xor_all(2)
    g = ~f
    bindings = lib.bind_all([f, f, g, f, g, g])
    assert len(resolved) == 2  # one key resolution per distinct function
    assert all(b is not None for b in bindings)
    assert bindings[0] is bindings[1] is bindings[3]
