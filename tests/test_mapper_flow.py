"""End-to-end tests of the two-phase whole-netlist mapping flow.

Covers the batched catalog → engine-classify → witness-replay path:
map + verify round trips over benchmark circuits, cover identity
across the pre-key path and store warmth, store warm-start, and the
per-class accounting surface.
"""

import sys

import pytest

from repro import kernels
from repro.aig import Aig, AigMapper, catalog_cut_functions
from repro.benchcircuits import build_circuit, write_blif
from repro.benchcircuits.suite import EXTRA_CIRCUITS, TABLE1_CIRCUITS
from repro.engine import ClassificationEngine, EngineOptions
from repro.library import CellLibrary
from repro.obs import render_map_accounting
from repro.store import ClassStore

SEEDED_SUBSET = ["rd53", "xor5", "maj", "con1", "z4ml", "rd73"]
REGISTRY = [spec.name for spec in TABLE1_CIRCUITS + EXTRA_CIRCUITS]


def _aig(name: str) -> Aig:
    return Aig.from_netlist(build_circuit(name).to_netlist())


# ----------------------------------------------------------------------
# Map + verify round trips
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", SEEDED_SUBSET)
def test_seeded_subset_maps_and_verifies(name):
    aig = _aig(name)
    result = AigMapper().map(aig)
    assert result is not None
    assert result.verify(max_inputs=14)
    stats = result.stats
    assert stats.distinct_cut_functions <= stats.cuts_evaluated
    assert stats.bound_classes + stats.unbound_classes + (
        stats.quarantined_classes
    ) >= stats.bound_classes  # counters are consistent
    assert stats.cut_classes == len(result.class_accounts)


@pytest.mark.slow
@pytest.mark.parametrize("name", REGISTRY)
def test_full_registry_maps_and_verifies(name):
    aig = _aig(name)
    mapper = AigMapper()
    result = mapper.map(aig)
    assert result is not None
    assert result.verify(max_inputs=21)  # cm150a's mux cone is 21 wide


# ----------------------------------------------------------------------
# The cover is a pure function of (AIG, library)
# ----------------------------------------------------------------------

COVER_IDENTITY_SUBSET = ["rd73", "z4ml", "con1"]


def _cover(result):
    """Area, per-node bindings and mapped BLIF of one mapping."""
    assert result is not None
    bindings = {
        node: (mapped.cut.leaves, mapped.binding.cell.name, mapped.binding.transform)
        for node, mapped in result.nodes.items()
    }
    return result.area, bindings, write_blif(result.to_netlist())


@pytest.mark.parametrize(
    "name",
    COVER_IDENTITY_SUBSET
    + [
        pytest.param(name, marks=pytest.mark.slow)
        for name in REGISTRY
        if name not in COVER_IDENTITY_SUBSET
    ],
)
def test_scalar_and_batch_kernels_emit_identical_covers(name, tmp_path, monkeypatch):
    # The pre-key path, store warmth and what the engine classified
    # before must not change a single binding.  Comparing bindings, not
    # only the BLIF, matters: the BLIF holds each node's local function,
    # so two bindings of one function with different inverters emit the
    # same netlist.
    lal = _aig("lal")
    seeded = ClassStore(str(tmp_path / "lal"), create=True)
    AigMapper(store=seeded).map(lal)
    seeded.flush()
    after_lal = AigMapper()
    after_lal.map(lal)
    aig = _aig(name)
    covers = {}
    with monkeypatch.context() as m:
        # A batch floor out of reach sends every pre-key group through
        # the scalar loop.
        m.setattr(kernels, "KERNEL_MIN_BATCH", sys.maxsize)
        covers["scalar"] = _cover(AigMapper().map(aig))
    mappers = {
        "auto": AigMapper(),
        "warm from lal": AigMapper(store=ClassStore(str(tmp_path / "lal"))),
        "after lal": after_lal,
    }
    covers.update((arm, _cover(mapper.map(aig))) for arm, mapper in mappers.items())
    area, bindings, blif = covers["scalar"]
    for arm, (arm_area, arm_bindings, arm_blif) in covers.items():
        assert arm_area == area, arm
        assert arm_bindings == bindings, arm
        assert arm_blif == blif, arm  # byte-identical


# ----------------------------------------------------------------------
# Store warm-start
# ----------------------------------------------------------------------

def test_store_warm_start_hits_and_matches_cold_cover(tmp_path):
    aig = _aig("rd73")
    store_dir = str(tmp_path / "mapstore")

    cold_store = ClassStore(store_dir, create=True)
    cold = AigMapper(store=cold_store).map(aig)
    assert cold is not None
    cold_store.flush()
    assert cold.stats.engine_store_hits == 0

    warm_store = ClassStore(store_dir)
    warm = AigMapper(store=warm_store).map(aig)
    assert warm is not None
    assert warm.stats.engine_store_hits > 0
    assert warm.stats.engine_canonicalizations < cold.stats.engine_canonicalizations
    assert warm.area == cold.area
    assert warm.verify(max_inputs=14)


def test_shared_engine_reuses_cache_across_circuits():
    engine = ClassificationEngine(EngineOptions())
    mapper = AigMapper(engine=engine)
    first = mapper.map(_aig("rd53"))
    second = mapper.map(_aig("rd53"))
    assert first is not None and second is not None
    assert second.stats.engine_cache_hits > 0
    assert second.area == first.area


# ----------------------------------------------------------------------
# Catalog and accounting surfaces
# ----------------------------------------------------------------------

def test_catalog_dedup_accounting():
    aig = _aig("z4ml")
    catalog = catalog_cut_functions(aig)
    assert catalog.cut_functions_evaluated > catalog.distinct_functions > 0
    assert 0.0 < catalog.dedup_rate() < 1.0
    # Every non-trivial cut of every AND node is cataloged.
    assert set(catalog.node_cuts) == set(aig.and_nodes())
    for entries in catalog.node_cuts.values():
        for _, key in entries:
            assert key in catalog.distinct_by_width[key[0]]
    # Occurrences are counted in the same pass, one count per cut.
    assert sum(catalog.occurrences.values()) == catalog.cut_functions_evaluated
    assert len(catalog.occurrences) == catalog.distinct_functions


def test_class_accounting_render():
    result = AigMapper().map(_aig("rd73"))
    assert result is not None
    text = render_map_accounting(result)
    assert "classes" in text and "witness replays" in text
    chosen_area = sum(a.area for a in result.class_accounts)
    # Account areas cover exactly the cell cover (output inverters are
    # accounted at the result level, not per class).
    from repro.aig.mapper import INVERTER_AREA
    from repro.aig import lit_compl

    output_inv = INVERTER_AREA * sum(
        1 for _, lit in result.aig.outputs if lit_compl(lit)
    )
    assert chosen_area == pytest.approx(result.area - output_inv)


def test_mapper_engine_and_options_are_exclusive():
    with pytest.raises(ValueError):
        AigMapper(
            engine=ClassificationEngine(EngineOptions()),
            engine_options=EngineOptions(),
        )
