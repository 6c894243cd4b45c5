"""AIG mapping — the matcher embedded in a production-shaped flow.

Measures cut-based technology mapping over benchmark AIGs through the
two-phase flow (cut-function dedup, engine classification,
witness-replay binds).  See ``bench_netlist_flow.py`` for the
full-registry wall-clock comparison of its engine configurations.
"""

from __future__ import annotations

import time

import pytest

from _report import emit, emit_header
from repro.aig import Aig, AigMapper
from repro.benchcircuits import build_circuit

CIRCUITS = ["con1", "z4ml", "rd73", "misex1", "x2"]


def _subject(name: str) -> Aig:
    return Aig.from_netlist(build_circuit(name).to_netlist())


@pytest.mark.parametrize("name", CIRCUITS)
def test_map_circuit(benchmark, name):
    aig = _subject(name)

    def run():
        result = AigMapper().map(aig)
        assert result is not None
        return result

    result = benchmark(run)
    assert result.verify()


def test_mapping_report(benchmark):
    def run():
        rows = []
        for name in CIRCUITS + ["cm138a", "ldd"]:
            aig = _subject(name)
            mapper = AigMapper()
            t0 = time.perf_counter()
            result = mapper.map(aig)
            elapsed = time.perf_counter() - t0
            assert result is not None and result.verify()
            s = result.stats
            rows.append(
                (
                    name,
                    aig.num_ands(),
                    len(result.nodes),
                    result.area,
                    s.cuts_evaluated,
                    s.distinct_cut_functions,
                    s.cut_classes,
                    elapsed,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_header("AIG technology mapping — the two-phase flow")
    emit(
        f"{'circuit':<8} {'ANDs':>6} {'cells':>6} {'area':>8} "
        f"{'cuts':>7} {'distinct':>9} {'classes':>8} {'time':>8}"
    )
    for name, ands, cells, area, cut_count, distinct, classes, elapsed in rows:
        emit(
            f"{name:<8} {ands:>6} {cells:>6} {area:>8.1f} "
            f"{cut_count:>7} {distinct:>9} {classes:>8} {elapsed:>6.2f}s"
        )
        assert cells <= ands  # mapping must compress the AND graph


def test_engine_cache_effectiveness(benchmark):
    aig = _subject("z4ml")

    def cold_and_warm():
        mapper = AigMapper()
        cold = mapper.map(aig)
        warm = mapper.map(aig)  # engine key cache this time
        return cold, warm

    cold, warm = benchmark.pedantic(cold_and_warm, rounds=1, iterations=1)
    emit_header("engine key cache — cold vs warm mapping of z4ml")
    emit(f"{'':<18} {'cold':>8} {'warm':>8}")
    emit(
        f"{'cache hits':<18} {cold.stats.engine_cache_hits:>8} "
        f"{warm.stats.engine_cache_hits:>8}"
    )
    emit(
        f"{'canonicalizations':<18} {cold.stats.engine_canonicalizations:>8} "
        f"{warm.stats.engine_canonicalizations:>8}"
    )
    assert warm.stats.engine_cache_hits > 0
    assert warm.stats.matcher_calls == 0  # the flow never runs the matcher
    assert warm.area == cold.area  # the cache never changes the cover
