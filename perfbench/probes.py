"""Which public entry points of ``repro`` each layer is timed at, and
how a traced run's spans and counters become per-layer metrics.

Each ``install_*`` function wraps, on a :class:`layers.Layers`, the
calls one flow makes into the program's modules.  Functions are wrapped
where the caller looks them up (``repro.aig.mapper.enumerate_cuts``,
not only ``repro.aig.cuts.enumerate_cuts``), since a module that did
``from x import f`` holds its own reference.  The outermost call of
each flow (``parse_blif``, ``AigMapper.map``, ``differentiate_circuit``
...) is timed by the workload itself through :meth:`Layers.call`.
"""

from __future__ import annotations

from typing import Dict

from layers import Layers

ENGINE_STAT_FIELDS = (
    "cache_hits",
    "cache_misses",
    "membership_probes",
    "membership_hits",
    "buckets",
    "singleton_buckets",
    "orderings_explored",
    "kernel_batched",
    "canonicalizations",
)


def _engine_counts(layers: Layers):
    def on_result(result) -> None:
        stats = result.stats
        for name in ENGINE_STAT_FIELDS:
            layers.count("engine." + name, getattr(stats, name))

    return on_result


CATCH_ALL = ("aig.cover", "engine.classify", "core.differentiate")
"""Outer spans whose self time holds whatever their unwrapped callees do;
the layer table's coverage leaves it out."""


def _engine_stages(result, children: Dict[str, float]) -> Dict[str, float]:
    """Split ``engine.classify`` self time by the engine's own stage
    timers (``EngineStats``): pre-key bucketing and bucket classification
    (cache, membership probes), each less the wrapped calls inside it."""
    stats = result.stats
    inside_prekey = ("kernels.coarse_prekeys", "kernels.influence_vectors", "store.warm_records")
    return {
        "engine.prekey": stats.prekey_seconds - sum(children.get(k, 0.0) for k in inside_prekey),
        "engine.buckets": stats.classify_seconds - children.get("core.canonical_form", 0.0),
    }


def cover_stages(result, children: Dict[str, float]) -> Dict[str, float]:
    """Split ``AigMapper.map`` self time by ``MappingStats.bind_seconds``:
    the class-to-cell binding loop, less the wrapped calls inside it and
    the ``engine.classify`` span time outside the engine's own timer."""
    stats = result.stats
    inside_bind = (
        children.get("engine.resolve_witness", 0.0)
        + children.get("library.bind_with_key", 0.0)
        + children.get("engine.classify", 0.0)
        - stats.classify_seconds
    )
    return {"aig.bind": stats.bind_seconds - inside_bind}


def install_engine(layers: Layers) -> None:
    """Engine, kernels, canonicalizer, witness replay and cell binding."""
    from repro import kernels
    from repro.core import canonical
    from repro.engine import classifier
    from repro.engine.classifier import ClassificationEngine
    from repro.library import techmap
    from repro.library.techmap import CellLibrary

    layers.wrap(
        ClassificationEngine, "classify", "engine.classify",
        on_result=_engine_counts(layers), split=_engine_stages,
    )
    layers.wrap(ClassificationEngine, "resolve_witness", "engine.resolve_witness")
    layers.wrap(kernels, "coarse_prekeys", "kernels.coarse_prekeys")
    layers.wrap(kernels, "influence_vectors", "kernels.influence_vectors")
    for module in (classifier, techmap, canonical):
        layers.wrap(module, "canonical_form", "core.canonical_form")
    layers.wrap(CellLibrary, "bind_with_key", "library.bind_with_key")


def install_map(layers: Layers) -> None:
    """The netlist flow: cut enumeration and the cut-function catalog."""
    from repro.aig import mapper
    from repro.aig.graph import Aig

    install_engine(layers)
    layers.wrap(mapper, "enumerate_cuts", "aig.enumerate_cuts")
    layers.wrap(mapper, "catalog_cut_functions", "aig.catalog")
    # verify() re-evaluates cones through the same method; only the
    # catalog's calls are the cut-function layer.
    layers.wrap(Aig, "cut_function", "aig.cut_function", under=("aig.catalog",))


def install_table1(layers: Layers) -> None:
    """The paper's differentiation stages."""
    from repro.core import differentiate, sensitivity, signatures, symmetry
    from repro.grm.forms import Grm
    from repro.utils.partition import Partition

    layers.wrap(differentiate, "decide_polarity_primary", "core.decide_polarity")
    layers.wrap(signatures, "variable_signatures", "core.variable_signatures")
    layers.wrap(signatures, "weight_pair", "core.weight_pair")
    layers.wrap(sensitivity, "influence_vector", "core.influence_vector")
    layers.wrap(sensitivity, "sensitivity_columns", "core.sensitivity_columns")
    layers.wrap(symmetry, "has_any_symmetry", "core.symmetry")
    layers.wrap(Grm, "from_truthtable", "grm.from_truthtable")
    layers.wrap(Grm, "incidence_matrix", "grm.incidence_matrix")
    layers.wrap(Partition, "refine", "utils.partition_refine")


def install_serve(layers: Layers) -> None:
    """Inside the daemon: wire codec, batcher, engine and store."""
    from repro.serve import server
    from repro.serve.batcher import MicroBatcher
    from repro.store.store import ClassStore

    install_engine(layers)
    layers.wrap(server, "decode_request", "serve.decode")
    layers.wrap(server, "encode_line", "serve.encode")
    layers.wrap(MicroBatcher, "submit", "serve.submit", keep=True)
    layers.wrap(ClassStore, "flush", "store.flush")
    layers.wrap(ClassStore, "add_class", "store.add_class")
    layers.wrap(ClassStore, "warm_records", "store.warm_records")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def coverage(snapshot: Dict, wall: float) -> Dict[str, float]:
    """Shares of ``wall`` held by the named layers and by the catch-all
    self time of the outer spans.  Self times partition the time inside
    spans, so work no layer names shows up as neither."""
    own = snapshot["self"]
    catch_all = sum(own.get(name, 0.0) for name in CATCH_ALL)
    return {
        "trace.coverage_frac": (sum(own.values()) - catch_all) / wall,
        "trace.catchall_frac": catch_all / wall,
    }


def layer_metrics(snapshot: Dict) -> Dict[str, float]:
    """Per-layer metrics from a :meth:`Layers.snapshot`: ``<span>_s`` is
    the span's self time, ``<span>_calls`` its call count, and the
    ``engine.*`` ratios come from the engine's own ``EngineStats``."""
    out: Dict[str, float] = {}
    for name, seconds in snapshot["self"].items():
        out[name + "_s"] = seconds
        out[name + "_calls"] = snapshot["calls"][name]
    counts = snapshot["counts"]

    def count(name: str) -> float:
        return counts.get("engine." + name, 0)

    out["engine.cache_hit_frac"] = _ratio(
        count("cache_hits"), count("cache_hits") + count("cache_misses")
    )
    out["engine.membership_hit_frac"] = _ratio(
        count("membership_hits"), count("membership_probes")
    )
    out["engine.singleton_bucket_frac"] = _ratio(
        count("singleton_buckets"), count("buckets")
    )
    out["engine.orderings_explored"] = count("orderings_explored")
    out["engine.canonicalizations"] = count("canonicalizations")
    out["kernels.batched_functions"] = count("kernel_batched")
    return out
