"""Tests for the observability layer (repro.obs).

Covers the metrics registry (instrument semantics, snapshot/merge
exactness, histogram bucket edges), the span tracer (nesting, levels,
JSONL round-trip into the tree renderer), the profiling hooks, the
disabled-mode no-op guarantees, the thread safety of the engine's LRU
cache counters, and the matcher's labeled prune events on a known
npn-inequivalent pair.
"""

import json
import threading

import pytest

from repro.boolfunc.truthtable import TruthTable
from repro.core.matcher import MatchOptions, match, match_with_stats
from repro.engine.cache import CanonicalKeyCache
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import DEFAULT_TIME_BUCKETS, MetricsRegistry
from repro.obs.profile import scoped_timer, timed
from repro.obs.render import (
    render_match_explanation,
    render_metrics,
    render_profile,
    render_trace_tree,
)
from repro.obs.trace import (
    JsonlSink,
    NULL_SPAN,
    NULL_TRACER,
    RingBufferSink,
    TRACE_DETAIL,
    TRACE_OFF,
    TRACE_SPANS,
    Tracer,
    load_trace,
)


@pytest.fixture(autouse=True)
def _obs_disabled():
    """Every test starts and ends with observability off."""
    obs_runtime.disable()
    yield
    obs_runtime.disable()


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_identity_and_exactness(self):
        reg = MetricsRegistry()
        c = reg.counter("x.calls")
        c.inc()
        c.inc(4)
        assert reg.counter("x.calls") is c
        assert reg.counter_value("x.calls") == 5
        assert isinstance(reg.counter_value("x.calls"), int)

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("x").inc(-1)

    def test_labeled_children_are_distinct(self):
        reg = MetricsRegistry()
        reg.counter("prunes", reason="projection").inc(3)
        reg.counter("prunes", reason="symmetry").inc(1)
        assert reg.counter_value("prunes", reason="projection") == 3
        assert reg.counter_value("prunes", reason="symmetry") == 1
        assert reg.counter_value("prunes") == 0
        flat = reg.flat("prunes")
        assert flat == {
            "prunes{reason=projection}": 3,
            "prunes{reason=symmetry}": 1,
        }

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(7)
        g.inc(2)
        g.dec(4)
        assert g.value == 5

    def test_histogram_bucket_edges(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", edges=(1, 10, 100))
        # v <= edge lands in the first matching bucket; the boundary
        # value belongs to its own edge's bucket, not the next one.
        for v in (0, 1):
            h.observe(v)
        h.observe(2)
        h.observe(10)
        h.observe(11)
        h.observe(100)
        h.observe(101)  # overflow
        assert h.counts == [2, 2, 2, 1]
        assert h.count == 7
        assert h.sum == 225

    def test_histogram_edges_must_increase(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad", edges=(1, 1, 2))
        with pytest.raises(ValueError):
            reg.histogram("bad2", edges=())

    def test_histogram_edge_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("lat", edges=(1, 2))
        with pytest.raises(ValueError):
            reg.histogram("lat", edges=(1, 2, 3))

    def test_snapshot_is_json_able(self):
        reg = MetricsRegistry()
        reg.counter("a", k="v").inc()
        reg.histogram("h").observe(0.01)
        payload = json.loads(json.dumps(reg.snapshot()))
        assert payload["kind"] == "metrics-snapshot"
        assert payload["counters"][0] == {"name": "a", "labels": {"k": "v"}, "value": 1}

    def test_dump_and_load_snapshot(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        path = tmp_path / "m.json"
        reg.dump_json(path)
        loaded = MetricsRegistry.load_snapshot(path)
        assert loaded["counters"][0]["value"] == 2
        with pytest.raises(ValueError):
            bad = tmp_path / "bad.json"
            bad.write_text("{}")
            MetricsRegistry.load_snapshot(bad)

    def test_clear(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.clear()
        assert len(reg) == 0
        assert reg.counter_value("a") == 0

    def test_counter_thread_exactness(self):
        reg = MetricsRegistry()
        c = reg.counter("hot")

        def worker():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40_000


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------

class TestTracer:
    def test_nesting_and_parent_links(self):
        ring = RingBufferSink()
        tracer = Tracer([ring])
        with tracer.span("outer", n=4) as outer:
            with tracer.span("inner") as inner:
                inner.event("prune", reason="projection")
            outer.set("matched", True)
        records = ring.records()
        # Children finish (and emit) first.
        assert [r["name"] for r in records] == ["inner", "outer"]
        inner_rec, outer_rec = records
        assert inner_rec["parent"] == outer_rec["id"]
        assert inner_rec["depth"] == 1
        assert outer_rec["parent"] is None
        assert outer_rec["attrs"] == {"n": 4, "matched": True}
        assert inner_rec["events"][0]["name"] == "prune"
        assert inner_rec["events"][0]["attrs"] == {"reason": "projection"}

    def test_event_attaches_to_current_span(self):
        ring = RingBufferSink()
        tracer = Tracer([ring])
        with tracer.span("s"):
            tracer.event("e", stage="x")
        (rec,) = ring.records()
        assert rec["events"][0]["attrs"] == {"stage": "x"}

    def test_standalone_event(self):
        ring = RingBufferSink()
        tracer = Tracer([ring])
        tracer.event("lonely", k=1)
        (rec,) = ring.records()
        assert rec["kind"] == "event"
        assert rec["name"] == "lonely"

    def test_level_spans_drops_detail_events(self):
        ring = RingBufferSink()
        tracer = Tracer([ring], level=TRACE_SPANS)
        with tracer.span("s") as sp:
            sp.event("detail")
            tracer.event("detail2")
        (rec,) = ring.records()
        assert rec["events"] == []

    def test_no_sinks_means_off(self):
        tracer = Tracer([])
        assert tracer.level == TRACE_OFF
        assert not tracer.enabled
        assert tracer.span("s") is NULL_SPAN

    def test_null_tracer_is_noop(self):
        span = NULL_TRACER.span("anything", k=1)
        assert span is NULL_SPAN
        with span as sp:
            sp.set("k", 2)
            sp.event("e")
        assert not sp.recording
        NULL_TRACER.event("e")  # must not raise

    def test_ring_buffer_capacity(self):
        ring = RingBufferSink(capacity=3)
        tracer = Tracer([ring])
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert len(ring) == 3
        assert [r["name"] for r in ring.records()] == ["s7", "s8", "s9"]

    def test_jsonl_roundtrip_to_tree(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer([JsonlSink(path)])
        with tracer.span("match", n=3):
            with tracer.span("np_match") as sp:
                for _ in range(3):
                    sp.event("prune", reason="projection", var=1)
        tracer.close()
        records = load_trace(path)
        assert len(records) == 2
        tree = render_trace_tree(records)
        lines = tree.splitlines()
        assert lines[0].startswith("match")
        assert "np_match" in tree
        # The child is indented under the root, prunes rolled up.
        assert "  np_match" in tree
        assert "prune[projection] ×3" in tree

    def test_exception_marks_span(self):
        ring = RingBufferSink()
        tracer = Tracer([ring])
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        (rec,) = ring.records()
        assert rec["attrs"]["error"] == "RuntimeError"


# ----------------------------------------------------------------------
# Profiling hooks
# ----------------------------------------------------------------------

class TestProfileHooks:
    def test_scoped_timer_records(self):
        reg = MetricsRegistry()
        with scoped_timer("sec", registry=reg):
            pass
        assert reg.counter_value("sec.calls") == 1
        hist = reg.histogram("sec.seconds", edges=DEFAULT_TIME_BUCKETS)
        assert hist.count == 1

    def test_scoped_timer_disabled_is_noop(self):
        assert not obs_runtime.enabled
        with scoped_timer("sec"):
            pass
        assert obs_runtime.registry.counter_value("sec.calls") == 0

    def test_timed_decorator(self):
        calls = []

        @timed("t.fn")
        def fn(x):
            calls.append(x)
            return x * 2

        assert fn(3) == 6  # disabled: plain call
        with obs_runtime.capture() as (reg, _ring):
            assert fn(4) == 8
            assert reg.counter_value("t.fn.calls") == 1
        assert calls == [3, 4]

    def test_render_profile(self):
        reg = MetricsRegistry()
        with scoped_timer("a.b", registry=reg):
            pass
        table = render_profile(reg)
        assert "a.b" in table
        assert render_profile(MetricsRegistry()).startswith("(no timed sections")


# ----------------------------------------------------------------------
# Runtime gate
# ----------------------------------------------------------------------

class TestRuntime:
    def test_default_state_is_off(self):
        assert not obs_runtime.enabled
        assert obs_runtime.tracer is NULL_TRACER

    def test_capture_restores_state(self):
        before = (obs_runtime.enabled, obs_runtime.registry, obs_runtime.tracer)
        with obs_runtime.capture() as (reg, ring):
            assert obs_runtime.enabled
            assert obs_runtime.registry is reg
            obs_runtime.registry.counter("x").inc()
            obs_runtime.tracer.event("e")
        assert (obs_runtime.enabled, obs_runtime.registry, obs_runtime.tracer) == before
        assert len(ring) == 1

    def test_enable_disable(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        obs_runtime.enable(trace=Tracer([sink]), metrics=MetricsRegistry())
        assert obs_runtime.enabled
        assert obs_runtime.tracer.enabled
        obs_runtime.disable()
        assert not obs_runtime.enabled
        assert obs_runtime.tracer is NULL_TRACER


# ----------------------------------------------------------------------
# Instrumented hot paths
# ----------------------------------------------------------------------

def _mismatch_pair():
    """Same n, same weight, npn-inequivalent (so the phase-weight gate
    passes and the GRM signature gate must do the rejecting)."""
    f = TruthTable(3, 0b00010111)  # maj-ish, weight 4
    g = TruthTable(3, 0b01101001)  # xor3, weight 4
    return f, g


# The tier dispatcher settles _mismatch_pair before any GRM form is
# built; exercising the GRM signature gate therefore needs the paper's
# pure pipeline (dispatch off, classic signature families only).
_PURE_GRM = MatchOptions(
    use_tier_dispatch=False,
    signature_families=("weights", "vic", "inc", "primes"),
)


class TestMatcherInstrumentation:
    def test_prune_events_on_inequivalent_pair(self):
        f, g = _mismatch_pair()
        with obs_runtime.capture() as (_reg, ring):
            assert match(f, g, _PURE_GRM) is None
        events = []
        for rec in ring.records():
            events.extend(rec.get("events", ()))
            if rec.get("kind") == "event":
                events.append(rec)
        prunes = [e for e in events if e["name"] == "prune"]
        assert prunes, "inequivalent pair must produce labeled prune events"
        sig_prunes = [
            e for e in prunes if e["attrs"].get("reason") == "function_signature"
        ]
        assert sig_prunes, "signature gate must emit per-family prune events"
        for ev in sig_prunes:
            assert ev["attrs"].get("family") in {"weights", "vic", "inc", "primes"}

    def test_tier_dispatch_prune_event_and_counter(self):
        f, g = _mismatch_pair()
        with obs_runtime.capture() as (reg, ring):
            outcome = match_with_stats(f, g)
        assert outcome.transform is None
        tier = outcome.stats.differentiated_by
        assert tier in {"weights", "influence", "sensitivity"}
        events = []
        for rec in ring.records():
            events.extend(rec.get("events", ()))
            if rec.get("kind") == "event":
                events.append(rec)
        tier_prunes = [
            e
            for e in events
            if e["name"] == "prune"
            and e["attrs"].get("reason") == "signature_tier"
        ]
        assert tier_prunes and tier_prunes[0]["attrs"].get("family") == tier
        assert reg.counter_value("matcher.tier_prune", family=tier) == 1

    def test_match_metrics_flushed(self):
        f, g = _mismatch_pair()
        with obs_runtime.capture() as (reg, _ring):
            match(f, g)
            match(f, f)
        assert reg.counter_value("matcher.calls") == 2
        assert reg.counter_value("matcher.matches") == 1

    def test_match_explanation_renders(self):
        f, g = _mismatch_pair()
        with obs_runtime.capture() as (_reg, ring):
            match(f, g, _PURE_GRM)
        text = render_match_explanation(ring.records())
        assert "prune summary:" in text
        assert "function_signature" in text

    def test_match_explanation_shows_tier_prunes(self):
        f, g = _mismatch_pair()
        with obs_runtime.capture() as (_reg, ring):
            match(f, g)
        text = render_match_explanation(ring.records())
        assert "prune summary:" in text
        assert "signature_tier" in text

    def test_disabled_match_untouched(self):
        # No tracer, no registry writes, identical result.
        f, g = _mismatch_pair()
        assert not obs_runtime.enabled
        assert match(f, g) is None
        assert match(f, f) is not None
        assert len(obs_runtime.registry.flat("matcher")) == 0


class TestEngineInstrumentation:
    def test_engine_metrics_merge_into_global_registry(self):
        from repro.engine import classify_batch

        funcs = [TruthTable.random(3, __import__("random").Random(s)) for s in range(6)]
        with obs_runtime.capture() as (reg, ring):
            result = classify_batch(funcs)
        assert reg.counter_value("engine.functions") == 6
        assert result.stats.functions == 6
        span_names = [r["name"] for r in ring.records() if r.get("kind") == "span"]
        assert "engine.classify" in span_names

    def test_engine_stats_identical_disabled_vs_enabled(self):
        from repro.engine import classify_batch

        funcs = [TruthTable.random(4, __import__("random").Random(s)) for s in range(8)]
        cold = classify_batch(funcs)
        with obs_runtime.capture():
            warm = classify_batch(funcs)
        assert cold.members == warm.members
        assert cold.stats.canonicalizations == warm.stats.canonicalizations
        assert cold.stats.cache_hits == warm.stats.cache_hits


class TestCacheThreadSafety:
    def test_concurrent_counters_exact(self):
        cache = CanonicalKeyCache(maxsize=1 << 10)
        witness = ((0, 1), 0, False)
        for i in range(64):
            cache.put((4, i), (i, witness))
        per_thread = 2_000
        threads = 8

        def worker(tid):
            for i in range(per_thread):
                cache.get((4, i % 64))       # always hits
                cache.get((4, 1_000 + tid))  # always misses

        ts = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert cache.hits == threads * per_thread
        assert cache.misses == threads * per_thread

    def test_concurrent_put_respects_bound(self):
        cache = CanonicalKeyCache(maxsize=128)
        witness = ((0,), 0, False)

        def worker(tid):
            for i in range(1_000):
                cache.put((tid, i), (i, witness))

        ts = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert len(cache) == 128
        assert cache.evictions == 4 * 1_000 - 128


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------

class TestRenderers:
    def test_render_metrics_tables(self):
        reg = MetricsRegistry()
        reg.counter("a.calls", worker="1").inc(3)
        reg.gauge("g").set(2)
        reg.histogram("h", edges=(1, 10)).observe(5)
        text = render_metrics(reg.snapshot())
        assert "a.calls{worker=1}" in text
        assert "counters:" in text
        assert "histograms:" in text
        assert "<=10: 1" in text

    def test_render_empty(self):
        assert render_trace_tree([]) == "(empty trace)"
        assert "(empty snapshot)" in render_metrics({})
