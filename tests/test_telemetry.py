"""Serving-telemetry tests: windows, exposition, trace context, flight.

The unit halves (sliding window, quantiles, Prometheus rendering,
flight recorder) run against injectable clocks; the integration halves
boot a real :class:`MatchServer` on an ephemeral port and assert the
wire-level claims — trace ids on request spans, batch span links,
``GET /metrics`` exposition, flight dumps on planted slow requests —
against actual sockets and files.
"""

from __future__ import annotations

import json
import random
import urllib.request

import pytest

from repro.boolfunc.truthtable import TruthTable
from repro.obs import runtime as obs_runtime
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry, quantile_from_counts
from repro.obs.render import render_prometheus, render_top
from repro.obs.trace import RingBufferSink, TRACE_SPANS, Tracer, load_trace
from repro.obs.window import SlidingWindow
from repro.serve import MatchServer, ServeConfig, ServerThread
from repro.serve.client import MatchClient
from repro.serve.protocol import ProtocolError, decode_request


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def serve(config: ServeConfig, **kwargs) -> ServerThread:
    return ServerThread(MatchServer(config=config, **kwargs)).start()


def http_get(port: int, target: str):
    return urllib.request.urlopen(f"http://127.0.0.1:{port}{target}", timeout=10)


# ----------------------------------------------------------------------
# Sliding window
# ----------------------------------------------------------------------

class TestSlidingWindow:
    def test_counter_value_and_rate(self):
        clock = FakeClock()
        w = SlidingWindow(window_seconds=60.0, buckets=6, clock=clock)
        c = w.counter("reqs")
        clock.advance(30.0)
        for _ in range(30):
            c.inc()
        assert c.value == 30
        # Coverage is elapsed time (30s), not the full window.
        assert c.rate() == pytest.approx(1.0)

    def test_observations_expire_after_the_window(self):
        clock = FakeClock()
        w = SlidingWindow(window_seconds=10.0, buckets=5, clock=clock)
        c = w.counter("reqs")
        c.inc(7)
        clock.advance(5.0)
        assert c.value == 7  # still inside the window
        clock.advance(6.0)  # 11s: the epoch-0 bucket has fallen out
        assert c.value == 0

    def test_partial_expiry_keeps_recent_buckets(self):
        clock = FakeClock()
        w = SlidingWindow(window_seconds=10.0, buckets=5, clock=clock)
        c = w.counter("reqs")
        c.inc(3)  # epoch 0
        clock.advance(8.0)
        c.inc(5)  # epoch 4
        clock.advance(4.0)  # epoch 6: epoch 0 expired, epoch 4 live
        assert c.value == 5

    def test_histogram_merges_exactly_and_expires(self):
        clock = FakeClock()
        w = SlidingWindow(window_seconds=10.0, buckets=5, clock=clock)
        h = w.histogram("lat", edges=(0.001, 0.01, 0.1))
        h.observe(0.0005)
        h.observe(0.05)
        clock.advance(4.0)
        h.observe(0.02)
        counts, total, count = h.merged()
        assert counts == [1, 0, 2, 0] and count == 3
        assert total == pytest.approx(0.0705)
        clock.advance(7.0)  # first bucket out, second still live
        counts, _, count = h.merged()
        assert counts == [0, 0, 1, 0] and count == 1

    def test_windowed_quantile_tracks_current_traffic(self):
        clock = FakeClock()
        w = SlidingWindow(window_seconds=10.0, buckets=5, clock=clock)
        h = w.histogram("lat", edges=(0.001, 0.01, 0.1, 1.0))
        for _ in range(100):
            h.observe(0.5)  # slow warmup era
        clock.advance(11.0)  # warmup leaves the window entirely
        for _ in range(10):
            h.observe(0.002)
        assert h.quantile(0.99) == pytest.approx(0.01)

    def test_histogram_edge_mismatch_rejected(self):
        w = SlidingWindow(window_seconds=10.0, buckets=5, clock=FakeClock())
        w.histogram("lat", edges=(1, 2))
        with pytest.raises(ValueError):
            w.histogram("lat", edges=(1, 2, 3))

    def test_labels_address_distinct_instruments(self):
        w = SlidingWindow(window_seconds=10.0, buckets=5, clock=FakeClock())
        w.counter("reqs", op="match").inc(2)
        w.counter("reqs", op="classify").inc(5)
        assert w.counter("reqs", op="match").value == 2
        assert w.counter("reqs", op="classify").value == 5

    def test_snapshot_is_json_able(self):
        clock = FakeClock()
        w = SlidingWindow(window_seconds=10.0, buckets=5, clock=clock)
        w.counter("reqs").inc()
        w.histogram("lat", edges=(1.0,)).observe(0.5)
        snap = json.loads(json.dumps(w.snapshot()))
        assert snap["kind"] == "window-snapshot"
        assert snap["counters"][0]["value"] == 1
        assert snap["histograms"][0]["count"] == 1


# ----------------------------------------------------------------------
# Histogram quantiles (shared math)
# ----------------------------------------------------------------------

class TestHistogramQuantile:
    def test_quantile_is_an_upper_edge_bound(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", edges=(1.0, 2.0, 4.0))
        for v in (0.5, 0.6, 1.5, 3.0):
            h.observe(v)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(0.99) == 4.0

    def test_overflow_bucket_returns_last_edge(self):
        # Every observation above the last edge: the estimate degrades
        # to the last edge (a lower bound), never an IndexError.
        reg = MetricsRegistry()
        h = reg.histogram("lat", edges=(1.0, 2.0))
        for _ in range(5):
            h.observe(100.0)
        assert h.counts[-1] == 5  # all in the overflow bucket
        assert h.quantile(0.5) == 2.0
        assert h.quantile(1.0) == 2.0

    def test_empty_histogram_quantile_is_zero(self):
        reg = MetricsRegistry()
        assert reg.histogram("lat", edges=(1.0,)).quantile(0.99) == 0.0

    def test_module_function_matches_method(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", edges=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 9.0):
            h.observe(v)
        for q in (0.1, 0.5, 0.9, 0.99):
            assert h.quantile(q) == quantile_from_counts(
                h.edges, h.counts, h.count, q
            )


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------

class TestPrometheusExposition:
    def test_counters_gauges_and_type_lines(self):
        reg = MetricsRegistry()
        reg.counter("serve.requests", op="match").inc(3)
        reg.gauge("serve.queue_depth").set(7)
        text = render_prometheus(reg.snapshot())
        lines = text.splitlines()
        assert "# TYPE grm_serve_requests counter" in lines
        assert 'grm_serve_requests{op="match"} 3' in lines
        assert "# TYPE grm_serve_queue_depth gauge" in lines
        assert "grm_serve_queue_depth 7" in lines
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative_and_end_with_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", edges=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 9.0):
            h.observe(v)
        lines = render_prometheus(reg.snapshot()).splitlines()
        buckets = [l for l in lines if l.startswith("grm_lat_bucket")]
        values = [int(l.rsplit(" ", 1)[1]) for l in buckets]
        assert values == sorted(values), "bucket series must be cumulative"
        assert buckets[-1].startswith('grm_lat_bucket{le="+Inf"}')
        assert values[-1] == 4  # +Inf bucket equals the total count
        assert "grm_lat_sum 14.0" in lines
        assert "grm_lat_count 4" in lines

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c", path='a"b\\c\nd').inc()
        text = render_prometheus(reg.snapshot())
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_metric_names_are_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("serve.match-tier.2x").inc()
        text = render_prometheus(reg.snapshot())
        assert "grm_serve_match_tier_2x 1" in text

    def test_live_metrics_endpoint(self):
        rng = random.Random(11)
        with serve(ServeConfig(port=0)) as st:
            with MatchClient(port=st.port) as client:
                for _ in range(8):
                    client.classify(TruthTable(3, rng.randrange(256)))
            resp = http_get(st.port, "/metrics")
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode()
        lines = text.splitlines()
        assert 'grm_serve_requests{op="classify"} 8' in lines
        assert any(l.startswith("# TYPE grm_serve_request_seconds histogram")
                   for l in lines)
        assert any(l.startswith("grm_serve_window_rps ") for l in lines)
        # Every sample line parses as "name{labels} value".
        for line in lines:
            if line.startswith("#") or not line:
                continue
            name, _, value = line.rpartition(" ")
            assert name and float(value) >= 0.0


# ----------------------------------------------------------------------
# Trace-context propagation
# ----------------------------------------------------------------------

class TestTraceContext:
    def test_trace_id_validation(self):
        ok = decode_request(b'{"op": "ping", "trace_id": "abc"}')
        assert ok["trace_id"] == "abc"
        with pytest.raises(ProtocolError):
            decode_request(b'{"op": "ping", "trace_id": 7}')
        with pytest.raises(ProtocolError):
            decode_request(b'{"op": "ping", "trace_id": ""}')
        with pytest.raises(ProtocolError):
            decode_request(
                json.dumps({"op": "ping", "trace_id": "x" * 4096}).encode()
            )

    def test_trace_id_reaches_request_span_and_batch_links(self):
        rng = random.Random(5)
        server = MatchServer(config=ServeConfig(port=0))
        with ServerThread(server) as st:
            with MatchClient(port=st.port, trace_id="wire-77") as client:
                a = TruthTable(3, rng.randrange(256))
                b = TruthTable(3, rng.randrange(256))
                client.match(a, b)
            spans = server.flight.spans()
        req = [s for s in spans if s["name"] == "serve.request"
               and s["attrs"].get("op") == "match"]
        assert req and req[0]["trace_id"] == "wire-77"
        assert "differentiated_by" in req[0]["attrs"]
        batches = [s for s in spans if s["name"] == "serve.batch"]
        assert batches, "the match's tables must have run through a batch"
        linked = [link for s in batches for link in s.get("links", ())]
        assert {"span": req[0]["id"], "trace_id": "wire-77"} in linked

    def test_request_without_trace_id_has_none(self):
        server = MatchServer(config=ServeConfig(port=0))
        with ServerThread(server) as st:
            with MatchClient(port=st.port) as client:
                client.ping()
            spans = server.flight.spans()
        req = [s for s in spans if s["name"] == "serve.request"]
        assert req and "trace_id" not in req[0]

    def test_forwarding_sink_mirrors_serve_spans_into_capture(self):
        rng = random.Random(9)
        with obs_runtime.capture(level=TRACE_SPANS) as (_registry, ring):
            server = MatchServer(config=ServeConfig(port=0))
            with ServerThread(server) as st:
                with MatchClient(port=st.port) as client:
                    client.classify(TruthTable(3, rng.randrange(256)))
            names = {r["name"] for r in ring.records() if r.get("kind") == "span"}
        assert "serve.request" in names and "serve.batch" in names

    def test_concurrent_spans_do_not_nest(self):
        """Root spans never adopt each other across the serving queue."""
        rng = random.Random(13)
        server = MatchServer(config=ServeConfig(port=0))
        with ServerThread(server) as st:
            clients = [MatchClient(port=st.port).connect() for _ in range(4)]
            try:
                import threading

                def hit(c: MatchClient) -> None:
                    c.classify(TruthTable(4, rng.randrange(1 << 16)))

                threads = [threading.Thread(target=hit, args=(c,)) for c in clients]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            finally:
                for c in clients:
                    c.close()
            spans = server.flight.spans()
        assert all(s["parent"] is None for s in spans), (
            "serve spans are roots; a non-null parent means the "
            "thread-local stack leaked across concurrent requests"
        )


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------

class TestFlightRecorder:
    def test_rings_are_bounded(self):
        fr = FlightRecorder(capacity=4, envelope_capacity=2, clock=FakeClock())
        for i in range(10):
            fr.sink.emit({"kind": "span", "id": i})
            fr.record_envelope({"op": "ping", "i": i})
        assert len(fr.spans()) == 4
        assert len(fr.envelopes()) == 2
        assert fr.envelopes()[-1]["i"] == 9

    def test_dump_rate_limiting_and_force(self, tmp_path):
        clock = FakeClock()
        fr = FlightRecorder(directory=tmp_path, min_interval=5.0, clock=clock)
        assert fr.dump("first") is not None
        assert fr.dump("suppressed") is None  # inside min_interval
        assert fr.dump("forced", force=True) is not None
        clock.advance(6.0)
        assert fr.dump("second") is not None
        assert fr.dump_count == 3

    def test_dump_file_replays_via_load_trace(self, tmp_path):
        fr = FlightRecorder(directory=tmp_path, clock=FakeClock())
        fr.sink.emit({"kind": "span", "id": 1, "name": "serve.request"})
        fr.record_envelope({"op": "match", "trace_id": "t1"})
        path = fr.dump("test-reason")
        records = load_trace(path)
        header = records[0]
        assert header["kind"] == "flight" and header["reason"] == "test-reason"
        assert header["spans"] == 1 and header["envelopes"] == 1
        kinds = [r["kind"] for r in records]
        assert kinds == ["flight", "envelope", "span"]

    def test_slow_request_triggers_dump(self, tmp_path):
        rng = random.Random(21)
        config = ServeConfig(
            port=0, flight_dir=str(tmp_path), slow_request_ms=0.0001
        )
        server = MatchServer(config=config)
        with ServerThread(server) as st:
            with MatchClient(port=st.port) as client:
                client.classify(TruthTable(3, rng.randrange(256)))
        dumps = sorted(tmp_path.glob("flight-*-slow-request.jsonl"))
        assert dumps, "a planted slow request must dump the flight ring"
        records = load_trace(dumps[0])
        assert records[0]["kind"] == "flight"
        assert records[0]["reason"] == "slow-request"
        assert any(r.get("kind") == "envelope" and r.get("op") == "classify"
                   for r in records)

    def test_no_flight_dir_means_no_auto_dumps(self, tmp_path):
        rng = random.Random(22)
        server = MatchServer(config=ServeConfig(port=0, slow_request_ms=0.0001))
        with ServerThread(server) as st:
            with MatchClient(port=st.port) as client:
                client.classify(TruthTable(3, rng.randrange(256)))
            assert server.flight.dump_count == 0

    def test_forced_dump_lands_in_tempdir_without_directory(self):
        fr = FlightRecorder(clock=FakeClock())
        fr.sink.emit({"kind": "span", "id": 1})
        path = fr.dump("sigusr2", force=True)
        try:
            assert path is not None and path.exists()
        finally:
            path.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Windowed stats + the top view
# ----------------------------------------------------------------------

class TestWindowedStats:
    def test_stats_expose_window_and_lifetime_keys(self):
        rng = random.Random(31)
        with serve(ServeConfig(port=0)) as st:
            with MatchClient(port=st.port) as client:
                for _ in range(5):
                    client.classify(TruthTable(3, rng.randrange(256)))
                stats = client.stats()
        window = stats["window"]
        assert window["seconds"] == 60.0
        assert window["requests"] == 5
        assert window["rps"] > 0.0
        row = stats["latency"]["classify"]
        for key in ("window_count", "p50_ms_est", "p99_ms_est",
                    "lifetime_count", "lifetime_p50_ms_est",
                    "lifetime_p99_ms_est"):
            assert key in row
        assert row["window_count"] == row["lifetime_count"] == 5
        assert stats["flight"]["envelopes"] >= 5

    def test_match_tier_counters_accumulate(self):
        rng = random.Random(41)
        with serve(ServeConfig(port=0)) as st:
            with MatchClient(port=st.port) as client:
                f = TruthTable(3, rng.randrange(256))
                client.match(f, f)  # equivalent
                g = TruthTable(3, f.bits ^ 1)  # weight differs
                client.match(f, g)
                stats = client.stats()
        counters = stats["counters"]
        assert counters.get("serve.match_tier{tier=equivalent}", 0) >= 1
        tier_total = sum(v for k, v in counters.items()
                         if k.startswith("serve.match_tier{"))
        assert tier_total == 2

    def test_render_top_frame(self):
        rng = random.Random(51)
        with serve(ServeConfig(port=0)) as st:
            with MatchClient(port=st.port) as client:
                f = TruthTable(3, rng.randrange(256))
                client.match(f, TruthTable(3, rng.randrange(256)))
                stats = client.stats()
        frame = render_top(stats)
        assert "req/s" in frame
        assert "match" in frame
        assert "match differentiation" in frame
