"""The asyncio matching daemon.

``MatchServer`` fronts one :class:`~repro.engine.ClassificationEngine`
(and optionally a persistent :class:`~repro.store.ClassStore`) behind a
TCP listener speaking newline-delimited JSON, with a minimal HTTP/1.1
shim on the *same port*: the first bytes of a connection decide the
dialect (an HTTP request line switches to one-shot HTTP handling;
anything else is an NDJSON session).

Request lifecycle::

    read line -> decode/validate -> serving queue -> one
    kernel-batched classify() on the engine thread -> reply

``lookup`` skips the queue: it reads the store on the engine thread.

Load-shedding is explicit at two layers: a request line longer than
``max_line_bytes`` is answered ``payload_too_large`` and the connection
closed (the framing is unrecoverable), and a submit that would push the
batcher past ``max_pending`` tables is answered ``overloaded``
immediately — queues never grow without bound.

Store write-back is batched, not per request: the engine buffers newly
discovered classes in the store (``auto_flush=False``) and a background
task flushes every ``flush_interval`` seconds on the single executor
thread that runs the engine, so disk writes never race classification;
batches queued meanwhile wait for the flush (one fsync per dirty
shard).  A failed flush is counted (``serve.store_flush_errors``),
reported on stderr and retried at the next interval; the records stay
buffered until one succeeds.

Graceful shutdown (SIGTERM/SIGINT, the ``shutdown`` op, or
:meth:`MatchServer.shutdown`): stop accepting, answer everything already
admitted (drain the batcher, let handlers write their replies), flush
the store, flush observability sinks (:func:`repro.obs.runtime.flush`),
then close the remaining connections and return from
:meth:`wait_stopped`.  A failed final flush is reported like any other
and does not stop the shutdown.

Telemetry: the server owns an always-on serving tracer whose sinks are
the flight recorder's ring plus a
:class:`~repro.obs.runtime.ForwardingSink` (so ``--trace`` files and
test captures see the same spans).  Each request runs under a root
``serve.request`` span carrying the client's wire ``trace_id``; the
batcher's ``serve.batch`` spans link back to every coalesced request.
Rolling rate/latency comes from a :class:`~repro.obs.window.SlidingWindow`
(the ``stats`` op's p50/p99 reflect the last window, with lifetime
values kept under ``lifetime_*`` keys), ``GET /metrics`` exposes the
cumulative registry in Prometheus text format, and the flight recorder
dumps its rings on slow requests, ``overloaded``/``internal`` replies
(both only when ``flight_dir`` is configured), or SIGUSR2 (always).

``ServerThread`` runs the whole thing on a private event loop in a
daemon thread — the harness used by the tests and by
``benchmarks/bench_serve.py`` to serve and drive load from one process.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional

from repro.core.matcher import tier_differentiator
from repro.engine.classifier import ClassificationEngine
from repro.obs import runtime as _obs
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.render import render_prometheus
from repro.obs.trace import TRACE_SPANS, Tracer
from repro.obs.window import SlidingWindow
from repro.serve import protocol
from repro.serve.batcher import MicroBatcher, OverloadedError
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_INTERNAL,
    ERR_OVERLOADED,
    ERR_PAYLOAD_TOO_LARGE,
    ERR_SHUTTING_DOWN,
    PROTOCOL_VERSION,
    ProtocolError,
    class_payload,
    decode_request,
    encode_line,
    error_response,
    ok_response,
    parse_table,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.store.store import ClassStore

__all__ = ["ServeConfig", "MatchServer", "ServerThread", "LATENCY_BUCKETS"]

LATENCY_BUCKETS = (
    0.0005, 0.001, 0.002, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0, 5.0,
)

_HTTP_VERBS = (b"GET ", b"POST ", b"PUT ", b"HEAD ", b"DELETE ", b"OPTIONS ")


@dataclass
class ServeConfig:
    """Tuning knobs of one serving process."""

    host: str = "127.0.0.1"
    port: int = 0
    """0 binds an ephemeral port (read it back from ``MatchServer.port``)."""

    max_batch: int = 128
    """Most tables per engine call; 1 turns coalescing off."""

    max_pending: int = 1024
    """Bound on admitted-but-unresolved tables (backpressure threshold)."""

    max_line_bytes: int = protocol.MAX_LINE_BYTES
    """Request-line bound; longer lines are rejected and the conn closed."""

    flush_interval: float = 2.0
    """Background store write-back period, seconds."""

    flight_dir: Optional[str] = None
    """Directory for automatic flight-recorder dumps.  ``None`` disables
    the slow-request/overloaded/internal triggers; SIGUSR2 still dumps
    (to the system temp dir when unset)."""

    slow_request_ms: float = 250.0
    """A request at or above this latency triggers a flight dump (when
    ``flight_dir`` is set); 0 disables the slow trigger."""


class MatchServer:
    """One serving process: listener, batcher, background write-back."""

    def __init__(
        self,
        engine: Optional[ClassificationEngine] = None,
        store: Optional["ClassStore"] = None,
        config: Optional[ServeConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config = config or ServeConfig()
        if engine is None:
            engine = ClassificationEngine(store=store, auto_flush=False)
        elif store is not None and engine.store is None:
            engine.store = store
        # Serving requires deferred write-back: flushes belong to the
        # background task, not to every batch.
        engine.auto_flush = False
        self.engine = engine
        self.store = store if store is not None else engine.store
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.window = SlidingWindow()
        self.flight = FlightRecorder(directory=config.flight_dir)
        # Always-on serving tracer: request/batch spans must reach the
        # flight ring even with global observability off; the forwarding
        # sink mirrors them into --trace files / test captures when the
        # global tracer is live.
        self.tracer = Tracer(
            [self.flight.sink, _obs.ForwardingSink()], level=TRACE_SPANS
        )
        self.batcher = MicroBatcher(
            engine,
            max_batch=self.config.max_batch,
            max_pending=self.config.max_pending,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._flush_task: Optional[asyncio.Task] = None
        self._conn_tasks: set = set()
        self._active_requests = 0
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._shutdown_started = False
        self._started_at = 0.0

    # -- lifecycle -------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not listening")
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self.config.host,
            port=self.config.port,
            limit=self.config.max_line_bytes,
        )
        self._started_at = time.monotonic()
        if self.store is not None and self.config.flush_interval > 0:
            self._flush_task = asyncio.get_running_loop().create_task(
                self._flush_loop()
            )

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful shutdown; SIGUSR2 → flight dump."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig,
                    lambda s=sig: loop.create_task(
                        self.shutdown(f"signal {signal.Signals(s).name}")
                    ),
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # platform without loop signal support
        usr2 = getattr(signal, "SIGUSR2", None)
        if usr2 is not None:
            try:
                loop.add_signal_handler(
                    usr2, lambda: self.flight.dump("sigusr2", force=True)
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

    async def wait_stopped(self) -> None:
        assert self._stopped is not None, "start() first"
        await self._stopped.wait()

    async def shutdown(self, reason: str = "") -> None:
        """Drain-and-flush: answer admitted work, persist, then stop."""
        if self._shutdown_started:
            return
        self._shutdown_started = True
        self._draining = True
        self.metrics.gauge("serve.draining").set(1)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Everything admitted gets an answer...
        await self.batcher.drain()
        # ...and its handler a chance to write it out.
        deadline = time.monotonic() + 10.0
        while self._active_requests and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        if self._flush_task is not None:
            self._flush_task.cancel()
            try:
                await self._flush_task
            except asyncio.CancelledError:
                pass
        if self.store is not None:
            await self._flush_store()
        _obs.flush()  # spans recorded just before SIGTERM reach disk
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        self.batcher.close()
        if self._stopped is not None:
            self._stopped.set()

    # -- background write-back -------------------------------------------

    async def _flush_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.flush_interval)
            if self.store.dirty_count():
                await self._flush_store()

    async def _flush_store(self) -> None:
        """One store flush on the engine thread.  A failure is counted
        and reported, never raised: the records stay dirty for the next
        flush."""
        try:
            flushed = await asyncio.get_running_loop().run_in_executor(
                self.batcher.executor, self.store.flush
            )
        except Exception as exc:
            self.metrics.counter("serve.store_flush_errors").inc()
            print(
                f"grm-match serve: store flush failed: {type(exc).__name__}: {exc}",
                file=sys.stderr,
                flush=True,
            )
            return
        if flushed:
            self.metrics.counter("serve.store_flushes").inc()
            self.metrics.counter("serve.store_flush_records").inc(flushed)

    # -- connections -----------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self.metrics.counter("serve.connections").inc()
        try:
            try:
                first = await reader.readline()
            except ValueError:
                await self._reject_oversized(writer)
                return
            if not first:
                return
            if first.startswith(_HTTP_VERBS):
                await self._serve_http(first, reader, writer)
                return
            await self._serve_ndjson(first, reader, writer)
        except asyncio.CancelledError:
            pass  # shutdown cancelled the session; just close the socket
        except (ConnectionResetError, BrokenPipeError):
            pass  # peer vanished mid-reply
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (asyncio.CancelledError, Exception):
                pass

    async def _reject_oversized(self, writer: asyncio.StreamWriter) -> None:
        self.metrics.counter("serve.responses", code=ERR_PAYLOAD_TOO_LARGE).inc()
        writer.write(
            encode_line(
                error_response(
                    None,
                    ERR_PAYLOAD_TOO_LARGE,
                    f"request line exceeds {self.config.max_line_bytes} bytes",
                )
            )
        )
        await writer.drain()

    async def _serve_ndjson(
        self,
        first_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        line = first_line
        while True:
            if line.strip():
                response = await self._handle_line(line)
                writer.write(encode_line(response))
                await writer.drain()
            try:
                line = await reader.readline()
            except ValueError:
                await self._reject_oversized(writer)
                return
            if not line:
                return

    async def _serve_http(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One-shot HTTP/1.1: POST a JSON request, or GET the admin views."""
        try:
            verb, target, _version = request_line.decode("latin-1").split(None, 2)
        except ValueError:
            await self._write_http(writer, error_response(None, ERR_BAD_REQUEST,
                                                          "malformed request line"))
            return
        headers: Dict[str, str] = {}
        while True:
            try:
                raw = await reader.readline()
            except ValueError:
                await self._write_http(
                    writer,
                    error_response(None, ERR_PAYLOAD_TOO_LARGE, "header too long"),
                )
                return
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if verb == "GET":
            if target in ("/healthz", "/ping"):
                response = ok_response(None, self._ping_payload())
            elif target == "/stats":
                response = ok_response(None, self.stats_payload())
            elif target == "/metrics":
                await self._write_http_text(
                    writer, render_prometheus(self.metrics_snapshot())
                )
                return
            else:
                response = error_response(
                    None, ERR_BAD_REQUEST, f"unknown GET target {target!r}"
                )
            await self._write_http(writer, response)
            return
        if verb != "POST":
            await self._write_http(
                writer, error_response(None, ERR_BAD_REQUEST, f"unsupported verb {verb}")
            )
            return
        length_text = headers.get("content-length", "")
        if not length_text.isdecimal():
            await self._write_http(
                writer,
                error_response(
                    None, ERR_BAD_REQUEST, "a non-negative Content-Length is required"
                ),
            )
            return
        length = int(length_text)
        if length > self.config.max_line_bytes:
            await self._write_http(
                writer,
                error_response(
                    None,
                    ERR_PAYLOAD_TOO_LARGE,
                    f"body exceeds {self.config.max_line_bytes} bytes",
                ),
            )
            return
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            await self._write_http(
                writer, error_response(None, ERR_BAD_REQUEST, "truncated body")
            )
            return
        await self._write_http(writer, await self._handle_line(body))

    async def _write_http(
        self, writer: asyncio.StreamWriter, response: Mapping[str, Any]
    ) -> None:
        if response.get("ok"):
            status = "200 OK"
        else:
            status = protocol.HTTP_STATUS_OF.get(
                response.get("error", ERR_INTERNAL), "500 Internal Server Error"
            )
        body = encode_line(response)
        writer.write(
            (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()

    async def _write_http_text(
        self, writer: asyncio.StreamWriter, text: str
    ) -> None:
        """Plain-text 200 (the /metrics exposition body)."""
        body = text.encode("utf-8")
        writer.write(
            (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()

    # -- request handling ------------------------------------------------

    async def _handle_line(self, line: bytes) -> Dict[str, Any]:
        t0 = time.perf_counter()
        rid = None
        op = "invalid"
        trace_id = None
        req_span = None
        self._active_requests += 1
        try:
            try:
                request = decode_request(line)
                rid = request.get("id")
                op = request["op"]
                trace_id = request.get("trace_id")
                # Root span: it stays open across awaits, where stack
                # nesting would adopt concurrent requests as children.
                req_span = self.tracer.span(
                    "serve.request", root=True, trace_id=trace_id, op=op
                )
                with req_span as span:
                    result = await self._dispatch(op, request, span)
                    span.set("ok", True)
                response = ok_response(rid, result)
                code = "ok"
            except ProtocolError as exc:
                response = error_response(rid, exc.code, exc.detail)
                code = exc.code
            except OverloadedError as exc:
                response = error_response(rid, ERR_OVERLOADED, str(exc))
                code = ERR_OVERLOADED
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # a bug must answer, not kill the conn
                response = error_response(
                    rid, ERR_INTERNAL, f"{type(exc).__name__}: {exc}"
                )
                code = ERR_INTERNAL
            elapsed = time.perf_counter() - t0
            self.metrics.counter("serve.requests", op=op).inc()
            self.metrics.counter("serve.responses", code=code).inc()
            self.metrics.histogram(
                "serve.request_seconds", edges=LATENCY_BUCKETS, op=op
            ).observe(elapsed)
            self.window.counter("serve.requests").inc()
            self.window.histogram(
                "serve.request_seconds", edges=LATENCY_BUCKETS, op=op
            ).observe(elapsed)
            envelope: Dict[str, Any] = {
                "op": op,
                "code": code,
                "ms": round(elapsed * 1e3, 3),
            }
            if rid is not None:
                envelope["id"] = rid
            if trace_id is not None:
                envelope["trace_id"] = trace_id
            if req_span is not None and req_span.recording:
                envelope["span"] = req_span.span_id
            self.flight.record_envelope(envelope)
            self._maybe_flight_dump(code, elapsed * 1e3)
            return response
        finally:
            self._active_requests -= 1

    def _maybe_flight_dump(self, code: str, elapsed_ms: float) -> None:
        """Automatic flight triggers (rate-limited, need a flight_dir)."""
        if self.config.flight_dir is None:
            return
        if code in (ERR_OVERLOADED, ERR_INTERNAL):
            self.flight.dump(code)
        elif (
            self.config.slow_request_ms > 0
            and elapsed_ms >= self.config.slow_request_ms
        ):
            self.flight.dump("slow-request")

    async def _dispatch(
        self, op: str, request: Mapping[str, Any], span=None
    ) -> Dict[str, Any]:
        if op == "ping":
            return self._ping_payload()
        if op == "stats":
            return self.stats_payload()
        if op == "shutdown":
            asyncio.get_running_loop().create_task(self.shutdown("shutdown op"))
            return {"draining": True}
        if self._draining:
            raise ProtocolError(ERR_SHUTTING_DOWN, "server is draining")
        if op == "classify":
            table = parse_table(request, "request")
            keys = await self.batcher.submit([table], span)
            return class_payload(keys[0])
        if op == "match":
            return await self._dispatch_match(request, span)
        if op == "lookup":
            return await self._dispatch_lookup(request)
        raise ProtocolError(ERR_BAD_REQUEST, f"unhandled op {op!r}")  # unreachable

    def _note_match_tier(self, tier: str, span) -> None:
        """Count a match's differentiating tier and stamp its span."""
        self.metrics.counter("serve.match_tier", tier=tier).inc()
        self.window.counter("serve.match_tier", tier=tier).inc()
        if span is not None and span.recording:
            span.set("differentiated_by", tier)

    async def _dispatch_match(
        self, request: Mapping[str, Any], span=None
    ) -> Dict[str, Any]:
        a = parse_table(request.get("a"), "a")
        b = parse_table(request.get("b"), "b")
        if a.n != b.n:
            self._note_match_tier("support", span)
            return {
                "equivalent": False,
                "differentiated_by": "support",
                "reason": f"support widths differ ({a.n} vs {b.n})",
            }
        key_a, key_b = await self.batcher.submit([a, b], span)
        equivalent = key_a == key_b
        if equivalent:
            tier = "equivalent"
        else:
            # Prekey tiers are O(n·2^n) bit counting: keep them on the
            # engine thread.  No tier separating the pair means only the
            # GRM canonical form told the classes apart.
            tier = await asyncio.get_running_loop().run_in_executor(
                self.batcher.executor, tier_differentiator, a, b
            ) or "grm"
        self._note_match_tier(tier, span)
        result: Dict[str, Any] = {
            "equivalent": equivalent,
            "differentiated_by": tier,
            "a_class": class_payload(key_a),
            "b_class": class_payload(key_b),
        }
        if result["equivalent"] and request.get("witness"):
            if key_a.quarantined:
                result["witness"] = None
                result["witness_note"] = "quarantined class: no canonical witness"
            else:
                loop = asyncio.get_running_loop()
                ta = await loop.run_in_executor(
                    self.batcher.executor, self.engine.resolve_witness, a, key_a.key
                )
                tb = await loop.run_in_executor(
                    self.batcher.executor, self.engine.resolve_witness, b, key_b.key
                )
                t_ab = tb.invert().compose(ta)  # a -> canon -> b
                if t_ab.apply(a).bits != b.bits:  # pragma: no cover - invariant
                    raise ProtocolError(ERR_INTERNAL, "witness composition failed")
                result["witness"] = {
                    "perm": list(t_ab.perm),
                    "input_neg": t_ab.input_neg,
                    "output_neg": t_ab.output_neg,
                    "describe": t_ab.describe(),
                }
        return result

    async def _dispatch_lookup(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        if self.store is None:
            raise ProtocolError(ERR_BAD_REQUEST, "server has no store attached")
        from repro.engine.classifier import store_lookup

        table = parse_table(request, "request")
        resolved = await asyncio.get_running_loop().run_in_executor(
            self.batcher.executor, store_lookup, self.store, table
        )
        if resolved is None:
            return {"hit": False}
        canon_bits, transform = resolved
        return {
            "hit": True,
            "class": f"0x{canon_bits:x}",
            "witness": {
                "perm": list(transform.perm),
                "input_neg": transform.input_neg,
                "output_neg": transform.output_neg,
            },
        }

    # -- stats -----------------------------------------------------------

    def _ping_payload(self) -> Dict[str, Any]:
        return {
            "pong": True,
            "version": PROTOCOL_VERSION,
            "draining": self._draining,
        }

    def stats_payload(self) -> Dict[str, Any]:
        """Queue depth, batch fill, coalesce ratio, latency percentiles.

        Per-op ``p50_ms_est``/``p99_ms_est`` come from the sliding
        window (what is happening *now*); cumulative-since-boot values
        stay available under ``lifetime_*`` keys.
        """
        batches = self.metrics.counter_value("serve.batcher.batches")
        tables = self.metrics.counter_value("serve.batcher.tables")
        latency: Dict[str, Dict[str, float]] = {}
        for (name, labels_key), hist in list(self.metrics._histograms.items()):
            if name != "serve.request_seconds":
                continue
            op = dict(labels_key).get("op", "")
            win = self.window.histogram(
                "serve.request_seconds", edges=LATENCY_BUCKETS, op=op
            )
            latency[op] = {
                "window_count": win.count,
                "mean_ms": win.mean * 1e3,
                "p50_ms_est": win.quantile(0.50) * 1e3,
                "p99_ms_est": win.quantile(0.99) * 1e3,
                "lifetime_count": hist.count,
                "lifetime_mean_ms": hist.mean * 1e3,
                "lifetime_p50_ms_est": hist.quantile(0.50) * 1e3,
                "lifetime_p99_ms_est": hist.quantile(0.99) * 1e3,
            }
        requests_window = self.window.counter("serve.requests")
        payload: Dict[str, Any] = {
            "uptime_seconds": time.monotonic() - self._started_at,
            "draining": self._draining,
            "pending": self.batcher.pending,
            "queued": self.batcher.queued,
            "window": {
                "seconds": self.window.window_seconds,
                "coverage_seconds": self.window.coverage_seconds,
                "requests": requests_window.value,
                "rps": requests_window.rate(),
            },
            "batching": {
                "max_batch": self.config.max_batch,
                "batches": batches,
                "tables": tables,
                "mean_fill": (tables / batches) if batches else 0.0,
            },
            "counters": self.metrics.flat("serve."),
            "latency": latency,
            "flight": {
                "spans": len(self.flight.sink),
                "envelopes": len(self.flight.envelopes()),
                "dumps": self.flight.dump_count,
            },
        }
        if self.store is not None:
            payload["store"] = {
                "dirty": self.store.dirty_count(),
                "flushes": self.metrics.counter_value("serve.store_flushes"),
            }
        return payload

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The registry snapshot plus computed gauges, for ``/metrics``."""
        snap = self.metrics.snapshot()
        requests_window = self.window.counter("serve.requests")
        snap["gauges"].extend(
            [
                {
                    "name": "serve.uptime_seconds",
                    "labels": {},
                    "value": time.monotonic() - self._started_at,
                },
                {
                    "name": "serve.pending",
                    "labels": {},
                    "value": self.batcher.pending,
                },
                {
                    "name": "serve.window_rps",
                    "labels": {},
                    "value": requests_window.rate(),
                },
                {
                    "name": "serve.flight_dumps",
                    "labels": {},
                    "value": self.flight.dump_count,
                },
            ]
        )
        return snap


# ----------------------------------------------------------------------
# In-process harness
# ----------------------------------------------------------------------

class ServerThread:
    """Run a :class:`MatchServer` on a private loop in a daemon thread.

    The harness the tests and the load benchmark use: ``start()`` blocks
    until the listener is bound (``port`` is then valid), ``stop()``
    performs the same graceful drain-and-flush shutdown SIGTERM would.
    """

    def __init__(self, server: MatchServer):
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.server.port

    def start(self, timeout: float = 10.0) -> "ServerThread":
        if self._thread is not None:  # idempotent: `with serve(...)` double-starts
            return self
        self._thread = threading.Thread(
            target=self._run, name="grm-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server thread failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as exc:
                self._startup_error = exc
                return
            finally:
                self._ready.set()
            loop.run_until_complete(self.server.wait_stopped())
        finally:
            try:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            finally:
                loop.close()

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown and join (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            return
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown("ServerThread.stop"), self._loop
        )
        try:
            future.result(timeout)
        except Exception:
            pass
        self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
