"""Matching-as-a-service: the long-running classification daemon.

This package turns the batch :class:`~repro.engine.ClassificationEngine`
and the sharded :class:`~repro.store.ClassStore` into a serving story:

* :mod:`repro.serve.protocol` — the wire format: newline-delimited JSON
  requests/responses (one object per line over TCP), error codes, and
  payload validation shared by the TCP core and the HTTP/1.1 shim.
* :mod:`repro.serve.batcher` — the serving queue.  ``classify`` and
  ``match`` tables that arrive while the engine thread is busy leave
  together as its next kernel-batched ``classify()`` call (up to
  ``max_batch`` tables); an idle engine takes a table at once.  The
  queue is bounded and overflow is an explicit ``overloaded`` reply,
  never unbounded growth.  (``lookup`` reads the store directly.)
* :mod:`repro.serve.server` — the asyncio daemon: NDJSON-over-TCP with
  an HTTP/1.1 shim on the same port (``GET /metrics`` serves Prometheus
  text exposition), per-request root spans carrying the client's wire
  ``trace_id``, sliding-window rate/latency in the ``stats`` op, an
  always-on flight recorder (slow-request/overloaded/SIGUSR2 dumps),
  periodic store write-back on the engine thread (a failed flush is
  counted and retried), and graceful drain-and-flush shutdown on
  SIGTERM.
* :mod:`repro.serve.client` — a small blocking client (used by the
  ``grm-match client`` CLI verb, the tests, and the seeded load
  harness ``benchmarks/bench_serve.py``).

Dependency-free by construction: stdlib ``asyncio`` only.
"""

from repro.serve.batcher import MicroBatcher, OverloadedError
from repro.serve.client import MatchClient, ServerError
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_INTERNAL,
    ERR_OVERLOADED,
    ERR_PAYLOAD_TOO_LARGE,
    ERR_SHUTTING_DOWN,
    PROTOCOL_VERSION,
    ProtocolError,
)
from repro.serve.server import MatchServer, ServeConfig, ServerThread

__all__ = [
    "MicroBatcher",
    "OverloadedError",
    "MatchClient",
    "ServerError",
    "MatchServer",
    "ServeConfig",
    "ServerThread",
    "ProtocolError",
    "PROTOCOL_VERSION",
    "ERR_BAD_REQUEST",
    "ERR_INTERNAL",
    "ERR_OVERLOADED",
    "ERR_PAYLOAD_TOO_LARGE",
    "ERR_SHUTTING_DOWN",
]
