"""Blocking NDJSON client for the matching daemon.

Deliberately boring: one socket, one in-flight request at a time, plain
``dict`` in / ``dict`` out.  The concurrency in the serving story lives
on the server side (many clients, one serving queue), so the
client stays a thin correctness-first wrapper — the shape the
``grm-match client`` CLI verb, the test suite, and the load harness
(``benchmarks/bench_serve.py``, which runs many of these on worker
threads) all want.

Error replies surface as :class:`ServerError` carrying the machine
code (``overloaded``, ``bad_request``, ...) so callers can branch on
``exc.code`` without string-matching detail text.

A client constructed with ``trace_id=...`` stamps that id on every
request it sends (per-call ``trace_id`` arguments override it), which
is all it takes to follow one caller's requests through the server's
spans and flight dumps.
"""

from __future__ import annotations

import itertools
import json
import socket
from typing import Any, Dict, Optional

from repro.boolfunc.truthtable import TruthTable
from repro.serve.protocol import encode_line

__all__ = ["MatchClient", "ServerError"]


class ServerError(Exception):
    """The server answered ``ok: false``."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


def _table_payload(f: TruthTable) -> Dict[str, Any]:
    return {"n": f.n, "bits": f"0x{f.bits:x}"}


class MatchClient:
    """One blocking NDJSON connection to a :class:`MatchServer`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 30.0,
        trace_id: Optional[str] = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.trace_id = trace_id
        self._sock: Optional[socket.socket] = None
        self._recv_file = None
        self._ids = itertools.count(1)

    # -- connection ------------------------------------------------------

    def connect(self) -> "MatchClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._recv_file = self._sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._recv_file is not None:
            try:
                self._recv_file.close()
            except OSError:
                pass
            self._recv_file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "MatchClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- raw request/response --------------------------------------------

    def request_raw(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request object, return the raw response envelope."""
        self.connect()
        assert self._sock is not None and self._recv_file is not None
        if "id" not in obj:
            obj = dict(obj, id=next(self._ids))
        if self.trace_id is not None and "trace_id" not in obj:
            obj = dict(obj, trace_id=self.trace_id)
        self._sock.sendall(encode_line(obj))
        line = self._recv_file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line)
        if not isinstance(response, dict):
            raise ConnectionError(f"non-object response: {response!r}")
        return response

    def request(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request; return ``result`` or raise :class:`ServerError`."""
        response = self.request_raw(obj)
        if not response.get("ok"):
            raise ServerError(
                response.get("error", "internal"), response.get("detail", "")
            )
        return response.get("result", {})

    # -- ops -------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self.request({"op": "ping"})

    def classify(
        self, f: TruthTable, trace_id: Optional[str] = None
    ) -> Dict[str, Any]:
        req = dict(_table_payload(f), op="classify")
        if trace_id is not None:
            req["trace_id"] = trace_id
        return self.request(req)

    def match(
        self,
        a: TruthTable,
        b: TruthTable,
        witness: bool = False,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        req: Dict[str, Any] = {
            "op": "match",
            "a": _table_payload(a),
            "b": _table_payload(b),
        }
        if witness:
            req["witness"] = True
        if trace_id is not None:
            req["trace_id"] = trace_id
        return self.request(req)

    def lookup(
        self, f: TruthTable, trace_id: Optional[str] = None
    ) -> Dict[str, Any]:
        req = dict(_table_payload(f), op="lookup")
        if trace_id is not None:
            req["trace_id"] = trace_id
        return self.request(req)

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})

    def shutdown(self) -> Dict[str, Any]:
        return self.request({"op": "shutdown"})
