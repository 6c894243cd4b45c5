"""The serving wire format.

One JSON object per ``\\n``-terminated line, both directions (NDJSON).
A request names an ``op`` and carries its operands; a response echoes
the request's ``id`` (if any) and is either::

    {"id": ..., "ok": true,  "result": {...}}
    {"id": ..., "ok": false, "error": "<code>", "detail": "..."}

Ops:

``ping``
    Liveness; result carries the protocol version.
``classify``
    ``{"n": int, "bits": int|"0x..."}`` → the function's npn class key.
``match``
    ``{"a": {n, bits}, "b": {n, bits}[, "witness": true]}`` → whether
    the two functions are npn-equivalent (same engine class), plus the
    mapping transform when ``witness`` is requested.
``lookup``
    ``{"n", "bits"}`` → warm store resolution only (no
    canonicalization); ``hit`` false when the store cannot resolve it.
``stats``
    Server counters: queue depth, batch fill, coalesce ratio, latency
    histograms, store dirty/flush counts.
``shutdown``
    Ask the server to drain and exit (the graceful SIGTERM path, but
    reachable over the wire for harnesses).

Error codes are machine-readable strings (`ERR_*` below); ``overloaded``
is the 429 analogue the bounded request queue replies with under
saturation, and the HTTP shim maps the codes onto real status lines.

Truth-table bits travel as either a JSON integer or a ``"0x..."``
string.  Hex works at every width.  A JSON integer works only up to the
interpreter's int-to-str digit limit (4,300 digits by default in
CPython, see ``sys.get_int_max_str_digits``): a random ``n = 14`` table
is about 4,900 digits long, and such a line is ``bad_request``.
Responses always use hex strings.

Any request may additionally carry a ``trace_id`` — an opaque string
(at most ``MAX_TRACE_ID_CHARS`` characters) naming the caller's trace
context.  The server stamps it on the request's span and on every span
causally linked to the request (the batch span links back to all
coalesced requests), so one distributed trace id is followable from a
client, through the serving queue, to the engine call that served it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.boolfunc.truthtable import TruthTable

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "MAX_SUPPORT",
    "MAX_TRACE_ID_CHARS",
    "OPS",
    "ERR_BAD_REQUEST",
    "ERR_PAYLOAD_TOO_LARGE",
    "ERR_OVERLOADED",
    "ERR_SHUTTING_DOWN",
    "ERR_INTERNAL",
    "ProtocolError",
    "parse_table",
    "decode_request",
    "encode_line",
    "ok_response",
    "error_response",
    "class_payload",
    "HTTP_STATUS_OF",
]

PROTOCOL_VERSION = 1

MAX_LINE_BYTES = 1 << 20
"""Default request-line bound; a longer line is ``payload_too_large``."""

MAX_SUPPORT = 16
"""Largest accepted support width (2**16-row tables; the engine's
practical ceiling — reject absurd widths before allocating anything)."""

MAX_TRACE_ID_CHARS = 128
"""Bound on the caller-supplied ``trace_id`` (it is echoed into span
records; an unbounded id would let a client bloat the flight ring)."""

OPS = frozenset({"ping", "classify", "match", "lookup", "stats", "shutdown"})

ERR_BAD_REQUEST = "bad_request"
ERR_PAYLOAD_TOO_LARGE = "payload_too_large"
ERR_OVERLOADED = "overloaded"
ERR_SHUTTING_DOWN = "shutting_down"
ERR_INTERNAL = "internal"

HTTP_STATUS_OF = {
    ERR_BAD_REQUEST: "400 Bad Request",
    ERR_PAYLOAD_TOO_LARGE: "413 Payload Too Large",
    ERR_OVERLOADED: "429 Too Many Requests",
    ERR_SHUTTING_DOWN: "503 Service Unavailable",
    ERR_INTERNAL: "500 Internal Server Error",
}
"""Status line the HTTP/1.1 shim uses for each error code (ok → 200)."""


class ProtocolError(Exception):
    """A request the server understands well enough to reject."""

    def __init__(self, code: str, detail: str):
        super().__init__(detail)
        self.code = code
        self.detail = detail


def _parse_bits(value: Any, n: int) -> int:
    if isinstance(value, bool):
        raise ProtocolError(ERR_BAD_REQUEST, "bits must be an int or hex string")
    if isinstance(value, str):
        try:
            bits = int(value, 16)
        except ValueError:
            raise ProtocolError(
                ERR_BAD_REQUEST, f"bits string is not hex: {value[:32]!r}"
            ) from None
    elif isinstance(value, int):
        bits = value
    else:
        raise ProtocolError(ERR_BAD_REQUEST, "bits must be an int or hex string")
    if not 0 <= bits < (1 << (1 << n)):
        raise ProtocolError(
            ERR_BAD_REQUEST, f"bits out of range for a {n}-variable table"
        )
    return bits


def parse_table(obj: Any, field: str = "function") -> TruthTable:
    """Validate a ``{"n": ..., "bits": ...}`` operand into a table."""
    if not isinstance(obj, Mapping):
        raise ProtocolError(ERR_BAD_REQUEST, f"{field} must be an object with n, bits")
    n = obj.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n <= MAX_SUPPORT:
        raise ProtocolError(
            ERR_BAD_REQUEST, f"{field}.n must be an int in [0, {MAX_SUPPORT}]"
        )
    if "bits" not in obj:
        raise ProtocolError(ERR_BAD_REQUEST, f"{field}.bits is required")
    return TruthTable(n, _parse_bits(obj["bits"], n))


def decode_request(line: bytes) -> Dict[str, Any]:
    """Parse and validate one request line (op checked, id normalized)."""
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(ERR_BAD_REQUEST, f"unparseable JSON: {exc}") from None
    except ValueError as exc:
        # An integer literal past the interpreter's digit limit.
        raise ProtocolError(
            ERR_BAD_REQUEST,
            'integer literal too long to parse; send bits as a "0x..." hex string',
        ) from None
    except RecursionError:
        raise ProtocolError(ERR_BAD_REQUEST, "JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise ProtocolError(ERR_BAD_REQUEST, "request must be a JSON object")
    op = obj.get("op")
    if op not in OPS:
        raise ProtocolError(
            ERR_BAD_REQUEST, f"unknown op {op!r} (expected one of {sorted(OPS)})"
        )
    rid = obj.get("id")
    if rid is not None and not isinstance(rid, (str, int)):
        raise ProtocolError(ERR_BAD_REQUEST, "id must be a string or int")
    trace_id = obj.get("trace_id")
    if trace_id is not None:
        if not isinstance(trace_id, str) or not trace_id:
            raise ProtocolError(ERR_BAD_REQUEST, "trace_id must be a non-empty string")
        if len(trace_id) > MAX_TRACE_ID_CHARS:
            raise ProtocolError(
                ERR_BAD_REQUEST,
                f"trace_id exceeds {MAX_TRACE_ID_CHARS} characters",
            )
    return obj


def encode_line(obj: Mapping[str, Any]) -> bytes:
    """One response (or request) as an NDJSON line."""
    return (json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n").encode()


def ok_response(rid: Any, result: Mapping[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {"ok": True, "result": dict(result)}
    if rid is not None:
        out["id"] = rid
    return out


def error_response(rid: Any, code: str, detail: str = "") -> Dict[str, Any]:
    out: Dict[str, Any] = {"ok": False, "error": code}
    if detail:
        out["detail"] = detail
    if rid is not None:
        out["id"] = rid
    return out


def class_payload(key: Tuple[int, int, bool]) -> Dict[str, Any]:
    """Render an engine ``ClassKey`` (or its tuple) for the wire."""
    n, bits, quarantined = key
    return {"n": n, "class": f"0x{bits:x}", "quarantined": bool(quarantined)}
