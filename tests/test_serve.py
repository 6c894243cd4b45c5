"""Serving-layer tests: protocol, coalescing, backpressure, drain.

Each test boots a real :class:`MatchServer` on an ephemeral port via
:class:`ServerThread` and talks to it over actual sockets — the
coalescing, overload, and shutdown claims are asserted against the
server's own obs counters, not against mocks.  Tests that need requests
parked in the queue hold the engine thread inside its first
``classify`` call (:func:`plug_engine`) rather than relying on timing.
"""

from __future__ import annotations

import errno
import json
import random
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.boolfunc.transform import NpnTransform
from repro.boolfunc.truthtable import TruthTable
from repro.cli import main as cli_main
from repro.core.matcher import match_with_stats
from repro.engine import ClassificationEngine, store_lookup
from repro.serve import (
    ERR_BAD_REQUEST,
    ERR_INTERNAL,
    ERR_OVERLOADED,
    ERR_PAYLOAD_TOO_LARGE,
    MatchServer,
    ServeConfig,
    ServerThread,
    ServerError,
)
from repro.serve.client import MatchClient
from repro.serve.protocol import (
    ProtocolError,
    decode_request,
    encode_line,
    parse_table,
)
from repro.store.store import ClassStore
from repro.testing import corpus


def serve(config: ServeConfig, **kwargs) -> ServerThread:
    return ServerThread(MatchServer(config=config, **kwargs)).start()


def raw_roundtrip(port: int, payload: bytes) -> dict:
    """One raw line out, one response line back (socket kept open)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(payload)
        reader = sock.makefile("rb")
        return json.loads(reader.readline())


def classify_line(f: TruthTable, **extra) -> bytes:
    return encode_line(dict(extra, op="classify", n=f.n, bits=f"0x{f.bits:x}"))


def plug_engine(server: MatchServer, monkeypatch, fail_call: int = 0):
    """Hold the engine thread inside its first ``classify`` call.

    Returns ``(calls, entered, release)``: ``calls`` records each call
    as ``(sorted widths, size)``; ``entered`` is set once the first
    call is running, which then waits for ``release``.  Call number
    ``fail_call`` (1-based; 0 = none) raises instead of classifying.
    """
    real_classify = server.engine.classify
    calls = []
    entered, release = threading.Event(), threading.Event()

    def gated_classify(tables):
        calls.append((sorted({t.n for t in tables}), len(tables)))
        if len(calls) == 1:
            entered.set()
            release.wait(30)
        if len(calls) == fail_call:
            raise RuntimeError("planted engine failure")
        return real_classify(tables)

    monkeypatch.setattr(server.engine, "classify", gated_classify)
    return calls, entered, release


def wait_pending(port: int, count: int) -> None:
    """Poll ``stats`` (served on the event loop) until ``count`` tables
    are admitted."""
    with MatchClient(port=port) as probe:
        for _ in range(500):
            if probe.stats()["pending"] >= count:
                return
            time.sleep(0.01)
    pytest.fail(f"fewer than {count} tables were ever admitted")


# ----------------------------------------------------------------------
# Protocol unit tests (no server)
# ----------------------------------------------------------------------

class TestProtocol:
    def test_parse_table_hex_and_int_agree(self):
        a = parse_table({"n": 3, "bits": 0x96})
        b = parse_table({"n": 3, "bits": "0x96"})
        assert a.bits == b.bits == 0x96 and a.n == 3

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 3},  # bits missing
            {"n": "3", "bits": 1},  # n not an int
            {"n": True, "bits": 1},  # bool masquerading as int
            {"n": 99, "bits": 1},  # absurd support width
            {"n": 2, "bits": 16},  # bits out of range for n=2
            {"n": 2, "bits": True},  # bool bits
            {"n": 2, "bits": "zz"},  # non-hex string
            "not an object",
        ],
    )
    def test_parse_table_rejects(self, obj):
        with pytest.raises(ProtocolError) as exc:
            parse_table(obj)
        assert exc.value.code == ERR_BAD_REQUEST

    def test_decode_request_rejects_unknown_op(self):
        with pytest.raises(ProtocolError):
            decode_request(encode_line({"op": "frobnicate"}))

    def test_decode_request_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_request(b"[1, 2, 3]\n")

    def test_decode_request_rejects_deep_nesting(self):
        # json.loads raises RecursionError here, not a ValueError.
        with pytest.raises(ProtocolError) as exc:
            decode_request(b"[" * 200_000 + b"\n")
        assert exc.value.code == ERR_BAD_REQUEST
        assert "nested" in exc.value.detail


# ----------------------------------------------------------------------
# Round-trips over real sockets
# ----------------------------------------------------------------------

class TestRoundTrip:
    def test_classify_matches_direct_engine(self, rng):
        tables = [TruthTable.random(4, rng) for _ in range(12)]
        direct = ClassificationEngine().classify(tables)
        expected = {}
        for key, idxs in direct.members.items():
            for i in idxs:
                expected[i] = key
        with serve(ServeConfig()) as st, MatchClient(port=st.port) as client:
            for i, f in enumerate(tables):
                got = client.classify(f)
                key = expected[i]
                assert got == {
                    "n": key.n,
                    "class": f"0x{key.key:x}",
                    "quarantined": key.quarantined,
                }

    def test_match_with_witness(self, rng):
        f = TruthTable.random(4, rng)
        t = NpnTransform.random(4, rng)
        g = t.apply(f)
        with serve(ServeConfig()) as st, MatchClient(port=st.port) as client:
            result = client.match(f, g, witness=True)
            assert result["equivalent"]
            w = result["witness"]
            t_ab = NpnTransform(tuple(w["perm"]), w["input_neg"], w["output_neg"])
            assert t_ab.apply(f).bits == g.bits
            # and a genuinely different pair does not match
            other = TruthTable(4, f.bits ^ 0b0110)
            if ClassificationEngine().classify([f, other]).num_classes == 2:
                assert not client.match(f, other)["equivalent"]
            # the reply names the tier the matcher's dispatcher settles on
            twins = Path(__file__).parent / "corpus" / "weight_twins.json"
            for pair in corpus.load_weight_twins(twins):
                reply = client.match(pair.f, pair.g)
                tier = match_with_stats(pair.f, pair.g).stats.differentiated_by
                assert reply["differentiated_by"] == tier == pair.tier

    def test_match_rejects_width_mismatch(self, rng):
        with serve(ServeConfig()) as st, MatchClient(port=st.port) as client:
            result = client.match(TruthTable.random(3, rng), TruthTable.random(4, rng))
            assert not result["equivalent"]
            assert "differ" in result["reason"]

    def test_lookup_against_store(self, rng, tmp_path):
        store = ClassStore(tmp_path / "store", create=True)
        f = TruthTable.random(4, rng)
        ClassificationEngine(store=store).classify([f])
        store.flush()
        with serve(ServeConfig(), store=store) as st, MatchClient(
            port=st.port
        ) as client:
            hit = client.lookup(f)
            assert hit["hit"]
            w = hit["witness"]
            t = NpnTransform(tuple(w["perm"]), w["input_neg"], w["output_neg"])
            assert t.apply(f).bits == int(hit["class"], 16)

    def test_lookup_without_store_is_bad_request(self, rng):
        with serve(ServeConfig()) as st, MatchClient(port=st.port) as client:
            with pytest.raises(ServerError) as exc:
                client.lookup(TruthTable.random(3, rng))
            assert exc.value.code == ERR_BAD_REQUEST

    def test_pipelined_requests_on_one_connection(self, rng):
        with serve(ServeConfig()) as st, MatchClient(port=st.port) as client:
            for _ in range(5):
                assert client.ping()["pong"]


# ----------------------------------------------------------------------
# Malformed and oversized input
# ----------------------------------------------------------------------

class TestRejection:
    def test_malformed_json_answers_bad_request(self):
        with serve(ServeConfig()) as st:
            response = raw_roundtrip(st.port, b'{"op": nope}\n')
            assert response["ok"] is False
            assert response["error"] == ERR_BAD_REQUEST

    def test_connection_survives_malformed_line(self):
        with serve(ServeConfig()) as st:
            with socket.create_connection(("127.0.0.1", st.port), timeout=10) as sock:
                reader = sock.makefile("rb")
                sock.sendall(b"this is not json\n")
                bad = json.loads(reader.readline())
                assert bad["error"] == ERR_BAD_REQUEST
                sock.sendall(encode_line({"op": "ping", "id": 2}))
                good = json.loads(reader.readline())
                assert good["ok"] and good["id"] == 2

    def test_oversized_payload_rejected_and_closed(self):
        with serve(ServeConfig(max_line_bytes=1024)) as st:
            with socket.create_connection(("127.0.0.1", st.port), timeout=10) as sock:
                sock.sendall(b'{"op": "classify", "pad": "' + b"x" * 4096 + b'"}\n')
                reader = sock.makefile("rb")
                response = json.loads(reader.readline())
                assert response["ok"] is False
                assert response["error"] == ERR_PAYLOAD_TOO_LARGE
                assert reader.readline() == b""  # server closed the conn

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits")
        or not 0 < sys.get_int_max_str_digits() <= 4400,
        reason="needs CPython's int-to-str digit limit below 4,401 digits",
    )
    def test_oversized_json_integer_bits_answer_bad_request(self, rng):
        # 10**4400 < 2**16384 is a valid n = 14 table, but json.loads
        # refuses an integer literal of 4,401 digits.  The payload is
        # built as bytes, so the test itself converts no big int.
        line = b'{"op":"classify","n":14,"bits":1' + b"0" * 4400 + b"}\n"
        with serve(ServeConfig()) as st:
            with socket.create_connection(("127.0.0.1", st.port), timeout=10) as sock:
                reader = sock.makefile("rb")
                sock.sendall(line)
                bad = json.loads(reader.readline())
                assert bad["ok"] is False
                assert bad["error"] == ERR_BAD_REQUEST
                assert "hex" in bad["detail"]
                f = TruthTable.random(4, rng)
                sock.sendall(
                    encode_line({"op": "classify", "n": 4, "bits": f"0x{f.bits:x}"})
                )
                assert json.loads(reader.readline())["ok"]
                sock.sendall(encode_line({"op": "stats"}))
                counters = json.loads(reader.readline())["result"]["counters"]
        assert counters["serve.responses{code=bad_request}"] == 1
        assert counters.get("serve.responses{code=internal}", 0) == 0

    def test_deeply_nested_json_answers_bad_request(self):
        # 200,000 brackets fit well under max_line_bytes but exhaust
        # json.loads's recursion limit.
        with serve(ServeConfig()) as st:
            with socket.create_connection(("127.0.0.1", st.port), timeout=10) as sock:
                reader = sock.makefile("rb")
                sock.sendall(b"[" * 200_000 + b"\n")
                bad = json.loads(reader.readline())
                assert bad["ok"] is False
                assert bad["error"] == ERR_BAD_REQUEST
                sock.sendall(encode_line({"op": "ping", "id": 2}))
                assert json.loads(reader.readline())["ok"]
                sock.sendall(encode_line({"op": "stats"}))
                counters = json.loads(reader.readline())["result"]["counters"]
        assert counters["serve.responses{code=bad_request}"] == 1
        assert counters.get("serve.responses{code=internal}", 0) == 0

    def test_error_reply_leaves_connection_usable(self, rng):
        # A rejected op (store-less lookup) answers with an error and the
        # same connection keeps serving — errors never kill the session.
        with serve(ServeConfig()) as st:
            with socket.create_connection(("127.0.0.1", st.port), timeout=10) as sock:
                reader = sock.makefile("rb")
                sock.sendall(encode_line({"op": "lookup", "n": 3, "bits": 1, "id": 1}))
                first = json.loads(reader.readline())
                assert first["ok"] is False
                sock.sendall(encode_line({"op": "ping", "id": 2}))
                assert json.loads(reader.readline())["ok"]


# ----------------------------------------------------------------------
# Coalescing (asserted via obs counters)
# ----------------------------------------------------------------------

class TestCoalescing:
    def test_concurrent_requests_share_batches(self, rng, monkeypatch):
        # The engine thread is held in the plug's call while 12 requests
        # of two widths queue; on release they leave as one batch.
        plug = TruthTable.random(4, rng)
        tables = [TruthTable.random(3 + i % 2, rng) for i in range(12)]
        server = MatchServer(config=ServeConfig(max_batch=64))
        calls, entered, release = plug_engine(server, monkeypatch)
        results = {}
        with ServerThread(server) as st:

            def worker(i: int, f: TruthTable) -> None:
                with MatchClient(port=st.port) as client:
                    results[i] = client.classify(f)

            threads = [threading.Thread(target=worker, args=(0, plug))]
            threads[0].start()
            try:
                assert entered.wait(10), "the plug never reached the engine"
                for i, f in enumerate(tables, start=1):
                    threads.append(threading.Thread(target=worker, args=(i, f)))
                    threads[-1].start()
                wait_pending(st.port, 1 + len(tables))
            finally:
                release.set()
            for t in threads:
                t.join(10)
            assert not any(t.is_alive() for t in threads)
            with MatchClient(port=st.port) as client:
                stats = client.stats()
        assert calls == [([4], 1), ([3, 4], 12)]
        assert stats["batching"]["batches"] == 2
        assert stats["batching"]["tables"] == 1 + len(tables)
        direct = ClassificationEngine().classify([plug] + tables)
        for key, idxs in direct.members.items():
            for i in idxs:
                assert results[i]["class"] == f"0x{key.key:x}"

    def test_batching_off_still_correct(self, rng):
        tables = [TruthTable.random(4, rng) for _ in range(6)]
        with serve(ServeConfig(max_batch=1)) as st:
            with MatchClient(port=st.port) as client:
                got = [client.classify(f) for f in tables]
                stats = client.stats()
        # one engine batch per table: the same code path, batch size 1
        assert stats["batching"]["batches"] == len(tables)
        assert stats["batching"]["mean_fill"] == 1.0
        direct = ClassificationEngine().classify(tables)
        for key, idxs in direct.members.items():
            for i in idxs:
                assert got[i]["class"] == f"0x{key.key:x}"

    def test_retired_batching_options_are_rejected(self, capsys):
        # Batch size follows load: no window or switch configures it.
        with pytest.raises(TypeError):
            ServeConfig(max_wait=0.002)
        with pytest.raises(TypeError):
            ServeConfig(batching=False)
        for flag in (["--max-wait-ms", "2"], ["--no-batching"]):
            with pytest.raises(SystemExit) as exc:
                cli_main(["serve", "--port", "0"] + flag)
            assert exc.value.code == 2, flag
            assert flag[0] in capsys.readouterr().err


# ----------------------------------------------------------------------
# Engine failure inside a served batch
# ----------------------------------------------------------------------

class TestEngineFailure:
    def test_failed_batch_answers_internal_and_server_survives(
        self, rng, tmp_path, monkeypatch
    ):
        # A plug request holds the engine thread while four connections
        # queue one max_batch=4 round; the engine raises on that round's
        # call only.  Every request in it must get `internal`, each
        # connection must then be served normally, and the failure must
        # be counted and dumped from the flight ring.  The slow-request
        # trigger is off: the parked round is slow by design, and its
        # dump would rate-limit the `internal` one.
        width = 4
        config = ServeConfig(
            max_batch=width, flight_dir=str(tmp_path), slow_request_ms=0
        )
        server = MatchServer(config=config)
        calls, entered, release = plug_engine(server, monkeypatch, fail_call=2)
        tables = [TruthTable.random(4, rng) for _ in range(2 * width)]
        direct = ClassificationEngine().classify(tables)

        def send_round(socks, readers, round_tables):
            for sock, f in zip(socks, round_tables):
                sock.sendall(classify_line(f))
            return [json.loads(reader.readline()) for reader in readers]

        with ServerThread(server) as st:
            socks = [
                socket.create_connection(("127.0.0.1", st.port), timeout=10)
                for _ in range(width + 1)
            ]
            readers = [sock.makefile("rb") for sock in socks]
            try:
                socks[0].sendall(classify_line(TruthTable.random(4, rng)))
                assert entered.wait(10), "the plug never reached the engine"
                for sock, f in zip(socks[1:], tables[:width]):
                    sock.sendall(classify_line(f))
                wait_pending(st.port, 1 + width)
                release.set()
                assert json.loads(readers[0].readline())["ok"]
                failed = [json.loads(reader.readline()) for reader in readers[1:]]
                served = send_round(socks[1:], readers[1:], tables[width:])
            finally:
                release.set()
                for sock in socks:
                    sock.close()
            with MatchClient(port=st.port) as client:
                stats = client.stats()
        assert calls[1] == ([4], width)  # the whole round reached the failing call
        for reply in failed:
            assert reply["ok"] is False
            assert reply["error"] == ERR_INTERNAL
            assert "planted engine failure" in reply["detail"]
        for i, reply in enumerate(served, start=width):
            assert reply["ok"], reply
            assert reply["result"]["class"] == f"0x{direct.class_of(i).key:x}"
        counters = stats["counters"]
        assert counters["serve.responses{code=internal}"] == width
        assert counters["serve.responses{code=ok}"] >= width
        assert len(list(tmp_path.glob("flight-*-internal.jsonl"))) == 1


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------

class TestBackpressure:
    def test_overloaded_reply_under_saturation(self, rng, monkeypatch):
        # A tiny pending bound: A is in flight behind the plugged engine
        # and B is queued, so the third request must be shed with
        # `overloaded`.
        server = MatchServer(config=ServeConfig(max_batch=64, max_pending=2))
        _calls, entered, release = plug_engine(server, monkeypatch)
        with ServerThread(server) as st:
            parked = [
                MatchClient(port=st.port).connect(),
                MatchClient(port=st.port).connect(),
            ]
            try:
                parked[0]._sock.sendall(classify_line(TruthTable.random(4, rng), id=0))
                assert entered.wait(10), "A never reached the engine"
                parked[1]._sock.sendall(classify_line(TruthTable.random(4, rng), id=1))
                wait_pending(st.port, 2)
                with MatchClient(port=st.port) as probe:
                    with pytest.raises(ServerError) as exc:
                        probe.classify(TruthTable.random(4, rng))
                    assert exc.value.code == ERR_OVERLOADED
                    release.set()
                    # the admitted requests still complete normally
                    for client in parked:
                        response = json.loads(client._recv_file.readline())
                        assert response["ok"], response
                    counters = probe.stats()["counters"]
                    assert counters["serve.overloaded"] >= 1
            finally:
                release.set()
                for client in parked:
                    client.close()


# ----------------------------------------------------------------------
# Background write-back
# ----------------------------------------------------------------------

class TestWriteBack:
    def test_background_loop_flushes_and_compacts(self, rng, tmp_path):
        # Every flush writes each dirty shard as one line per class, so
        # the loop's segments are already compact.
        path = tmp_path / "store"
        store = ClassStore(path, create=True)
        tables = [TruthTable.random(4, rng) for _ in range(8)]
        config = ServeConfig(flush_interval=0.05)
        with serve(config, store=store) as st, MatchClient(port=st.port) as client:
            served = [client.classify(f) for f in tables]
            for _ in range(500):
                written = client.stats()["store"]
                if written["dirty"] == 0 and written["flushes"] >= 1:
                    break
                time.sleep(0.01)
            else:
                pytest.fail(f"the write-back loop never flushed: {written}")
            assert set(written) == {"dirty", "flushes"}
            # read back while the server still runs: the loop, not the
            # shutdown flush, must have written every class
            reopened = ClassStore(path, create=False)
            classes = len(list(reopened.records()))
            assert reopened.verify() == classes > 0  # one line per class
            assert not list((path / "shards").glob("*.idx.json"))
            for f, got in zip(tables, served):
                resolved = store_lookup(reopened, f)
                assert resolved is not None, "the write-back loop lost a class"
                assert f"0x{resolved[0]:x}" == got["class"]
            reopened.close()
        store.close()

    def test_failed_flush_is_counted_and_retried(
        self, rng, tmp_path, monkeypatch, capsys
    ):
        store = ClassStore(tmp_path / "store", create=True)
        real_flush = store.flush
        attempts = []

        def flaky_flush():
            attempts.append(store.dirty_count())
            if len(attempts) == 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_flush()

        monkeypatch.setattr(store, "flush", flaky_flush)
        st = serve(ServeConfig(flush_interval=0.05), store=store)
        try:
            with MatchClient(port=st.port) as client:
                for _ in range(6):
                    client.classify(TruthTable.random(4, rng))
                for _ in range(500):
                    stats = client.stats()
                    if stats["store"]["dirty"] == 0 and stats["store"]["flushes"]:
                        break
                    time.sleep(0.01)
                else:
                    pytest.fail(f"no flush after the failed one: {stats['store']}")
            assert stats["counters"]["serve.store_flush_errors"] == 1
        finally:
            st.stop(timeout=5)
        assert not st._thread.is_alive()
        assert attempts[0] > 0 and len(attempts) >= 2
        err = capsys.readouterr().err
        assert err.count("store flush failed") == 1
        assert "No space left on device" in err
        assert ClassStore(tmp_path / "store", create=False).verify() > 0

    def test_shutdown_completes_when_every_flush_fails(
        self, rng, tmp_path, monkeypatch, capsys
    ):
        store = ClassStore(tmp_path / "store", create=True)

        def failing_flush():
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(store, "flush", failing_flush)
        server = MatchServer(config=ServeConfig(flush_interval=0.05), store=store)
        st = ServerThread(server).start()
        try:
            with MatchClient(port=st.port) as client:
                client.classify(TruthTable.random(4, rng))
                for _ in range(500):
                    if server.metrics.counter_value("serve.store_flush_errors") >= 2:
                        break
                    time.sleep(0.01)
                else:
                    pytest.fail("the write-back loop stopped retrying")
        finally:
            st.stop(timeout=5)
        assert not st._thread.is_alive()
        assert server._stopped.is_set()
        assert store.dirty_count() > 0  # kept in memory, not dropped
        assert "store flush failed" in capsys.readouterr().err

    def test_serve_exits_nonzero_when_the_closing_flush_fails(
        self, rng, tmp_path, monkeypatch, capsys
    ):
        def failing_flush(store):
            if store.dirty_count():
                raise OSError(errno.ENOSPC, "No space left on device")
            return 0

        monkeypatch.setattr(ClassStore, "flush", failing_flush)
        started = []
        real_start = MatchServer.start

        async def start(server):
            await real_start(server)
            started.append(server)

        monkeypatch.setattr(MatchServer, "start", start)
        argv = [
            "serve", "--port", "0", "--store", str(tmp_path / "store"),
            "--flush-interval", "3600",
        ]
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(cli_main(argv)), daemon=True
        )
        thread.start()
        for _ in range(500):
            if started:
                break
            time.sleep(0.01)
        with MatchClient(port=started[0].port) as client:
            client.classify(TruthTable.random(4, rng))
            client.shutdown()
        thread.join(10)
        assert not thread.is_alive()
        assert codes == [1]
        captured = capsys.readouterr()
        assert "grm-match serve: error: store flush failed" in captured.err
        assert "Traceback" not in captured.err
        assert "serve: stopped" not in captured.out

    def test_retired_compaction_surface_is_rejected(self, tmp_path, capsys):
        with pytest.raises(TypeError):
            ServeConfig(compact_every=1)
        assert not hasattr(ClassStore, "compact")
        assert not hasattr(ClassStore, "reindex")
        for argv in (
            ["serve", "--port", "0", "--compact-every", "1"],
            ["lib", "compact", str(tmp_path)],
        ):
            with pytest.raises(SystemExit) as exc:
                cli_main(argv)
            assert exc.value.code == 2, argv
            assert "compact" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Drain-and-flush shutdown
# ----------------------------------------------------------------------

class TestShutdown:
    def test_drain_flushes_store_and_reopen_verifies(self, rng, tmp_path):
        path = tmp_path / "store"
        store = ClassStore(path, create=True)
        tables = [TruthTable.random(4, rng) for _ in range(8)]
        # flush_interval far beyond the test: only shutdown may flush
        config = ServeConfig(flush_interval=3600.0)
        st = serve(config, store=store)
        try:
            with MatchClient(port=st.port) as client:
                served = [client.classify(f) for f in tables]
        finally:
            st.stop()
        store.close()
        reopened = ClassStore(path)
        assert reopened.verify() > 0  # checksums + witnesses intact
        for f, got in zip(tables, served):
            resolved = store_lookup(reopened, f)
            assert resolved is not None, "shutdown flush lost a class"
            assert f"0x{resolved[0]:x}" == got["class"]

    def test_shutdown_op_drains_and_stops(self, rng):
        st = serve(ServeConfig())
        port = st.port
        with MatchClient(port=port) as client:
            client.classify(TruthTable.random(3, rng))
            assert client.shutdown()["draining"]
        st._thread.join(timeout=10)
        assert not st._thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=1)

    def test_stop_is_idempotent(self):
        st = serve(ServeConfig())
        st.stop()
        st.stop()


# ----------------------------------------------------------------------
# HTTP/1.1 shim
# ----------------------------------------------------------------------

def http_exchange(port: int, raw: bytes):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(raw)
        chunks = b""
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks += data
    head, _, body = chunks.partition(b"\r\n\r\n")
    status = head.decode("latin-1").splitlines()[0]
    return status, json.loads(body) if body else None


class TestHttpShim:
    def test_get_healthz(self):
        with serve(ServeConfig()) as st:
            status, body = http_exchange(
                st.port, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
            )
        assert status == "HTTP/1.1 200 OK"
        assert body["result"]["pong"]

    def test_post_classify(self, rng):
        f = TruthTable.random(3, rng)
        payload = json.dumps({"op": "classify", "n": 3, "bits": f.bits}).encode()
        request = (
            b"POST / HTTP/1.1\r\nHost: t\r\nContent-Length: "
            + str(len(payload)).encode()
            + b"\r\n\r\n"
            + payload
        )
        with serve(ServeConfig()) as st:
            status, body = http_exchange(st.port, request)
            direct = ClassificationEngine().classify([f])
            (key,) = direct.members
        assert status == "HTTP/1.1 200 OK"
        assert body["result"]["class"] == f"0x{key.key:x}"

    def test_http_error_statuses(self):
        with serve(ServeConfig()) as st:
            status, body = http_exchange(
                st.port,
                b"POST / HTTP/1.1\r\nHost: t\r\nContent-Length: 9\r\n\r\nnot json!",
            )
            assert status == "HTTP/1.1 400 Bad Request"
            assert body["error"] == ERR_BAD_REQUEST
            status, _ = http_exchange(
                st.port, b"GET /nothing HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            assert status == "HTTP/1.1 400 Bad Request"
            status, body = http_exchange(
                st.port,
                b"POST / HTTP/1.1\r\nHost: t\r\nContent-Length: 999999999\r\n\r\n",
            )
            assert status == "HTTP/1.1 413 Payload Too Large"
            for length in (b"-5", b"abc", b""):
                status, body = http_exchange(
                    st.port,
                    b"POST / HTTP/1.1\r\nHost: t\r\nContent-Length: "
                    + length
                    + b"\r\n\r\n{}",
                )
                assert status == "HTTP/1.1 400 Bad Request", length
                assert body["error"] == ERR_BAD_REQUEST
                assert "Content-Length" in body["detail"]
