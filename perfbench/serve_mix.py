"""Workload ``serve_mix``: the ``grm-match serve`` daemon under a closed loop.

The daemon runs as a subprocess on an ephemeral port with a fresh
``--store`` directory.  ``CONNECTIONS`` client threads of this process
each send one pre-encoded request, wait for its reply, and send the
next: each caller is a tool that waits for its answer.  The op mix is
80% ``classify``, 15% ``match`` with ``witness`` and 5% ``lookup``, over
the hot/cold tables of ``testing.workloads.make_traffic_mix``.  After
the load the daemon gets SIGTERM and must drain within 10 s, leaving a
store that passes ``ClassStore.verify()``.
"""

from __future__ import annotations

import json
import os
import queue
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    SRC,
    STATE,
    Outcome,
    Reference,
    clock,
    peak_rss_mb,
    percentile,
    timed_setups,
    unpin,
)
from layers import table
from probes import layer_metrics

from repro.boolfunc.transform import NpnTransform
from repro.boolfunc.truthtable import TruthTable
from repro.serve.client import MatchClient
from repro.store import ClassStore
from repro.testing.workloads import make_pool, make_traffic_mix

HERE = Path(__file__).resolve().parent
SETUPS = 7
CONNECTIONS = 2
MAX_RATE = 4000
"""Requests generated per second of measurement; a run that sends them
all stops early."""
DRAIN_SECONDS = 10.0
BOOT_SECONDS = 60.0


class Requests:
    """Seeded wire requests, and the reference classes of their tables."""

    def __init__(self, seed: int, count: int):
        rng = random.Random(seed)
        pool = make_pool(rng)
        mix = make_traffic_mix(count, rng, pool=pool)
        self.ops: List[Tuple[str, TruthTable, Optional[TruthTable]]] = []
        self.lines: List[bytes] = []
        for i, (_, a) in enumerate(mix):
            draw = rng.random()
            b = None
            if draw < 0.80:
                op, body = "classify", _table(a)
            elif draw < 0.95:
                if rng.random() < 0.5:
                    b = NpnTransform.random(a.n, rng).apply(a)
                else:
                    b = mix[rng.randrange(count)][1]
                op, body = "match", {"a": _table(a), "b": _table(b), "witness": True}
            else:
                op, body = "lookup", _table(a)
            self.ops.append((op, a, b))
            self.lines.append((json.dumps(dict(body, id=i, op=op)) + "\n").encode())
        self.canon = Reference()


def _table(f: TruthTable) -> dict:
    return {"n": f.n, "bits": f"0x{f.bits:x}"}


class Daemon:
    """One ``grm-match serve`` subprocess with its own store directory."""

    def __init__(self, store_dir: Path, trace_out: Optional[Path] = None):
        self.store_dir = store_dir
        shutil.rmtree(store_dir, ignore_errors=True)
        store_dir.parent.mkdir(parents=True, exist_ok=True)
        args = ["serve", "--port", "0", "--store", str(store_dir)]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.cli"] + args
        else:
            cmd = [sys.executable, str(HERE / "serve_boot.py"), str(trace_out)] + args
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env
        )
        self.output: List[str] = []
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.port = self._wait_listening()

    def _read(self) -> None:
        for raw in self.proc.stdout:
            line = raw.decode(errors="replace").rstrip("\n")
            self.output.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def _wait_listening(self) -> int:
        deadline = clock() + BOOT_SECONDS
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - clock()))
            except queue.Empty:
                line = None
            if line is None:
                self.kill()
                raise RuntimeError("daemon did not start:\n" + "\n".join(self.output))
            if "listening on" in line:
                return int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])

    def stop(self) -> bool:
        """SIGTERM; True if the daemon drained and stopped in time."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=DRAIN_SECONDS)
            drained = self.proc.returncode == 0
        except subprocess.TimeoutExpired:
            drained = False
        self.kill()
        return drained and any("serve: stopped" in line for line in self.output)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=5.0)
        self.proc.stdout.close()

    def cleanup(self) -> None:
        self.kill()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def drive(port: int, lines: List[bytes], seconds: float):
    """Closed loop over ``CONNECTIONS`` connections until the deadline.

    Returns ``(start, end, reply)`` per request, ``None`` where unsent.
    """
    done: List[Optional[Tuple[float, float, bytes]]] = [None] * len(lines)
    errors: List[BaseException] = []
    deadline = clock() + seconds

    def caller(first: int) -> None:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=30.0) as sock:
                with sock.makefile("rb") as replies:
                    for i in range(first, len(lines), CONNECTIONS):
                        t0 = clock()
                        if t0 >= deadline:
                            break
                        sock.sendall(lines[i])
                        reply = replies.readline()
                        done[i] = (t0, clock(), reply)
        except OSError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=caller, args=(k,)) for k in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return done, errors


def check_replies(requests: Requests, done, outcome: Outcome) -> None:
    for i, entry in enumerate(done):
        if entry is None:
            continue
        op, a, b = requests.ops[i]
        reply = json.loads(entry[2]) if entry[2] else {}
        if not outcome.check(bool(reply.get("ok")), f"request {i} ({op}): {reply}"):
            continue
        result = reply["result"]
        want_a = f"0x{requests.canon(a):x}"
        if op == "classify":
            ok = result.get("class") == want_a and not result.get("quarantined")
        elif op == "match":
            equivalent = requests.canon(a) == requests.canon(b)
            ok = (
                result.get("equivalent") == equivalent
                and result["a_class"]["class"] == want_a
                and result["b_class"]["class"] == f"0x{requests.canon(b):x}"
            )
            if ok and equivalent:
                witness = result.get("witness")
                ok = witness is not None and _witness(witness).apply(a).bits == b.bits
        else:
            ok = not result.get("hit") or (
                result.get("class") == want_a
                and _witness(result["witness"]).apply(a).bits == requests.canon(a)
            )
        outcome.check(ok, f"request {i} ({op}): {result}")


def _witness(obj: dict) -> NpnTransform:
    return NpnTransform(tuple(obj["perm"]), obj["input_neg"], bool(obj["output_neg"]))


class Phase:
    """One daemon's measured load: latencies, throughput and counters."""

    def __init__(self, requests: Requests, done):
        sent = [(i, e) for i, e in enumerate(done) if e is not None]
        self.completed = len(sent)
        self.latencies = [end - start for _, (start, end, _) in sent]
        self.by_op: Dict[str, List[float]] = {}
        for i, (start, end, _) in sent:
            self.by_op.setdefault(requests.ops[i][0], []).append(end - start)
        self.elapsed = max(end for _, (_, end, _) in sent) - min(
            start for _, (start, _, _) in sent
        )
        self.p50_s = percentile(self.latencies, 50)
        self.stats: dict = {}
        self.peak_rss_mb = 0.0


def run_phase(
    requests: Requests,
    daemon: Daemon,
    seconds: float,
    outcome: Outcome,
) -> Phase:
    """Drive one booted daemon, then stop it and check everything."""
    try:
        done, errors = drive(daemon.port, requests.lines, seconds)
        for exc in errors:
            outcome.check(False, f"client connection failed: {exc!r}")
        phase = Phase(requests, done)
        with MatchClient(port=daemon.port) as client:
            phase.stats = client.stats()
        phase.peak_rss_mb = peak_rss_mb(daemon.proc.pid)
        outcome.check(daemon.stop(), "daemon did not drain within 10 s after SIGTERM")
        try:
            ClassStore(daemon.store_dir, create=False).verify()
            outcome.check(True, "store verify")
        except Exception as exc:  # any store error is a failed check
            outcome.check(False, f"store verify failed: {exc!r}")
        check_replies(requests, done, outcome)
        return phase
    finally:
        daemon.cleanup()


def run(seed: int, seconds: float, trace: bool, report) -> Tuple[dict, dict, Outcome]:
    count = int(MAX_RATE * seconds) + 1000
    store_root = STATE / f"serve-{os.getpid()}"
    daemons: List[Daemon] = []

    def setup(i: int):
        requests = Requests(seed, count)
        unpin()  # the daemon, and later the callers, use every CPU
        daemons.append(Daemon(store_root / f"store-{i}"))
        return requests

    outcome = Outcome()
    try:
        requests, setup_s = timed_setups(setup, SETUPS, pin=True)
        for spare in daemons[:-1]:
            spare.stop()
            spare.cleanup()
        phase = run_phase(requests, daemons[-1], seconds, outcome)
        e2e = {
            "setup_s": setup_s,
            "work_s": phase.p50_s,
            "items_per_s": phase.completed / phase.elapsed,
            "peak_rss_mb": phase.peak_rss_mb,
        }
        report.extend(_phase_lines("untraced", phase))
        if not trace:
            return e2e, {}, outcome
        trace_out = store_root / "layers.json"
        traced = run_phase(
            requests, Daemon(store_root / "store-traced", trace_out), seconds, outcome
        )
        report.extend(_phase_lines("traced", traced))
        snapshot = json.loads(trace_out.read_text())
        report.extend(table(snapshot))
        return e2e, _layer_metrics(snapshot, traced, phase), outcome
    finally:
        for daemon in daemons:
            daemon.cleanup()
        shutil.rmtree(store_root, ignore_errors=True)


def _layer_metrics(snapshot: dict, traced: Phase, untraced: Phase) -> dict:
    out = layer_metrics(snapshot)
    batching = traced.stats["batching"]
    calls = snapshot["calls"].get("engine.classify", 0)
    engine_ms = snapshot["total"].get("engine.classify", 0.0) / calls * 1e3 if calls else 0.0
    submit = snapshot["samples"].get("serve.submit", [])
    submit_p50_ms = percentile(submit, 50) * 1e3 if submit else 0.0
    client_s = sum(traced.latencies)
    split = sum(out.get(k, 0.0) for k in ("serve.decode_s", "serve.submit_s", "serve.encode_s"))
    out.update(
        {
            "serve.batches": batching["batches"],
            "serve.batch_fill": batching["mean_fill"],
            "serve.overloaded": traced.stats["counters"].get("serve.overloaded", 0),
            "serve.engine_batch_ms": engine_ms,
            "serve.submit_p50_ms": submit_p50_ms,
            "serve.wait_p50_ms": submit_p50_ms - engine_ms,
            "serve.client_s": client_s,
            "trace.coverage_frac": split / client_s if client_s else 0.0,
            "trace.catchall_frac": (
                snapshot["self"].get("engine.classify", 0.0) / client_s if client_s else 0.0
            ),
            "trace.overhead_s": traced.p50_s - untraced.p50_s,
            "serve.p99_ms": percentile(untraced.latencies, 99) * 1e3,
            "e2e.samples": len(untraced.latencies),
        }
    )
    for op in ("classify", "match", "lookup"):
        samples = traced.by_op.get(op, [])
        out[f"serve.{op}_p50_ms"] = percentile(samples, 50) * 1e3 if samples else 0.0
    return out


def _phase_lines(label: str, phase: Phase) -> List[str]:
    lines = [
        f"{label}: {phase.completed} requests in {phase.elapsed:.2f} s over "
        f"{CONNECTIONS} connections; batches {phase.stats['batching']['batches']}, "
        f"mean fill {phase.stats['batching']['mean_fill']:.2f}",
        f"  {'op':<9} {'count':>6} {'p50_ms':>8} {'p99_ms':>8} {'max_ms':>8}",
    ]
    for op, samples in sorted(phase.by_op.items()) + [("all", phase.latencies)]:
        lines.append(
            f"  {op:<9} {len(samples):>6} {percentile(samples, 50) * 1e3:>8.3f} "
            f"{percentile(samples, 99) * 1e3:>8.3f} {max(samples) * 1e3:>8.3f}"
        )
    return lines
