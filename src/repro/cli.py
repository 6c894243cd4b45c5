"""Command-line interface: ``grm-match`` (also ``python -m repro.cli``).

Subcommands::

    match FILE_A FILE_B        npn-match two single-output functions
    verify FILE_A FILE_B       circuit-level correspondence (multi-output)
    classify FILE              group a circuit's outputs into npn classes
    symmetries FILE            report variable symmetries per output
    minimize FILE              minimum-cube FPRM polarity per output
    map FILE                   AIG technology mapping onto the library
    fuzz                       differential fuzzing against every baseline
    lib build STORE            populate a persistent npn class store
    lib query STORE [FILE]     warm-resolve functions against a store
    lib stats STORE            store summary (and integrity verify)
    table1 [NAMES...]          run the paper's Table 1 experiment
    bench-info NAME            describe a built-in benchmark circuit
    obs report FILE            render a trace JSONL or metrics snapshot
    obs top --port P           live terminal view of a serving daemon
    serve                      run the matching daemon (NDJSON/HTTP)
    client OP [FILES...]       talk to a running matching daemon

``FILE`` is a ``.pla`` or ``.blif`` file, or ``bench:NAME[:OUTPUT]`` to
reference a built-in benchmark circuit from the Table-1 suite.

Global observability options (before the subcommand)::

    --trace FILE       write a span/event trace (JSONL) of the run
    --metrics FILE     write the metrics-registry snapshot (JSON)
    --profile          print a timing profile table to stderr on exit
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from repro.benchcircuits import build_circuit, circuit_names, get_spec, parse_blif, parse_pla
from repro.benchcircuits.generators import BenchmarkCircuit, OutputFunction
from repro.boolfunc.truthtable import TruthTable
from repro.core.circuitmatch import match_circuits
from repro.core.differentiate import differentiate_circuit
from repro.core.matcher import match
from repro.core.polarity import decide_polarity_primary
from repro.core.symmetry import all_pair_symmetries_via_grm, linear_variables
from repro.grm.forms import Grm
from repro.grm.minimize import minimize_exact, minimize_greedy


def _shrink(name: str, tt: TruthTable, support: Sequence[int]) -> OutputFunction:
    reduced, keep = tt.project_to_support()
    return OutputFunction(name, reduced, tuple(support[k] for k in keep))


def load_circuit(ref: str, max_support: int = 16) -> BenchmarkCircuit:
    """Load ``.pla`` / ``.blif`` / ``bench:NAME`` into output-function form."""
    if ref.startswith("bench:"):
        parts = ref.split(":")
        circuit = build_circuit(parts[1])
        if len(parts) > 2:
            wanted = parts[2]
            picked = [o for o in circuit.outputs if o.name == wanted]
            if not picked:
                raise SystemExit(f"no output {wanted!r} in benchmark {parts[1]!r}")
            return BenchmarkCircuit(circuit.name, circuit.n_inputs, picked)
        return circuit
    path = Path(ref)
    text = path.read_text()
    if path.suffix == ".pla":
        pla = parse_pla(text)
        circuit = BenchmarkCircuit(path.stem, pla.n_inputs)
        for idx, label in enumerate(pla.output_labels):
            tt = pla.output_function(idx)
            circuit.outputs.append(_shrink(label, tt, tuple(range(pla.n_inputs))))
        return circuit
    if path.suffix == ".blif":
        netlist = parse_blif(text)
        circuit = BenchmarkCircuit(netlist.name, len(netlist.inputs))
        for out in netlist.outputs:
            tt, support = netlist.output_function(out, max_support=max_support)
            circuit.outputs.append(OutputFunction(out, tt, support))
        return circuit
    raise SystemExit(f"unsupported file type: {ref!r} (.pla, .blif or bench:NAME)")


def _single_output(circuit: BenchmarkCircuit, ref: str) -> OutputFunction:
    if len(circuit.outputs) != 1:
        raise SystemExit(
            f"{ref!r} has {len(circuit.outputs)} outputs; select one with "
            f"bench:NAME:OUTPUT or a single-output file"
        )
    return circuit.outputs[0]


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_match(args: argparse.Namespace) -> int:
    a = _single_output(load_circuit(args.file_a), args.file_a)
    b = _single_output(load_circuit(args.file_b), args.file_b)
    if a.table.n != b.table.n:
        print(f"not matchable: support sizes differ ({a.table.n} vs {b.table.n})")
        return 1
    explanation = None
    tier = None
    start = time.perf_counter()
    if args.explain:
        from repro.core.matcher import match_with_stats
        from repro.obs import render_match_explanation
        from repro.obs import runtime as obs_runtime

        with obs_runtime.capture() as (_registry, ring):
            outcome = match_with_stats(
                a.table, b.table, allow_output_neg=not args.np_only
            )
        transform = outcome.transform_or_none()
        tier = outcome.stats.differentiated_by
        explanation = render_match_explanation(ring.records())
    else:
        transform = match(a.table, b.table, allow_output_neg=not args.np_only)
    elapsed = (time.perf_counter() - start) * 1e3
    if transform is None:
        print(f"NOT equivalent ({elapsed:.2f} ms)")
        if tier is not None:
            print(f"differentiated by: {tier} tier")
        if explanation:
            print(explanation)
        return 1
    print(f"npn-equivalent ({elapsed:.2f} ms)")
    print("transform:", transform.describe())
    if explanation:
        print(explanation)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    spec = load_circuit(args.file_a)
    impl = load_circuit(args.file_b)
    start = time.perf_counter()
    corr = match_circuits(spec, impl)
    elapsed = time.perf_counter() - start
    if corr is None:
        print(f"NOT equivalent ({elapsed:.3f} s)")
        return 1
    print(f"equivalent ({elapsed:.3f} s)")
    for i, (j, phase) in enumerate(zip(corr.output_mapping, corr.output_phases)):
        inv = " (inverted)" if phase else ""
        print(f"  output {spec.outputs[i].name} -> {impl.outputs[j].name}{inv}")
    pins = ", ".join(
        f"{a}->{'~' if (corr.input_phases >> a) & 1 else ''}{b}"
        for a, b in enumerate(corr.input_mapping)
    )
    print(f"  inputs: {pins}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    import random as random_mod

    from repro.engine import ClassificationEngine, EngineOptions

    if args.random:
        # Synthetic stress path: seeded random n-variable functions
        # straight into the engine, no circuit parsing (the large-n
        # soak).
        rng = random_mod.Random(args.seed)
        circuit = BenchmarkCircuit(
            f"random(n={args.n}, count={args.random}, seed={args.seed})",
            args.n,
            tuple(
                OutputFunction(
                    f"r{k}", TruthTable.random(args.n, rng), tuple(range(args.n))
                )
                for k in range(args.random)
            ),
        )
    elif args.file is None:
        raise SystemExit("classify needs a circuit file (or --random COUNT)")
    else:
        circuit = load_circuit(args.file)
    tables = [out.table for out in circuit.outputs]
    options = EngineOptions(cache_size=args.cache_size)
    result = ClassificationEngine(options).classify(tables)
    if args.json:
        from repro.obs import stats_json

        print(
            stats_json(
                {
                    "circuit": circuit.name,
                    "outputs": len(circuit.outputs),
                    "num_classes": result.num_classes,
                    "engine": result.stats,
                }
            )
        )
        return 0
    if args.report == "json":
        import json

        report = result.report_dict()
        report["circuit"] = circuit.name
        for cls in report["classes"]:
            cls["outputs"] = [circuit.outputs[i].name for i in cls["members"]]
        print(json.dumps(report, indent=2))
        return 0
    print(
        f"{circuit.name}: {len(circuit.outputs)} outputs, "
        f"{result.num_classes} npn classes"
    )
    for idx, (key, members) in enumerate(sorted(result.members.items())):
        names = ", ".join(circuit.outputs[i].name for i in members)
        label = "rep" if key.quarantined else "canon"
        print(f"  class {idx} (n={key.n}, {label}=0x{key.key:x}): {names}")
    if args.stats:
        s = result.stats
        print(
            f"  [engine: {s.canonicalizations} canonicalizations, "
            f"{s.membership_hits}/{s.membership_probes} probe hits, "
            f"{s.duplicates} duplicates, {s.total_seconds * 1e3:.1f} ms]"
        )
        lookups = s.cache_hits + s.cache_misses
        rate = (100.0 * s.cache_hits / lookups) if lookups else 0.0
        print(
            f"  [cache: {s.cache_hits} hits / {s.cache_misses} misses "
            f"({rate:.0f}%), {s.cache_evictions} evictions]"
        )
    return 0


def cmd_symmetries(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.file)
    for out in circuit.outputs:
        pairs = all_pair_symmetries_via_grm(out.table)
        symmetric = {p: k for p, k in pairs.items() if k}
        lin = linear_variables(out.table)
        print(f"output {out.name} (support {list(out.support)}):")
        if not symmetric and not lin:
            print("  no symmetries")
        for (i, j), kinds in sorted(symmetric.items()):
            gi, gj = out.support[i], out.support[j]
            print(f"  x{gi}, x{gj}: {', '.join(sorted(kinds))}")
        if lin:
            names = [f"x{out.support[i]}" for i in range(out.table.n) if (lin >> i) & 1]
            print(f"  linear: {', '.join(names)}")
    return 0


def cmd_minimize(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.file)
    for out in circuit.outputs:
        n = out.table.n
        mpole = decide_polarity_primary(out.table).polarity
        mpole_cubes = Grm.from_truthtable(out.table, mpole).num_cubes()
        if n <= args.exact_limit:
            res = minimize_exact(out.table, objective=args.objective)
            how = "exact"
        else:
            res = minimize_greedy(out.table, objective=args.objective)
            how = "greedy"
        print(
            f"{out.name}: n={n} M-pole cubes={mpole_cubes} "
            f"minimum={res.cube_count} (polarity {res.polarity:0{n}b}, {how}, "
            f"{res.literal_count} literals)"
        )
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    from repro.boolfunc.dsd import decompose
    from repro.grm.esop import minimize_esop

    circuit = load_circuit(args.file)
    for out in circuit.outputs:
        d = decompose(out.table)
        line = f"{out.name}: {d.describe()}"
        if args.esop:
            res = minimize_esop(out.table)
            line += f"  [ESOP: {res.initial_count} GRM cubes -> {res.cube_count}]"
        print(line)
    return 0


def _load_netlist(ref: str):
    """Load ``.blif`` / ``.pla`` / ``bench:NAME`` as a structural netlist.

    Unlike :func:`load_circuit`, a BLIF file keeps its gate structure —
    the whole-netlist mapping flow consumes the netlist as written
    instead of collapsing it to per-output truth tables first.
    """
    path = Path(ref)
    if path.suffix == ".blif" and not ref.startswith("bench:"):
        return parse_blif(path.read_text())
    return load_circuit(ref).to_netlist()


def cmd_map(args: argparse.Namespace) -> int:
    from repro.aig import Aig, AigMapper
    from repro.benchcircuits import write_blif

    netlist = _load_netlist(args.file)
    aig = Aig.from_netlist(netlist)
    store = None
    if args.store:
        store = _open_store(args, create=True)
    mapper = AigMapper(
        cut_size=args.cut_size,
        max_cuts_per_node=args.max_cuts,
        store=store,
    )
    start = time.perf_counter()
    result = mapper.map(aig)
    elapsed = time.perf_counter() - start
    if store is not None:
        store.flush()
    if result is None:
        print("mapping failed: library cannot cover the subject")
        return 1
    stats = result.stats
    if args.json:
        from repro.obs import stats_json

        print(
            stats_json(
                {
                    "circuit": netlist.name,
                    "and_nodes": aig.num_ands(),
                    "cells": len(result.nodes),
                    "area": result.area,
                    "elapsed_seconds": elapsed,
                    "cell_histogram": result.cell_histogram(),
                    "stats": stats,
                }
            )
        )
    else:
        print(
            f"{netlist.name}: {aig.num_ands()} AND nodes -> "
            f"{len(result.nodes)} cells, area {result.area:.1f} "
            f"({elapsed:.2f} s)"
        )
        for cell, count in sorted(
            result.cell_histogram().items(), key=lambda kv: -kv[1]
        ):
            print(f"  {cell:<8} x{count}")
    if args.stats and not args.json:
        print(
            f"cuts evaluated      {stats.cuts_evaluated}\n"
            f"distinct functions  {stats.distinct_cut_functions} "
            f"(dedup {stats.dedup_rate() * 100.0:.1f}%)\n"
            f"cut classes         {stats.cut_classes} "
            f"({stats.bound_classes} bound, {stats.unbound_classes} unbound)\n"
            f"witness replays     {stats.witness_replays}\n"
            f"engine canon/cache/store hits  "
            f"{stats.engine_canonicalizations}/{stats.engine_cache_hits}/"
            f"{stats.engine_store_hits}\n"
            f"matcher calls       {stats.matcher_calls}"
        )
    if args.explain:
        from repro.obs import render_map_accounting

        print(render_map_accounting(result))
    if args.out:
        mapped = result.to_netlist(name=f"{netlist.name}_mapped")
        Path(args.out).write_text(write_blif(mapped))
        print(f"mapped netlist written to {args.out}")
    if args.verify:
        ok = result.verify(max_inputs=args.verify_inputs)
        print(f"verification: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


# ----------------------------------------------------------------------
# lib: the persistent npn class store
# ----------------------------------------------------------------------

def _open_store(args: argparse.Namespace, create: bool = False):
    from repro.store import ClassStore, StoreError

    try:
        return ClassStore(
            args.store, num_shards=getattr(args, "shards", 64), create=create
        )
    except StoreError as exc:
        raise SystemExit(f"error: {exc}")


def _random_tables(count: int, n: int, seed: int) -> List[TruthTable]:
    import random

    rng = random.Random(seed)
    return [TruthTable.random(n, rng) for _ in range(count)]


def cmd_lib_build(args: argparse.Namespace) -> int:
    from repro.engine import ClassificationEngine
    from repro.library import CellLibrary

    store = _open_store(args, create=True)
    if not args.no_cells:
        lib = CellLibrary()
        changed = lib.build_store(store)
        print(
            f"cell library: {len(lib.cells)} cells -> "
            f"{changed} new/updated class records"
        )
    funcs: List[TruthTable] = []
    for ref in args.circuit:
        circuit = load_circuit(ref)
        funcs.extend(out.table for out in circuit.outputs)
    if args.random:
        funcs.extend(_random_tables(args.random, args.n, args.seed))
    if funcs:
        engine = ClassificationEngine(store=store)
        result = engine.classify(funcs)
        s = result.stats
        print(
            f"classified {len(funcs)} functions: {result.num_classes} classes, "
            f"{s.store_new_classes} stored new, {s.store_hits} warm hits, "
            f"{s.canonicalizations} canonicalizations"
        )
    store.close()
    st = store.stats()
    print(
        f"store: {st['classes']} classes, "
        f"{st['shards_present']}/{st['num_shards']} shards, {st['bytes']} bytes"
    )
    return 0


def cmd_lib_query(args: argparse.Namespace) -> int:
    from repro.core.canonical import canonical_form
    from repro.engine import store_lookup
    from repro.library import CellLibrary
    from repro.store import StoreError

    store = _open_store(args)
    if args.file:
        circuit = load_circuit(args.file)
        items = [(out.name, out.table) for out in circuit.outputs]
    elif args.random:
        items = [
            (f"rand{i}", f)
            for i, f in enumerate(_random_tables(args.random, args.n, args.seed))
        ]
    else:
        raise SystemExit("error: lib query needs a FILE or --random COUNT")
    lib = None
    if args.bind:
        try:
            lib = CellLibrary.from_store(store)
        except StoreError:
            lib = CellLibrary(store=store)
    hits = 0
    for name, table in items:
        resolved = store_lookup(store, table)
        if resolved is not None:
            canon_bits = resolved[0]
            how = "warm"
            hits += 1
        else:
            canon_bits = canonical_form(table)[0].bits
            how = "cold"
        line = f"  {name}: n={table.n} class=0x{canon_bits:x} [{how}]"
        record = store.get(table.n, canon_bits)
        if record is not None and record.meta.get("kind") == "cell-class":
            line += " cells=" + ",".join(c["name"] for c in record.meta["cells"])
        if lib is not None:
            binding = lib.bind(table)
            line += (
                f" bind={binding.cell.name} (area {binding.cell.area:g})"
                if binding
                else " bind=none"
            )
        print(line)
    print(f"{hits}/{len(items)} warm hits")
    if args.expect_hits and hits == 0:
        print("error: expected warm hits, got none", file=sys.stderr)
        return 1
    return 0


def cmd_lib_stats(args: argparse.Namespace) -> int:
    from repro.store import StoreError

    store = _open_store(args)
    st = store.stats()
    print(f"store {st['path']}")
    print(
        f"  {st['classes']} classes, "
        f"{st['shards_present']}/{st['num_shards']} shards, {st['bytes']} bytes"
    )
    for n, count in st["classes_by_n"].items():
        print(f"  n={n}: {count} classes")
    if args.verify:
        try:
            total = store.verify()
        except StoreError as exc:
            print(f"verify: FAILED — {exc}", file=sys.stderr)
            return 1
        print(f"verify: {total} records OK (checksums + witnesses)")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.testing.fuzzer import FuzzConfig, run_fuzz, run_mutation_check

    if args.self_check:
        report = run_mutation_check(
            mutant=args.mutant,
            seed=args.seed,
            iters=args.iters or 300,
            budget_seconds=args.budget,
            max_n=args.max_n,
        )
        caught = not report.ok
        print(report.summary())
        print(
            f"mutation sanity check ({args.mutant}): "
            f"{'CAUGHT' if caught else 'MISSED — the harness is blind!'}"
        )
        return 0 if caught else 1

    try:
        config = FuzzConfig(
            seed=args.seed,
            iters=args.iters,
            budget_seconds=args.budget,
            min_n=args.min_n,
            max_n=args.max_n,
            metamorphic=not args.no_metamorphic,
            shrink=not args.no_shrink,
            corpus_dir=args.corpus,
            prekey_filter=args.prekey_filter,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_fuzz(config)
    print(report.summary())
    if not report.ok and args.corpus:
        print(f"witnesses written to {args.corpus}")
    return 0 if report.ok else 1


def cmd_table1(args: argparse.Namespace) -> int:
    names = args.names or circuit_names()
    print(f"{'test case':<10} {'#I':>4} {'#O':>4} {'#h':>4} {'time/output':>12}")
    for name in names:
        circuit = build_circuit(name)
        start = time.perf_counter()
        result = differentiate_circuit(
            circuit.name, circuit.n_inputs, circuit.output_pairs(), mode=args.mode
        )
        per_out = (time.perf_counter() - start) / max(1, circuit.n_outputs)
        print(
            f"{name:<10} {circuit.n_inputs:>4} {circuit.n_outputs:>4} "
            f"{result.hard_outputs:>4} {per_out * 1e3:>10.2f}ms"
        )
    return 0


def cmd_obs_report(args: argparse.Namespace) -> int:
    """Render a trace JSONL file or a metrics-snapshot JSON file.

    Auto-detects the format from the first JSON line: a
    ``metrics-snapshot`` object renders as counter tables, anything
    else is treated as span/event records and rendered as a trace tree.
    """
    import json

    from repro.obs import load_trace, render_metrics, render_trace_tree

    path = Path(args.file)
    if not path.exists():
        raise SystemExit(f"error: no such file: {args.file}")
    text = path.read_text()
    if not text.strip():
        print("(empty file)")
        return 0
    # A metrics snapshot is one (possibly pretty-printed) JSON object;
    # a trace is one JSON record per line.
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict) and payload.get("kind") == "metrics-snapshot":
        print(render_metrics(payload))
        return 0
    try:
        records = load_trace(path)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    print(render_trace_tree(records))
    return 0


def cmd_obs_top(args: argparse.Namespace) -> int:
    """Live terminal view of a serving daemon: poll /stats, render, repeat.

    The read side of the serving telemetry: windowed request rate and
    p50/p99, queue/batch state, per-tier match win rates — all derived
    from the daemon's HTTP shim, no server-side support beyond ``GET
    /stats``.  ``--count N`` renders N frames and exits (scriptable);
    the default polls until interrupted.
    """
    import json
    import urllib.error
    import urllib.request

    from repro.obs import render_top

    url = f"http://{args.host}:{args.port}/stats"
    frames = 0
    while True:
        try:
            with urllib.request.urlopen(url, timeout=5.0) as resp:
                payload = json.loads(resp.read())
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"error: cannot poll {url}: {exc}", file=sys.stderr)
            return 1
        if not payload.get("ok"):
            print(
                f"error: server replied {payload.get('error', 'internal')}: "
                f"{payload.get('detail', '')}",
                file=sys.stderr,
            )
            return 1
        frame = render_top(payload.get("result", {}))
        if not args.no_clear and sys.stdout.isatty():
            print("\x1b[2J\x1b[H", end="")
        print(frame, flush=True)
        frames += 1
        if args.count and frames >= args.count:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the matching daemon until SIGTERM/SIGINT (or a shutdown op)."""
    import asyncio

    from repro.engine import ClassificationEngine, EngineOptions
    from repro.obs import runtime as obs_runtime
    from repro.serve import MatchServer, ServeConfig

    store = _open_store(args, create=True) if args.store else None
    engine = ClassificationEngine(
        EngineOptions(cache_size=args.cache_size),
        store=store,
        auto_flush=False,
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        flush_interval=args.flush_interval,
        flight_dir=args.flight_dir,
        slow_request_ms=args.slow_request_ms,
    )
    metrics = obs_runtime.registry if obs_runtime.enabled else None
    server = MatchServer(engine=engine, config=config, metrics=metrics)

    async def run() -> None:
        await server.start()
        server.install_signal_handlers()
        cfg = server.config
        print(
            f"grm-match serve: listening on {cfg.host}:{server.port} "
            f"(max_batch={cfg.max_batch}, max_pending={cfg.max_pending}"
            f"{', store=' + str(args.store) if args.store else ''})",
            flush=True,
        )
        await server.wait_stopped()

    asyncio.run(run())
    if store is not None:
        try:
            store.close()
        except OSError as exc:
            print(f"grm-match serve: error: store flush failed: {exc}", file=sys.stderr)
            return 1
    print("grm-match serve: stopped")
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    """One request against a running daemon; result printed as JSON."""
    from repro.obs import stats_json
    from repro.serve.client import MatchClient, ServerError

    def need_files(count: int) -> None:
        if len(args.files) != count:
            raise SystemExit(
                f"error: client {args.op} takes exactly {count} FILE argument(s)"
            )

    try:
        with MatchClient(
            host=args.host, port=args.port, trace_id=args.trace_id
        ) as client:
            if args.op in ("ping", "stats", "shutdown"):
                need_files(0)
                print(stats_json(client.request({"op": args.op})))
                return 0
            if args.op == "match":
                need_files(2)
                a = _single_output(load_circuit(args.files[0]), args.files[0])
                b = _single_output(load_circuit(args.files[1]), args.files[1])
                result = client.match(a.table, b.table, witness=args.witness)
                print(stats_json(result))
                return 0 if result.get("equivalent") else 1
            # classify / lookup: one result per circuit output
            need_files(1)
            circuit = load_circuit(args.files[0])
            call = client.classify if args.op == "classify" else client.lookup
            print(
                stats_json({out.name: call(out.table) for out in circuit.outputs})
            )
            return 0
    except ServerError as exc:
        print(f"error: server replied {exc.code}: {exc.detail}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1


def cmd_bench_info(args: argparse.Namespace) -> int:
    spec = get_spec(args.name)
    circuit = build_circuit(args.name)
    kind = "exact" if spec.exact else "synthetic stand-in"
    print(f"{spec.name}: {spec.n_inputs} inputs, {spec.n_outputs} outputs ({kind})")
    for out in circuit.outputs[: args.limit]:
        print(
            f"  {out.name}: support={list(out.support)} "
            f"|f|={out.table.count()}/{1 << out.table.n}"
        )
    if len(circuit.outputs) > args.limit:
        print(f"  ... and {len(circuit.outputs) - args.limit} more outputs")
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    """An argparse type: a float greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grm-match",
        description="Boolean matching with Generalized Reed-Muller forms",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a span/event trace of the run as JSONL",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="write the metrics-registry snapshot as JSON on exit",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a timing-profile table to stderr on exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", help="npn-match two single-output functions")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--np-only", action="store_true", help="disallow output negation")
    p.add_argument(
        "--explain",
        action="store_true",
        help="trace the run and print the signature-refinement and "
        "prune-event explanation",
    )
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("verify", help="multi-output circuit correspondence")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="group outputs into npn classes")
    p.add_argument(
        "file", nargs="?", default=None, help="circuit, or omit with --random"
    )
    p.add_argument(
        "--cache-size",
        type=_int_at_least(1),
        default=1 << 16,
        dest="cache_size",
        help="canonical-key LRU cache bound (>= 1)",
    )
    p.add_argument(
        "--report",
        choices=("text", "json"),
        default="text",
        help="output format (json includes engine stats)",
    )
    p.add_argument(
        "--stats", action="store_true", help="append engine counters to text output"
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable engine stats as JSON (replaces text output)",
    )
    p.add_argument(
        "--random",
        type=int,
        default=0,
        metavar="COUNT",
        help="ignore FILE and classify COUNT random functions instead "
        "(large-n stress path; pair with --n and --seed)",
    )
    p.add_argument(
        "--n",
        type=int,
        default=14,
        help="variable count for --random functions",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="rng seed for --random"
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("symmetries", help="variable symmetries per output")
    p.add_argument("file")
    p.set_defaults(func=cmd_symmetries)

    p = sub.add_parser("minimize", help="minimum-cube FPRM polarity per output")
    p.add_argument("file")
    p.add_argument("--objective", choices=("cubes", "literals"), default="cubes")
    p.add_argument("--exact-limit", type=int, default=14)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("decompose", help="disjoint-support decomposition per output")
    p.add_argument("file")
    p.add_argument("--esop", action="store_true", help="also minimize an ESOP cover")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "map",
        help="whole-netlist technology mapping onto the cell library",
        description=(
            "Map a netlist (BLIF, PLA, or bench:NAME) onto the cell "
            "library: enumerate k-feasible cuts over the AIG, classify "
            "every distinct cut function through the batch engine, bind "
            "classes by witness replay, and pick a min-area cover."
        ),
    )
    p.add_argument("file")
    p.add_argument(
        "--cut-size", type=_int_at_least(2), default=4, help="leaves per cut (>= 2)"
    )
    p.add_argument(
        "--max-cuts",
        type=_int_at_least(1),
        default=16,
        help="pruned cuts kept per node (>= 1)",
    )
    p.add_argument(
        "--store",
        default=None,
        help="persistent class store directory for warm-start/write-back",
    )
    p.add_argument("--out", default=None, help="write the mapped netlist as BLIF")
    p.add_argument(
        "--stats", action="store_true", help="print mapping work counters"
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable mapping stats as JSON (replaces text output)",
    )
    p.add_argument(
        "--explain",
        action="store_true",
        help="print the per-npn-class accounting of the cover",
    )
    p.add_argument("--verify", action="store_true")
    p.add_argument(
        "--verify-inputs",
        type=int,
        default=14,
        help="per-output cone width bound for --verify",
    )
    p.set_defaults(func=cmd_map)

    p = sub.add_parser(
        "lib",
        help="persistent npn class store (build / query / stats)",
        description=(
            "Manage an on-disk sharded NPN class store: populate it from "
            "the cell library, benchmark circuits, or generated functions "
            "(build), resolve functions against it without canonicalizing "
            "(query), and inspect and integrity-check it (stats)."
        ),
    )
    libsub = p.add_subparsers(dest="lib_command", required=True)

    q = libsub.add_parser("build", help="create/extend a store")
    q.add_argument("store", help="store directory")
    q.add_argument(
        "--circuit",
        action="append",
        default=[],
        metavar="FILE",
        help="classify this circuit's outputs into the store (repeatable)",
    )
    q.add_argument(
        "--random", type=int, default=0, metavar="COUNT",
        help="also classify COUNT seeded random functions",
    )
    q.add_argument("--n", type=int, default=4, help="variables for --random")
    q.add_argument("--seed", type=int, default=0, help="seed for --random")
    q.add_argument(
        "--shards", type=_int_at_least(1), default=64, help="shard count (new stores)"
    )
    q.add_argument(
        "--no-cells", action="store_true", help="skip indexing the cell library"
    )
    q.set_defaults(func=cmd_lib_build)

    q = libsub.add_parser("query", help="warm-resolve functions against a store")
    q.add_argument("store", help="store directory")
    q.add_argument("file", nargs="?", default=None, help="circuit to resolve")
    q.add_argument(
        "--random", type=int, default=0, metavar="COUNT",
        help="resolve COUNT seeded random functions instead of a FILE",
    )
    q.add_argument("--n", type=int, default=4, help="variables for --random")
    q.add_argument("--seed", type=int, default=0, help="seed for --random")
    q.add_argument(
        "--bind", action="store_true", help="also bind each function to a cell"
    )
    q.add_argument(
        "--expect-hits",
        action="store_true",
        dest="expect_hits",
        help="exit 1 unless at least one warm hit occurred (CI smoke)",
    )
    q.set_defaults(func=cmd_lib_query)

    q = libsub.add_parser("stats", help="store summary")
    q.add_argument("store", help="store directory")
    q.add_argument(
        "--verify",
        action="store_true",
        help="full integrity sweep: checksums, framing, witnesses",
    )
    q.set_defaults(func=cmd_lib_stats)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing of the matcher against every baseline",
        description=(
            "Drive the GRM matcher and the exhaustive/signature/spectral "
            "baselines on the same seeded random pairs, verify every "
            "returned transform, and flag any disagreement.  Failing pairs "
            "are shrunk to minimal witnesses; --corpus persists them as "
            "JSON for the regression suite."
        ),
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--iters", type=int, default=None, help="iteration count")
    p.add_argument(
        "--budget", type=float, default=None, help="wall-clock budget in seconds"
    )
    p.add_argument("--min-n", type=int, default=1, dest="min_n")
    p.add_argument("--max-n", type=int, default=6, dest="max_n")
    p.add_argument(
        "--corpus", default=None, help="directory to write failing witnesses into"
    )
    p.add_argument("--no-metamorphic", action="store_true")
    p.add_argument("--no-shrink", action="store_true")
    p.add_argument(
        "--prekey-filter",
        choices=("off", "annotate", "discard"),
        default="off",
        dest="prekey_filter",
        help="batch pre-key prefilter on drawn pairs: annotate "
        "unknown-verdict pairs whose npn-invariant pre-keys differ as "
        "known-inequivalent, or discard them without a matcher run "
        "(default off: both modes change the seeded pair stream)",
    )
    p.add_argument(
        "--self-check",
        action="store_true",
        help="mutation sanity check: inject a known matcher bug and "
        "verify the harness catches it",
    )
    p.add_argument(
        "--mutant",
        choices=(
            "drop-negated",
            "identity-witness",
            "ignore-output-phase",
            "influence-phase",
            "sensitivity-unsorted",
        ),
        default="drop-negated",
        help="which bug to inject with --self-check",
    )
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("table1", help="run the paper's Table 1 experiment")
    p.add_argument("names", nargs="*", metavar="NAME")
    p.add_argument("--mode", choices=("paper", "enhanced"), default="paper")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("bench-info", help="describe a built-in benchmark")
    p.add_argument("name")
    p.add_argument("--limit", type=int, default=8)
    p.set_defaults(func=cmd_bench_info)

    p = sub.add_parser(
        "obs",
        help="observability utilities",
        description="Inspect artifacts produced by --trace / --metrics.",
    )
    obssub = p.add_subparsers(dest="obs_command", required=True)
    q = obssub.add_parser(
        "report", help="render a trace JSONL or metrics-snapshot JSON file"
    )
    q.add_argument("file")
    q.set_defaults(func=cmd_obs_report)
    q = obssub.add_parser(
        "top",
        help="live terminal view of a serving daemon (polls GET /stats)",
    )
    q.add_argument("--host", default="127.0.0.1")
    q.add_argument("--port", type=int, required=True)
    q.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between frames",
    )
    q.add_argument(
        "--count", type=int, default=0,
        help="render N frames then exit (0 = until interrupted)",
    )
    q.add_argument(
        "--no-clear", action="store_true", dest="no_clear",
        help="append frames instead of clearing the screen",
    )
    q.set_defaults(func=cmd_obs_top)

    p = sub.add_parser(
        "serve",
        help="run the matching daemon",
        description=(
            "Long-running matching service: newline-delimited JSON over "
            "TCP (plus an HTTP/1.1 shim on the same port) fronting the "
            "batch classification engine.  Requests that arrive while "
            "the engine is busy coalesce into its next kernel-batched "
            "classify() call; a bounded queue answers 'overloaded' under "
            "saturation; SIGTERM drains, flushes the store, and exits."
        ),
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7433, help="0 = ephemeral")
    p.add_argument(
        "--store",
        default=None,
        help="persistent class store directory (warm-start + write-back)",
    )
    p.add_argument(
        "--shards", type=_int_at_least(1), default=64, help="shard count (new stores)"
    )
    p.add_argument(
        "--max-batch", type=_int_at_least(1), default=128, dest="max_batch",
        help="most tables per engine call (1 = no coalescing)",
    )
    p.add_argument(
        "--max-pending", type=_int_at_least(1), default=1024, dest="max_pending",
        help="admitted-table bound; beyond it requests get 'overloaded'",
    )
    p.add_argument(
        "--flush-interval", type=_positive_float, default=2.0, dest="flush_interval",
        help="background store write-back period, seconds (> 0)",
    )
    # A daemon sees mostly one-off tables, so a larger bound mostly
    # retains tables that never return.
    p.add_argument(
        "--cache-size", type=_int_at_least(1), default=1 << 12, dest="cache_size",
        help="canonical-key LRU cache bound (>= 1)",
    )
    p.add_argument(
        "--flight-dir", default=None, dest="flight_dir",
        help="directory for automatic flight-recorder dumps (slow "
        "requests, overloaded/internal replies); SIGUSR2 always dumps",
    )
    p.add_argument(
        "--slow-request-ms", type=float, default=250.0, dest="slow_request_ms",
        help="latency threshold that triggers a flight dump (0 disables)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "client",
        help="talk to a running matching daemon",
        description=(
            "One request against a grm-match serve daemon; the result "
            "prints as JSON.  classify/lookup take one FILE (every "
            "circuit output is resolved), match takes two single-output "
            "FILEs, ping/stats/shutdown take none."
        ),
    )
    p.add_argument(
        "op", choices=("ping", "classify", "match", "lookup", "stats", "shutdown")
    )
    p.add_argument("files", nargs="*", metavar="FILE")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument(
        "--witness",
        action="store_true",
        help="ask match for the concrete mapping transform",
    )
    p.add_argument(
        "--trace-id", default=None, dest="trace_id",
        help="stamp every request with this wire-level trace id",
    )
    p.set_defaults(func=cmd_client)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not (args.trace or args.metrics or args.profile):
        return args.func(args)
    from repro.obs import MetricsRegistry
    from repro.obs import runtime as obs_runtime
    from repro.obs.trace import JsonlSink, TRACE_DETAIL, Tracer

    tracer = None
    if args.trace:
        tracer = Tracer([JsonlSink(args.trace)], level=TRACE_DETAIL)
    obs_runtime.enable(trace=tracer, metrics=MetricsRegistry())
    try:
        return args.func(args)
    finally:
        if args.metrics:
            obs_runtime.registry.dump_json(args.metrics)
        if args.profile:
            from repro.obs import render_profile

            print(render_profile(obs_runtime.registry), file=sys.stderr)
        obs_runtime.disable()


if __name__ == "__main__":
    sys.exit(main())
