"""Tests for the grm-match command-line interface."""

import pytest

from repro.cli import build_parser, load_circuit, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_match_equivalent(capsys):
    code, out = run_cli(capsys, "match", "bench:9sym", "bench:9sym")
    assert code == 0
    assert "npn-equivalent" in out


def test_match_inequivalent(capsys):
    code, out = run_cli(capsys, "match", "bench:cm150a", "bench:parity")
    assert code == 1
    assert "NOT" in out or "not matchable" in out


def test_match_explain_reports_differentiating_tier(tmp_path, capsys):
    or3 = tmp_path / "or3.pla"
    or3.write_text(".i 3\n.o 1\n.p 3\n1-- 1\n-1- 1\n--1 1\n.e\n")
    maj3 = tmp_path / "maj3.pla"
    maj3.write_text(".i 3\n.o 1\n.p 3\n11- 1\n1-1 1\n-11 1\n.e\n")
    code, out = run_cli(capsys, "match", str(or3), str(maj3), "--explain")
    assert code == 1
    assert "differentiated by:" in out
    assert "signature_tier" in out


def test_match_requires_single_output():
    with pytest.raises(SystemExit):
        main(["match", "bench:rd73", "bench:rd73"])


def test_match_named_output(capsys):
    code, out = run_cli(capsys, "match", "bench:rd73:s0", "bench:rd73:s0")
    assert code == 0 and "npn-equivalent" in out


def test_verify_self(capsys):
    code, out = run_cli(capsys, "verify", "bench:con1", "bench:con1")
    assert code == 0
    assert "equivalent" in out


def test_verify_rejects(capsys):
    code, out = run_cli(capsys, "verify", "bench:con1", "bench:z4ml")
    assert code == 1


def test_classify(capsys):
    code, out = run_cli(capsys, "classify", "bench:cm138a")
    assert code == 0
    assert "1 npn classes" in out


def test_symmetries(capsys):
    code, out = run_cli(capsys, "symmetries", "bench:9sym")
    assert code == 0
    assert "NE" in out


def test_minimize(capsys):
    code, out = run_cli(capsys, "minimize", "bench:rd53")
    assert code == 0
    assert "minimum=" in out


def test_decompose_subcommand(capsys):
    code, out = run_cli(capsys, "decompose", "bench:z4ml", "--esop")
    assert code == 0
    assert "XOR" in out and "ESOP" in out


def test_map_subcommand(capsys):
    code, out = run_cli(capsys, "map", "bench:con1", "--verify")
    assert code == 0
    assert "PASS" in out and "area" in out


def test_map_stats_explain_and_blif_out(tmp_path, capsys):
    out_path = tmp_path / "mapped.blif"
    code, out = run_cli(
        capsys,
        "map",
        "bench:rd53",
        "--stats",
        "--explain",
        "--verify",
        "--out",
        str(out_path),
        "--store",
        str(tmp_path / "store"),
    )
    assert code == 0
    assert "distinct functions" in out and "witness replays" in out
    assert "classes" in out  # per-class accounting table
    assert "PASS" in out
    assert out_path.read_text().startswith(".model")


def test_map_blif_file_keeps_structure(tmp_path, capsys):
    # A BLIF input is mapped as the structural netlist it describes.
    blif = tmp_path / "fa.blif"
    blif.write_text(
        ".model fa\n.inputs a b cin\n.outputs sum\n"
        ".names a b cin sum\n100 1\n010 1\n001 1\n111 1\n.end\n"
    )
    code, out = run_cli(capsys, "map", str(blif), "--verify")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("flag, value", [("--cut-size", "1"), ("--max-cuts", "0")])
def test_map_rejects_out_of_range_cut_limits(flag, value, capsys):
    # A usage error, not a traceback, and never a silent remap at
    # another limit.
    with pytest.raises(SystemExit) as exc:
        main(["map", "bench:rd73", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}: must be at least" in captured.err
    assert "Traceback" not in captured.err
    assert "area" not in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "bench:9sym", "--cache-size", "0"],
        ["serve", "--cache-size", "0"],
        ["serve", "--max-pending", "0"],
        ["serve", "--max-batch", "-1"],
        ["serve", "--shards", "0"],
        ["serve", "--flush-interval", "0"],
        ["serve", "--flush-interval", "-1"],
        ["lib", "build", "STORE", "--shards", "0"],
    ],
    ids=" ".join,
)
def test_size_flags_reject_out_of_range_values(argv, capsys):
    # A usage error from the parser: never a traceback, a silent clamp,
    # or a daemon with write-back switched off.
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: must be" in err
    assert "Traceback" not in err


def test_table1_subset(capsys):
    code, out = run_cli(capsys, "table1", "con1", "z4ml")
    assert code == 0
    assert "con1" in out and "z4ml" in out


def test_bench_info(capsys):
    code, out = run_cli(capsys, "bench-info", "cm151a")
    assert code == 0
    assert "12 inputs" in out


def test_load_pla_and_blif(tmp_path, capsys):
    pla = tmp_path / "half.pla"
    pla.write_text(".i 2\n.o 2\n.p 3\n10 10\n01 10\n11 01\n.e\n")
    blif = tmp_path / "half.blif"
    blif.write_text(
        ".model half\n.inputs a b\n.outputs s c\n"
        ".names a b s\n10 1\n01 1\n.names a b c\n11 1\n.end\n"
    )
    code, out = run_cli(capsys, "verify", str(pla), str(blif))
    assert code == 0
    circuit = load_circuit(str(pla))
    assert circuit.n_inputs == 2 and len(circuit.outputs) == 2


def test_unknown_file_type(tmp_path):
    bad = tmp_path / "x.v"
    bad.write_text("module x; endmodule")
    with pytest.raises(SystemExit):
        load_circuit(str(bad))


def test_unknown_bench_output():
    with pytest.raises(SystemExit):
        load_circuit("bench:rd73:nope")


def test_classify_stats_reports_cache_counters(capsys):
    code, out = run_cli(capsys, "classify", "bench:cm138a", "--stats")
    assert code == 0
    assert "[cache:" in out
    assert "evictions" in out


def test_lib_build_query_stats_compact_workflow(tmp_path, capsys):
    store = str(tmp_path / "store")
    code, out = run_cli(
        capsys, "lib", "build", store,
        "--random", "20", "--n", "3", "--seed", "1", "--shards", "8",
    )
    assert code == 0
    assert "stored" in out

    code, out = run_cli(
        capsys, "lib", "query", store,
        "--random", "20", "--n", "3", "--seed", "1", "--expect-hits",
    )
    assert code == 0
    assert "20/20 warm hits" in out

    code, out = run_cli(capsys, "lib", "query", store, "bench:9sym")
    assert code == 0  # cold lookups are misses, not errors

    code, out = run_cli(capsys, "lib", "stats", store, "--verify")
    assert code == 0
    assert "classes" in out and "verify" in out

    # Every flush writes one line per class, so there is nothing left
    # to compact and the verb is gone.
    with pytest.raises(SystemExit) as exc:
        main(["lib", "compact", store])
    assert exc.value.code == 2
    assert "invalid choice: 'compact'" in capsys.readouterr().err

    code, out = run_cli(capsys, "lib", "stats", store, "--verify")
    assert code == 0


def test_lib_query_bind_shows_cell_bindings(tmp_path, capsys):
    store = str(tmp_path / "store")
    code, _ = run_cli(capsys, "lib", "build", store, "--shards", "4")
    assert code == 0
    code, out = run_cli(
        capsys, "lib", "query", store,
        "--random", "6", "--n", "2", "--seed", "2", "--bind", "--expect-hits",
    )
    assert code == 0
    assert "bind" in out


def test_lib_query_expect_hits_fails_on_cold_store(tmp_path, capsys):
    store = str(tmp_path / "store")
    code, _ = run_cli(
        capsys, "lib", "build", store,
        "--no-cells", "--random", "5", "--n", "3", "--seed", "1", "--shards", "4",
    )
    assert code == 0
    code, out = run_cli(
        capsys, "lib", "query", store,
        "--random", "5", "--n", "5", "--seed", "9", "--expect-hits",
    )
    assert code == 1


def test_lib_query_missing_store_errors(tmp_path):
    with pytest.raises(SystemExit):
        main(["lib", "query", str(tmp_path / "nope"), "--random", "1"])
