"""Tests for the ``python -m repro`` command-line interface."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.cli import run

from test_elaborate import BAD_TOP_PARAMS, PARAMETERIZED, RECURSIVE
from test_serialize import designs

ALU = """
module alu #(parameter W = 4) (
  input [W-1:0] a, input [W-1:0] b, input [1:0] op,
  output reg [W-1:0] y
);
  always @(*) begin
    case (op)
      2'd0: y = a + b;
      2'd1: y = (a + b) + 1;
      2'd2: y = a & b;
      default: y = a | b;
    endcase
  end
endmodule
"""


@pytest.fixture
def alu_file(tmp_path):
    path = tmp_path / "alu.v"
    path.write_text(ALU)
    return str(path)


def _run(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_basic_stats(alu_file):
    code, text = _run([alu_file])
    assert code == 0
    assert "alu (elaborated):" in text
    assert "gates" in text and "registers" in text


def test_optimize_and_check(alu_file):
    code, text = _run([alu_file, "--optimize", "--check"])
    assert code == 0
    assert "alu (optimized):" in text
    assert "gates removed" in text
    assert "equivalence: PROVEN" in text


def test_json_report(alu_file):
    code, text = _run([alu_file, "--check", "--json"])
    assert code == 0
    report = json.loads(text)
    assert report["top"] == "alu"
    assert report["optimized_stats"]["gates"] <= report["stats"]["gates"]
    assert report["equivalence"]["equivalent"] is True
    assert report["optimization"]["passes"]


def test_param_override(alu_file):
    code, text = _run([alu_file, "--param", "W=8", "--json"])
    assert code == 0
    assert json.loads(text)["stats"]["outputs"] == 8


def test_custom_passes(alu_file):
    code, text = _run([alu_file, "--passes", "rewrite,fraig", "--json"])
    assert code == 0
    names = [row["name"] for row in
             json.loads(text)["optimization"]["passes"]]
    assert names == ["rewrite", "fraig", "balance"]


@pytest.mark.parametrize("spec,names", [
    ("rewrite, fraig", ["rewrite", "fraig", "balance"]),
    (" fraig ,rewrite", ["fraig", "rewrite", "balance"]),
    ("rewrite,", ["rewrite", "balance"]),
    (",,fraig,,", ["fraig", "balance"]),
])
def test_passes_ignore_spaces_and_empty_entries(alu_file, spec, names):
    code, text = _run([alu_file, "--passes", spec, "--json"])
    assert code == 0
    assert [row["name"] for row in
            json.loads(text)["optimization"]["passes"]] == names


def test_missing_file_diagnostic(capsys):
    assert run(["/nonexistent/x.v"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_syntax_error_diagnostic(tmp_path, capsys):
    path = tmp_path / "bad.v"
    path.write_text("module m(input a output y); endmodule")
    assert run([str(path)]) == 1
    assert "syntax error" in capsys.readouterr().err


@pytest.mark.parametrize("text,what", [
    ("module m(input a, output y);\n  /* open\n  assign y = a;\nendmodule\n",
     "unterminated block comment starting at line 2"),
    ('module m(input a, output y);\n\n  initial "open;\nendmodule\n',
     "unterminated string literal starting at line 3"),
])
def test_unterminated_input_diagnostic(tmp_path, capsys, text, what):
    path = tmp_path / "open.v"
    path.write_text(text)
    assert run([str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "syntax error" in err and what in err


def test_empty_source_diagnostic(tmp_path, capsys):
    path = tmp_path / "empty.v"
    path.write_text("")
    assert run([str(path)]) == 1
    assert capsys.readouterr().err == \
        "error: elaboration error: the source defines no module\n"


def test_elaboration_error_diagnostic(tmp_path, capsys):
    path = tmp_path / "undriven.v"
    path.write_text("module m(input a, output y); assign y = ghost; endmodule")
    assert run([str(path)]) == 1
    assert "elaboration error" in capsys.readouterr().err


def test_recursive_instantiation_diagnostic(tmp_path, capsys):
    path = tmp_path / "rec.v"
    source, top, module = RECURSIVE[0]
    path.write_text(source)
    assert run([str(path), "--top", top]) == 1
    assert capsys.readouterr().err == ("error: elaboration error: recursive "
                                       f"instantiation of module '{module}'\n")


def test_bad_param_diagnostic(alu_file, capsys):
    assert run([alu_file, "--param", "W"]) == 1
    assert "NAME=INTEGER" in capsys.readouterr().err


@pytest.mark.parametrize("params,message", BAD_TOP_PARAMS,
                         ids=["unknown", "local"])
def test_bad_top_parameter_diagnostic(tmp_path, capsys, params, message):
    path = tmp_path / "p.v"
    path.write_text(PARAMETERIZED)
    ((name, value),) = params.items()
    assert run([str(path), "--param", f"{name}={value}"]) == 1
    assert capsys.readouterr().err == f"error: elaboration error: {message}\n"


def test_top_parameter_is_checked_on_the_reference(tmp_path, alu_file,
                                                   capsys):
    """``--check-against`` elaborates the reference with the same
    ``--param`` values, so the reference must declare them too."""
    path = tmp_path / "alu_n.v"
    path.write_text(ALU.replace("parameter W = 4", "parameter N = 4")
                    .replace("W-1", "N-1"))
    assert run([alu_file, "--param", "W=4", "--check-against",
                str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: elaboration error: cannot override unknown "
        f"parameter 'W' of top module 'alu'\n")


@pytest.fixture
def non_utf8_file(tmp_path):
    path = tmp_path / "bad.v"
    path.write_bytes(b"\xff\xfe")
    return str(path)


NOT_UTF8 = "not UTF-8 text (byte 0: invalid start byte)"


def test_non_utf8_source_diagnostic(non_utf8_file, capsys):
    assert run([non_utf8_file]) == 1
    assert capsys.readouterr().err == \
        f"error: cannot read '{non_utf8_file}': {NOT_UTF8}\n"


def test_non_utf8_reference_diagnostic(alu_file, non_utf8_file, capsys):
    assert run([alu_file, "--check-against", non_utf8_file]) == 1
    assert capsys.readouterr().err == \
        f"error: cannot read '{non_utf8_file}': {NOT_UTF8}\n"


def test_non_utf8_stdin_diagnostic(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff")))
    assert run(["-"]) == 1
    assert capsys.readouterr().err == f"error: cannot read '-': {NOT_UTF8}\n"


def test_unknown_pass_diagnostic(alu_file, capsys):
    assert run([alu_file, "--passes", "nosuch"]) == 1
    assert "unknown pass" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        run([alu_file, "--no-fixpoint"])


def test_cycles_throughput_readout(alu_file):
    code, text = _run([alu_file, "--cycles", "50"])
    assert code == 0
    assert "simulation: 50 cycles" in text
    assert "cyc/s" in text


def test_cycles_json_report(alu_file):
    code, text = _run([alu_file, "--optimize", "--cycles", "30", "--json",
                       "--seed", "7"])
    assert code == 0
    report = json.loads(text)
    sim = report["simulation"]
    assert "engine" not in sim
    assert sim["cycles"] == 30
    assert sim["cycles_per_second"] > 0


def test_check_reports_encode_and_solve_time(alu_file):
    code, text = _run([alu_file, "--check", "--json"])
    assert code == 0
    equivalence = json.loads(text)["equivalence"]
    assert equivalence["encode_seconds"] > 0
    # The shared-AIG miter may prove every root pair by hashing, in which
    # case the solver never runs at all.
    if equivalence["hash_proven"] < equivalence["compared"]:
        assert equivalence["solve_seconds"] > 0
        assert equivalence["cnf_clauses"] > 0


def test_bad_cycles_diagnostic(alu_file, capsys):
    assert run([alu_file, "--cycles", "0"]) == 1
    assert "positive integer" in capsys.readouterr().err


def test_bad_map_rejected_before_any_work(alu_file, capsys, monkeypatch):
    # The LUT size is checked up front, like --cycles: no elaboration,
    # optimization or CEC runs for a run that cannot finish.
    def no_check(*args, **kwargs):
        raise AssertionError("check_equivalence called")

    monkeypatch.setattr(cli, "check_equivalence", no_check)
    assert run([alu_file, "--check", "--map", "9"]) == 1
    assert capsys.readouterr().err == \
        "error: --map expects a LUT size K between 2 and 6\n"


@pytest.mark.parametrize("extra, message", [
    (["--check", "--passes", "rewrite,nosuch"],
     "unknown pass 'nosuch' (known passes: fraig, rewrite)"),
    (["--check", "--emit", "{tmp}/no/such/dir/o.v"],
     "cannot write '{tmp}/no/such/dir/o.v': No such file or directory"),
    (["--check-against", "{tmp}/missing.v"],
     "cannot read '{tmp}/missing.v': No such file or directory"),
    (["--check", "--solve-log", "{tmp}/no/such/dir/p.drat"],
     "cannot write '{tmp}/no/such/dir/p.drat': No such file or directory"),
    (["--check", "--trace", "{tmp}/no/such/dir/t.json"],
     "cannot write '{tmp}/no/such/dir/t.json': No such file or directory"),
])
def test_bad_arguments_rejected_before_any_work(alu_file, tmp_path, capsys,
                                                extra, message):
    # Like --map: a bad pass name, an --emit, --solve-log or --trace
    # directory that does not exist or an unreadable --check-against
    # source fails the run before elaboration, so the --profile tree
    # holds no work, and the one diagnostic is the only stderr line.
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in extra]
    assert run([alu_file, *args, "--profile"]) == 1
    captured = capsys.readouterr()
    assert captured.err == \
        f"error: {message.replace('{tmp}', str(tmp_path))}\n"
    rows = captured.out.splitlines()
    assert rows[0].split()[0] == "span"
    spans = {row.split()[0] for row in rows[1:]}
    assert spans == {"run"}
    assert not spans & {"elaborate", "optimize", "cec"}


def _assert_usage_error(args, flag):
    """``python -m repro ARGS`` exits 2 with argparse's usage message for
    the unknown ``flag``, not a traceback."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage:")
    assert f"unrecognized arguments: {flag}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_retired_no_preprocess_flag_is_a_usage_error(alu_file):
    # CEC has no variable-elimination stage to switch off.
    _assert_usage_error([alu_file, "--check", "--no-preprocess"],
                        "--no-preprocess")


def test_retired_sim_flag_is_a_usage_error(alu_file):
    # Word-level simulation has one engine, the compiled one.
    _assert_usage_error([alu_file, "--cycles", "5", "--sim", "interp"],
                        "--sim interp")


def test_retired_log_level_flag_is_a_usage_error(alu_file):
    # -v counts select the ndjson depth: none, top phases, everything.
    _assert_usage_error([alu_file, "--log-level", "debug"],
                        "--log-level debug")


def test_retired_jobs_flag_is_a_usage_error(alu_file):
    # CEC solves every miter in one process.
    _assert_usage_error([alu_file, "--check", "--jobs", "2"], "--jobs 2")


def test_ir_aig_stats(alu_file):
    code, text = _run([alu_file, "--ir", "aig"])
    assert code == 0
    assert "alu (aig):" in text
    assert "ands" in text
    code, text = _run([alu_file, "--ir", "aig", "--optimize", "--json"])
    assert code == 0
    report = json.loads(text)
    assert report["aig_stats"]["ands"] > 0
    assert report["optimized_aig_stats"]["ands"] <= \
        report["aig_stats"]["ands"]


def test_passes_fraig(alu_file):
    code, text = _run([alu_file, "--passes", "fraig", "--check",
                       "--json"])
    assert code == 0
    report = json.loads(text)
    assert [row["name"] for row in report["optimization"]["passes"]] \
        == ["fraig", "balance"]
    assert report["equivalence"]["equivalent"]


def test_emit_round_trips_through_the_frontend(alu_file, tmp_path):
    emitted = tmp_path / "alu_emitted.v"
    code, text = _run([alu_file, "--optimize", "--emit", str(emitted),
                       "--json"])
    assert code == 0
    assert json.loads(text)["emitted"] == str(emitted)
    # The emitted file must parse, elaborate and prove equivalent to the
    # original elaboration.
    from repro.netlist import elaborate
    from repro.netlist.sat import check_equivalence
    original = elaborate(ALU, top="alu")
    reparsed = elaborate(emitted.read_text(), top="alu")
    assert check_equivalence(original, reparsed).equivalent


def test_emit_write_failure_is_diagnosed(alu_file, tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "o.v"
    assert run([alu_file, "--emit", str(target)]) == 1
    assert "cannot write" in capsys.readouterr().err


def test_check_prints_solver_stats_when_solving(wide_mult_pair):
    # The two multipliers do not hash-merge, and a certified check above
    # the cube budget keeps the miter off exhaustive simulation, so it
    # reaches the solver and the human-readable output must carry the
    # search statistics line.
    fa, fb = wide_mult_pair
    code, text = _run([fa, "--check-against", fb, "--certify"])
    assert code == 0
    assert "solver:" in text
    assert "conflicts" in text and "restarts" in text
    assert "reduced clauses" in text
    assert "preprocessor:" not in text
    assert "subsumed" not in text and "vivified" not in text


def test_check_names_exhaustive_simulation_without_solver_line(mult_pair):
    # Uncertified, the 8-input multiplier miter is decided by simulating
    # all 256 input assignments: the headline names that stage and no
    # solve ran, so there is no solver line.
    fa, fb = mult_pair
    code, text = _run([fa, "--check-against", fb])
    assert code == 0
    assert ("equivalence: PROVEN (8 functions: 2 hash-proven, "
            "6 proven by exhaustive simulation)") in text
    assert "miter UNSAT" not in text
    assert "solver:" not in text
    code, text = _run([fa, "--check-against", fb, "--json"])
    equivalence = json.loads(text)["equivalence"]
    assert equivalence["sim_proven"] == 6
    assert equivalence["solver"]["conflicts"] == 0
    assert equivalence["cnf_clauses"] == 0


def test_check_names_sweep_without_solver_line(tmp_path):
    # The flow's W=16 ALU has 35 inputs, too many to enumerate, and the
    # miter sweep proves every output of its optimized self-check.
    design = designs.alu(16)
    path = tmp_path / "alu.v"
    path.write_text(design.src)
    code, text = _run([str(path), "--top", design.top, "-O", "--check"])
    assert code == 0
    assert "equivalence: PROVEN (16 functions: 16 sweep-proven)" in text
    assert "miter UNSAT" not in text
    assert "solver:" not in text


def test_solve_log_keeps_the_solve(wide_mult_pair, tmp_path):
    # A streamed DRAT log needs an UNSAT proof to log; above the cube
    # budget that proof comes from the solver, so the miter skips
    # exhaustive simulation and the headline credits the solver.
    fa, fb = wide_mult_pair
    code, text = _run([fa, "--check-against", fb,
                       "--solve-log", str(tmp_path / "p.drat")])
    assert code == 0
    assert "6 SAT-proven (miter UNSAT" in text
    assert "proven by exhaustive simulation" not in text
    assert "solver:" in text


def test_certify_names_the_cube_proof(mult_pair, tmp_path):
    # Within the cube budget a certified run is decided by exhaustive
    # simulation, and its DRAT proof is a checked cube tree: 2**8 + 2**7
    # - 1 lemmas over the 8 inputs, streamed to the log.  No solve ran.
    from repro.netlist.sat import parse_drat

    fa, fb = mult_pair
    log = tmp_path / "p.drat"
    code, text = _run([fa, "--check-against", fb, "--certify",
                       "--solve-log", str(log)])
    assert code == 0
    assert ("equivalence: PROVEN (8 functions: 2 hash-proven, 6 proven "
            "by exhaustive simulation (DRAT-checked, 383 lemmas))") in text
    assert "solver:" not in text
    assert "independently checked" in text
    steps = parse_drat(log.read_text())
    assert sum(1 for kind, _ in steps if kind == "a") == 383


def test_check_omits_solver_stats_when_hash_proven(alu_file):
    # The ALU self-CEC fully hash-merges in the shared AIG, so no solver
    # ran and no stats line should print.  Assert the precondition too:
    # if hash-proving ever stops covering this miter the test must flag
    # it rather than pass vacuously.
    code, text = _run([alu_file, "--check"])
    assert code == 0
    assert "hash-merged" in text
    assert "solver:" not in text


def test_check_json_carries_new_solver_counters(wide_mult_pair):
    # Certified and above the cube budget, so exhaustive simulation
    # leaves the miter to the solver.
    fa, fb = wide_mult_pair
    code, text = _run([fa, "--check-against", fb, "--certify", "--json"])
    assert code == 0
    equivalence = json.loads(text)["equivalence"]
    assert equivalence["hash_proven"] < equivalence["compared"]
    solver = equivalence["solver"]
    assert solver["propagations"] > 0
    for key in ("conflicts", "restarts", "lbd_sum", "reduced_clauses",
                "gc_runs"):
        assert key in solver


# ---------------------------------------------------------------------------
# Certified equivalence: --certify, --solve-log, --check-against
# ---------------------------------------------------------------------------

MULT_A = """
module mult #(parameter W = 4) (
  input [W-1:0] a, input [W-1:0] b,
  output [2*W-1:0] p
);
  assign p = a * b;
endmodule
"""

# Same function, different structure (re-associated partial sum), so the
# miter does not fully hash-merge and the solver actually runs.
MULT_B = """
module mult #(parameter W = 4) (
  input [W-1:0] a, input [W-1:0] b,
  output [2*W-1:0] p
);
  wire [2*W-1:0] partial;
  assign partial = (b[0] ? {{W{1'b0}}, a} : {2*W{1'b0}});
  assign p = partial + ((b >> 1) * a << 1);
endmodule
"""

MULT_BAD = """
module mult #(parameter W = 4) (
  input [W-1:0] a, input [W-1:0] b,
  output [2*W-1:0] p
);
  assign p = a * b + 1;
endmodule
"""


def _with_bus(src):
    """Add an 8-bit pass-through bus.  Its output pairs hash-merge, but
    its 8 extra leaves take the certified miter above the cube budget,
    so ``--certify`` and ``--solve-log`` reach the solver."""
    return src.replace(
        "output [2*W-1:0] p\n);",
        "output [2*W-1:0] p,\n  input [7:0] c, output [7:0] q\n);\n"
        "  assign q = c;")


@pytest.fixture
def mult_pair(tmp_path):
    fa = tmp_path / "mult_a.v"
    fb = tmp_path / "mult_b.v"
    fa.write_text(MULT_A)
    fb.write_text(MULT_B)
    return str(fa), str(fb)


@pytest.fixture
def wide_mult_pair(tmp_path):
    fa = tmp_path / "wide_mult_a.v"
    fb = tmp_path / "wide_mult_b.v"
    fa.write_text(_with_bus(MULT_A))
    fb.write_text(_with_bus(MULT_B))
    return str(fa), str(fb)


def test_check_against_cross_design(mult_pair):
    fa, fb = mult_pair
    code, text = _run([fa, "--check-against", fb])
    assert code == 0
    assert "equivalence: PROVEN" in text


def test_check_against_refuted_exits_2(mult_pair, tmp_path):
    fa, _ = mult_pair
    bad = tmp_path / "mult_bad.v"
    bad.write_text(MULT_BAD)
    code, text = _run([fa, "--check-against", str(bad)])
    assert code == 2
    assert "equivalence: REFUTED" in text


def test_check_against_missing_file_diagnostic(mult_pair, capsys):
    fa, _ = mult_pair
    assert run([fa, "--check-against", "no/such/file.v"]) == 1
    assert "no/such/file.v" in capsys.readouterr().err


def test_certify_checks_proof_and_reports_it(mult_pair):
    fa, fb = mult_pair
    code, text = _run([fa, "--check-against", fb, "--certify"])
    assert code == 0
    assert "independently checked" in text


def test_certify_json_proof_block(mult_pair):
    fa, fb = mult_pair
    code, text = _run([fa, "--check-against", fb, "--certify", "--json"])
    assert code == 0
    report = json.loads(text)
    eq = report["equivalence"]
    assert eq["against"].endswith("mult_b.v")
    proof = eq["proof"]
    assert proof["certified"] is True
    assert proof["checked"] is True
    assert proof["clauses"] > 0
    assert proof["bytes"] > 0
    assert proof["check_seconds"] >= 0.0


def test_certify_hash_proven_has_nothing_to_check(alu_file):
    # The self-CEC fully hash-merges: certification is requested but no
    # solver UNSAT verdict exists, so checked stays None and exit is 0.
    code, text = _run([alu_file, "--check", "--certify"])
    assert code == 0
    assert "nothing to check" in text


def test_solve_log_writes_parseable_drat(mult_pair, tmp_path):
    from repro.netlist.sat import parse_drat

    fa, fb = mult_pair
    log = tmp_path / "cec.drat"
    code, text = _run([fa, "--check-against", fb, "--certify", "--json",
                       "--solve-log", str(log)])
    assert code == 0
    report = json.loads(text)
    proof = report["equivalence"]["proof"]
    assert proof["log"] == str(log)
    steps = parse_drat(log.read_text())
    assert sum(1 for kind, _ in steps if kind == "a") == proof["clauses"]


def test_solve_log_implies_check(mult_pair, tmp_path):
    fa, fb = mult_pair
    code, text = _run([fa, "--solve-log", str(tmp_path / "p.drat")])
    assert code == 0
    assert "equivalence: PROVEN" in text


def test_solve_log_write_failure_is_diagnosed(mult_pair, tmp_path, capsys):
    fa, fb = mult_pair
    target = tmp_path / "no" / "such" / "dir" / "p.drat"
    assert run([fa, "--check-against", fb, "--solve-log", str(target)]) == 1
    assert "cannot write" in capsys.readouterr().err


def test_trace_json_carries_histogram_metrics(wide_mult_pair, tmp_path):
    fa, fb = wide_mult_pair
    code, text = _run([fa, "--check-against", fb, "--certify", "--json",
                       "--trace", str(tmp_path / "t.json")])
    assert code == 0
    metrics = json.loads(text)["trace"]["metrics"]
    hist = metrics["cec.solve_seconds"]
    assert hist["type"] == "histogram"
    assert hist["count"] == 1
    assert "p50" in hist and "p95" in hist


# ---------------------------------------------------------------------------
# The result cache (--cache)
# ---------------------------------------------------------------------------

def test_cache_cold_then_warm(mult_pair, tmp_path):
    fa, fb = mult_pair
    cache = str(tmp_path / "cec-cache")
    code, text = _run([fa, "--check-against", fb, "--cache", cache,
                       "--json"])
    assert code == 0
    cold = json.loads(text)["equivalence"]
    assert cold["cache_hit"] is False
    code, text = _run([fa, "--check-against", fb, "--cache", cache,
                       "--json"])
    assert code == 0
    warm = json.loads(text)["equivalence"]
    assert warm["cache_hit"] is True
    assert warm["equivalent"] == cold["equivalent"]
    assert warm["compared"] == cold["compared"]


@pytest.mark.parametrize("sub", ["", "sub"])
def test_unusable_cache_directory_diagnostic(alu_file, capsys, sub):
    cache = f"{alu_file}/{sub}" if sub else alu_file
    assert run([alu_file, "--check", "--cache", cache]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot use cache directory '{cache}': ")
    assert err.count("\n") == 1


def test_cache_refuted_still_exits_2(mult_pair, tmp_path):
    fa, _ = mult_pair
    bad = tmp_path / "mult_bad.v"
    bad.write_text(MULT_BAD)
    cache = str(tmp_path / "cec-cache")
    assert run([fa, "--check-against", str(bad), "--cache", cache]) == 2
    # The cached replay must preserve the refuted exit code too.
    assert run([fa, "--check-against", str(bad), "--cache", cache]) == 2
