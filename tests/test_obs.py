"""Tests for :mod:`repro.obs` — tracing, exporters, CLI wiring."""

import io
import json
import threading
import time

import pytest

from repro.cli import run
from repro.netlist import elaborate, from_netlist
from repro.netlist.opt import FraigStats, fraig_sweep, optimize
from repro.netlist.sat import Solver, check_equivalence
from repro.netlist.sat.solver import SolverStats
from repro.obs import (
    NULL_TRACER,
    Tracer,
    attach_solver_progress,
    get_tracer,
    ndjson_sink,
    profile_tree,
    set_tracer,
    span_totals,
    to_chrome_trace,
    trace_metrics,
    use_tracer,
    write_chrome_trace,
)
from repro.obs.export import summarize

from test_elaborate import ALU as ELABORATE_ALU
from test_proof import MULT_A, MULT_B

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


# ---------------------------------------------------------------------------
# Tracer core
# ---------------------------------------------------------------------------


def test_span_nesting_paths():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("middle"):
            with tracer.span("inner"):
                pass
        with tracer.span("middle2"):
            pass
    by_name = {r.name: r for r in tracer.spans()}
    assert by_name["outer"].path == ()
    assert by_name["middle"].path == ("outer",)
    assert by_name["inner"].path == ("outer", "middle")
    assert by_name["middle2"].path == ("outer",)
    # Children close before their parent.
    names = [r.name for r in tracer.spans()]
    assert names.index("inner") < names.index("middle") < names.index("outer")


def test_span_args_and_set():
    tracer = Tracer()
    with tracer.span("work", kind="cec") as span:
        span.set(clauses=42)
        span.set(clauses=43, proven=True)  # overwrite + extend
    (record,) = tracer.spans()
    assert record.args == {"kind": "cec", "clauses": 43, "proven": True}
    assert record.duration >= 0.0


def test_span_name_is_positional_only():
    # Instrumentation sites pass free-form **args; "name" must be a legal
    # annotation key (cec.pair events use it for the output-pair name).
    tracer = Tracer()
    with tracer.span("pair", name="y[3]"):
        pass
    tracer.instant("pair.instant", name="y[0]")
    assert tracer.records[0].args["name"] == "y[3]"
    assert tracer.records[1].args["name"] == "y[0]"


def test_span_exception_safety():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise ValueError("boom")
    inner, outer = tracer.spans()
    assert inner.name == "inner" and outer.name == "outer"
    assert inner.args["exception"] == "ValueError"
    assert outer.args["exception"] == "ValueError"
    # The stack fully unwound: a new span is top-level again.
    with tracer.span("after"):
        pass
    assert tracer.spans()[-1].path == ()


def test_instants_carry_current_path():
    tracer = Tracer()
    with tracer.span("solve"):
        tracer.instant("progress", conflicts=100)
    instant = [r for r in tracer.records if r.duration is None][0]
    assert instant.path == ("solve",)
    assert instant.args["conflicts"] == 100
    # Instants are excluded from spans() and total_seconds().
    assert [r.name for r in tracer.spans()] == ["solve"]
    assert tracer.total_seconds("progress") == 0.0


def test_sink_receives_records_in_completion_order():
    seen = []
    tracer = Tracer(sink=seen.append)
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    assert [r.name for r in seen] == ["b", "a"]


def test_total_seconds_filters():
    tracer = Tracer()
    with tracer.span("phase"):
        with tracer.span("phase"):
            pass
    assert tracer.total_seconds("phase", depth=0) < \
        tracer.total_seconds("phase")
    assert tracer.total_seconds("other") == 0.0


# ---------------------------------------------------------------------------
# The null tracer and the process-wide current tracer
# ---------------------------------------------------------------------------


def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    span = NULL_TRACER.span("anything", gates=7)
    with span as inner:
        inner.set(more=1)
    NULL_TRACER.instant("event", name="n")


def test_null_tracer_shares_one_span_object():
    assert NULL_TRACER.span("a") is NULL_TRACER.span("b", x=1)


def test_disabled_overhead_is_small():
    # A span through NULL_TRACER must cost no more than a few microseconds;
    # compare against a live tracer to catch accidental work on the
    # disabled path (generous 10x bound: wall clocks jitter under load).
    n = 20_000

    def cost(tracer):
        start = time.perf_counter()
        for _ in range(n):
            with tracer.span("x", k=1):
                pass
        return time.perf_counter() - start

    live = cost(Tracer())
    cost(NULL_TRACER)  # warm up
    disabled = cost(NULL_TRACER)
    assert disabled < live * 10
    assert disabled / n < 50e-6


def test_use_tracer_installs_and_restores():
    assert get_tracer() is NULL_TRACER
    tracer = Tracer()
    with use_tracer(tracer) as installed:
        assert installed is tracer
        assert get_tracer() is tracer
    assert get_tracer() is NULL_TRACER


def test_use_tracer_restores_on_exception():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with use_tracer(tracer):
            raise RuntimeError
    assert get_tracer() is NULL_TRACER


def test_set_tracer_returns_previous():
    previous = set_tracer(tracer := Tracer())
    try:
        assert previous is NULL_TRACER
        assert get_tracer() is tracer
    finally:
        set_tracer(previous)


# ---------------------------------------------------------------------------
# Distribution summaries (trace.metrics)
# ---------------------------------------------------------------------------


def test_trace_metrics_summarizes_spans_and_instants():
    tracer = Tracer()
    for conflicts in (3, 1, 2):
        tracer.instant("fraig.proof", conflicts=conflicts)
    with tracer.span("cec.solve"):
        pass
    tracer.instant("cec.solve")  # an instant is not a solve
    tracer.instant("solver.progress", conflicts=50)
    metrics = trace_metrics(tracer)
    assert list(metrics) == ["cec.solve_seconds", "fraig.proof_conflicts"]
    proofs = metrics["fraig.proof_conflicts"]
    assert proofs["type"] == "histogram"
    assert proofs["count"] == 3 and proofs["sum"] == 6
    assert proofs["mean"] == 2.0
    assert proofs["min"] == 1 and proofs["max"] == 3
    (solve,) = tracer.spans()
    assert metrics["cec.solve_seconds"]["count"] == 1
    assert metrics["cec.solve_seconds"]["sum"] == solve.duration
    # No samples, no metric.
    assert trace_metrics(Tracer()) == {}


def test_histogram_percentiles():
    snap = summarize(list(range(1, 101)))  # 1..100
    assert snap["p50"] == 50 and snap["p95"] == 95
    assert snap["min"] == 1 and snap["max"] == 100
    assert snap["count"] == 100 and snap["mean"] == 50.5
    assert snap["sum"] == 5050


def test_histogram_percentile_empty_and_single():
    assert summarize([]) == {"type": "histogram", "count": 0, "sum": 0,
                             "min": None, "max": None, "mean": 0.0,
                             "p50": 0, "p95": 0}
    assert summarize([7.5]) == {"type": "histogram", "count": 1,
                                "sum": 7.5, "min": 7.5, "max": 7.5,
                                "mean": 7.5, "p50": 7.5, "p95": 7.5}


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def _traced_run():
    tracer = Tracer()
    with tracer.span("run"):
        with tracer.span("elaborate", gates=10):
            pass
        with tracer.span("optimize"):
            tracer.instant("progress", conflicts=2000)
    return tracer


def test_chrome_trace_schema():
    tracer = _traced_run()
    doc = to_chrome_trace(tracer)
    events = doc["traceEvents"]
    phases = [e["ph"] for e in events]
    # Metadata: process_name plus thread_name/thread_sort_index for the
    # one (main) thread that recorded spans.
    assert phases.count("M") == 3
    assert phases.count("X") == 3          # complete spans
    assert phases.count("i") == 1          # instant
    for event in events:
        assert {"name", "ph", "pid", "tid"} <= set(event)
        if event["ph"] == "X":
            assert event["dur"] >= 0 and event["ts"] >= 0
    # Chronology: ts in microseconds, children start no earlier than parent.
    by_name = {e["name"]: e for e in events if e["ph"] == "X"}
    assert by_name["run"]["ts"] <= by_name["elaborate"]["ts"]


def test_chrome_trace_thread_metadata():
    tracer = Tracer()
    with tracer.span("main_work"):
        pass
    worker = threading.Thread(target=lambda: tracer.span("w").__enter__()
                              .__exit__(None, None, None))
    worker.start()
    worker.join()
    doc = to_chrome_trace(tracer)
    names = {e["tid"]: e["args"]["name"]
             for e in doc["traceEvents"] if e["name"] == "thread_name"}
    sorts = {e["tid"]: e["args"]["sort_index"]
             for e in doc["traceEvents"] if e["name"] == "thread_sort_index"}
    assert names[tracer.main_tid] == "main"
    assert sorts[tracer.main_tid] == 0
    worker_tids = [tid for tid in names if tid != tracer.main_tid]
    assert worker_tids and names[worker_tids[0]] == "worker-1"
    assert sorts[worker_tids[0]] == 1


def test_chrome_trace_counter_tracks():
    tracer = Tracer()
    with tracer.span("solve"):
        tracer.instant("solver.progress", conflicts=100, restarts=1)
        tracer.instant("solver.progress", conflicts=250, mean_lbd=3.4)
        tracer.instant("other", conflicts=7)
    doc = to_chrome_trace(tracer)
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    # Only the graphed keys of solver.progress instants become counters.
    assert len(counters) == 3
    conflicts = [e for e in counters if e["name"] == "solver.conflicts"]
    assert [e["args"]["value"] for e in conflicts] == [100, 250]
    assert conflicts[0]["ts"] <= conflicts[1]["ts"]
    (lbd,) = [e for e in counters if e["name"] == "solver.mean_lbd"]
    assert lbd["args"]["value"] == 3.4
    # Each counter sits at its instant's timestamp.
    instants = [e for e in doc["traceEvents"]
                if e["ph"] == "i" and e["name"] == "solver.progress"]
    assert [e["ts"] for e in conflicts] == [e["ts"] for e in instants]
    assert lbd["ts"] == instants[1]["ts"]
    assert all(e["pid"] == tracer.pid for e in counters)


def test_chrome_trace_counter_tracks_name_their_lane():
    worker = Tracer()
    worker.instant("solver.progress", conflicts=2000, trail=9)
    tracer = Tracer()
    tracer.instant("solver.progress", conflicts=100)
    tracer.adopt(worker.records, tid=30_000_001)
    counters = {e["name"]: e["args"]["value"]
                for e in to_chrome_trace(tracer)["traceEvents"]
                if e["ph"] == "C"}
    assert counters == {"solver.conflicts": 100,
                        "worker-1 solver.conflicts": 2000,
                        "worker-1 solver.trail": 9}


def test_write_chrome_trace_round_trip(tmp_path):
    tracer = _traced_run()
    path = tmp_path / "trace.json"
    write_chrome_trace(tracer, str(path))
    doc = json.loads(path.read_text())
    # 3 spans + 1 instant + 3 metadata events.
    assert len(doc["traceEvents"]) == 7


def test_ndjson_sink_streams_and_filters_depth():
    stream = io.StringIO()
    tracer = Tracer(sink=ndjson_sink(stream, max_depth=1))
    with tracer.span("top"):
        with tracer.span("mid"):
            with tracer.span("deep"):   # depth 2: filtered out
                pass
    lines = [json.loads(line) for line in
             stream.getvalue().splitlines()]
    assert [entry["name"] for entry in lines] == ["mid", "top"]
    for entry in lines:
        assert {"ev", "name", "t_ms", "dur_ms"} <= set(entry)


class _BufferedStream(io.StringIO):
    """A non-tty stream that only exposes data after an explicit flush —
    the behavior of a block-buffered file or piped stderr."""

    def __init__(self):
        super().__init__()
        self.pending = ""
        self.visible = ""

    def write(self, text):
        self.pending += text
        return len(text)

    def flush(self):
        self.visible += self.pending
        self.pending = ""

    def isatty(self):
        return False


def test_ndjson_sink_flushes_each_line():
    stream = _BufferedStream()
    tracer = Tracer(sink=ndjson_sink(stream))
    with tracer.span("phase1"):
        pass
    # Live without any further flush: the line is already visible.
    assert json.loads(stream.visible)["name"] == "phase1"
    with tracer.span("phase2"):
        pass
    assert len(stream.visible.splitlines()) == 2


def test_ndjson_sink_flush_opt_out():
    stream = _BufferedStream()
    tracer = Tracer(sink=ndjson_sink(stream, flush=False))
    with tracer.span("phase"):
        pass
    assert stream.visible == "" and stream.pending != ""


def test_span_totals_top_level():
    tracer = _traced_run()
    totals = span_totals(tracer, depth=1)
    assert set(totals) == {"elaborate", "optimize"}
    assert all(seconds >= 0.0 for seconds in totals.values())


def test_profile_tree_structure():
    tracer = _traced_run()
    text = profile_tree(tracer)
    lines = text.splitlines()
    assert "span" in lines[0] and "self" in lines[0]
    # Indentation mirrors nesting; each aggregated span appears once.
    assert any(line.startswith("run") for line in lines)
    assert any(line.startswith("  elaborate") for line in lines)
    assert sum("elaborate" in line for line in lines) == 1
    assert "calls" in lines[0]


# ---------------------------------------------------------------------------
# Solver progress events
# ---------------------------------------------------------------------------


def _pigeonhole_clauses(holes):
    """PHP(holes+1, holes): UNSAT and conflict-rich."""
    pigeons = holes + 1

    def var(pigeon, hole):
        return pigeon * holes + hole + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


def test_progress_callback_cadence():
    num_vars, clauses = _pigeonhole_clauses(6)
    solver = Solver(num_vars)
    solver.add_clauses(clauses)
    reports = []
    solver.set_progress(reports.append, interval=50)
    result = solver.solve()
    assert not result.satisfiable
    assert solver.stats.conflicts >= 100
    assert len(reports) == solver.stats.conflicts // 50
    conflict_counts = [r["conflicts"] for r in reports]
    assert conflict_counts == sorted(conflict_counts)
    assert all(c % 50 == 0 for c in conflict_counts)
    for report in reports:
        assert {"conflicts", "restarts", "decisions", "propagations",
                "trail", "learned", "mean_lbd",
                "props_per_second"} <= set(report)


def test_progress_interval_validation():
    solver = Solver(2)
    with pytest.raises(ValueError):
        solver.set_progress(lambda report: None, interval=0)


def test_attach_solver_progress_emits_instants():
    num_vars, clauses = _pigeonhole_clauses(6)
    solver = Solver(num_vars)
    solver.add_clauses(clauses)
    tracer = Tracer()
    attach_solver_progress(solver, tracer, interval=50)
    with tracer.span("solve"):
        solver.solve()
    instants = [r for r in tracer.records
                if r.name == "solver.progress"]
    assert instants and all(r.path == ("solve",) for r in instants)
    # The Chrome trace graphs the same reports as counter tracks, key by
    # key, in time order.
    counters = [e for e in to_chrome_trace(tracer)["traceEvents"]
                if e["ph"] == "C"]
    for key in ("conflicts", "conflicts_per_second", "trail", "learned",
                "mean_lbd", "props_per_second"):
        track = [e for e in counters if e["name"] == f"solver.{key}"]
        assert [e["args"]["value"] for e in track] == \
            [r.args[key] for r in instants]
        times = [e["ts"] for e in track]
        assert times == sorted(times)
    assert len(counters) == 6 * len(instants)


def test_attach_solver_progress_noop_when_disabled():
    solver = Solver(2)
    attach_solver_progress(solver, NULL_TRACER)
    assert solver._progress_cb is None


# ---------------------------------------------------------------------------
# Solver stats satellites
# ---------------------------------------------------------------------------


def test_solver_stats_to_dict_mean_lbd():
    stats = SolverStats()
    assert stats.mean_lbd == 0.0
    stats.learned_clauses = 4
    stats.lbd_sum = 10
    snap = stats.to_dict()
    assert snap["mean_lbd"] == 2.5
    for key in ("conflicts", "decisions", "propagations", "restarts",
                "learned_clauses", "learned_literals", "lbd_sum",
                "reduced_clauses", "gc_runs"):
        assert key in snap


def test_solver_stats_accumulate():
    a = SolverStats()
    a.conflicts, a.lbd_sum, a.learned_clauses = 5, 12, 3
    b = SolverStats()
    b.conflicts, b.lbd_sum, b.learned_clauses = 2, 4, 1
    a.accumulate(b)
    assert (a.conflicts, a.lbd_sum, a.learned_clauses) == (7, 16, 4)


def test_rewrite_span_splits_into_cuts_eval_compact():
    """The rewrite sweep's time is attributed to its three phases."""
    tracer = Tracer()
    with use_tracer(tracer):
        result = optimize(elaborate(ALU, top="alu"))
    spans = [r for r in tracer.spans() if r.name.startswith("rewrite")]
    assert {r.name for r in spans} == {"rewrite", "rewrite.cuts",
                                       "rewrite.eval", "rewrite.compact"}
    (top,) = [r for r in spans if r.name == "rewrite"]
    assert top.args["ands_after"] <= top.args["ands_before"]
    for record in spans:
        if record is not top:
            assert record.path[-1] == "rewrite"
    (evaluated,) = [r for r in spans if r.name == "rewrite.eval"]
    assert "replacements" in evaluated.args
    (row,) = [r for r in result.stats if r.name == "rewrite"]
    assert evaluated.args["probes"] == row.details["probes"] > 0


def test_fraig_sweep_aggregates_solver_stats():
    netlist = elaborate(ALU, top="alu")
    stats = FraigStats()
    fraig_sweep(from_netlist(netlist), patterns=4, stats=stats)
    assert stats.sat_checks > 0
    # The per-proof solver counters are rolled up, not discarded.
    assert stats.solver.propagations > 0
    snap = stats.to_dict()
    assert snap["sat_checks"] == stats.sat_checks
    assert snap["sim_refuted"] == stats.sim_refuted
    assert snap["solver"]["propagations"] == stats.solver.propagations
    assert "mean_lbd" in snap["solver"]


def test_fraig_sweep_logs_one_proof_instant_per_merge():
    netlist = elaborate(ELABORATE_ALU.replace("W = 4", "W = 8"))
    stats = FraigStats()
    tracer = Tracer()
    with use_tracer(tracer):
        fraig_sweep(from_netlist(netlist), patterns=8, stats=stats)
    proofs = [r for r in tracer.records if r.name == "fraig.proof"]
    assert stats.proven > 0
    assert len(proofs) == stats.proven
    assert all(r.duration is None and r.args["conflicts"] >= 0
               for r in proofs)
    summary = trace_metrics(tracer)["fraig.proof_conflicts"]
    assert summary["count"] == stats.proven
    assert summary["sum"] == sum(r.args["conflicts"] for r in proofs)


# ---------------------------------------------------------------------------
# Engine instrumentation (spans land where the ISSUE says they do)
# ---------------------------------------------------------------------------


def test_pipeline_spans_cover_elaborate_opt_cec():
    tracer = Tracer()
    with use_tracer(tracer):
        netlist = elaborate(ALU, top="alu")
        result = optimize(netlist)
        verdict = check_equivalence(netlist, result.netlist)
        # The AIG miter hash-proves this workload without ever invoking
        # the solver; the two multipliers do not hash-merge, so with
        # simulation (and with it the sweep) off they also exercise the
        # encode/solve spans.
        solved = check_equivalence(elaborate(MULT_A), elaborate(MULT_B),
                                   sim_patterns=0)
    assert verdict.equivalent and solved.equivalent
    names = {r.name for r in tracer.spans()}
    assert {"elaborate", "elaborate.parse", "elaborate.lower",
            "optimize", "cec", "cec.lower", "cec.encode",
            "cec.solve"} <= names
    assert any(name.startswith("opt.") for name in names)
    # Top-level phases nest their internals.
    top = span_totals(tracer, depth=0)
    assert {"elaborate", "optimize", "cec"} <= set(top)
    # Hash-proven pairs surfaced as instants.
    pairs = [r for r in tracer.records if r.name == "cec.pair"]
    assert pairs and all("name" in r.args for r in pairs)


# ---------------------------------------------------------------------------
# CLI round trip
# ---------------------------------------------------------------------------


def _run(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_cli_trace_writes_chrome_json(alu_file, tmp_path):
    trace = tmp_path / "out.json"
    code, _ = _run([alu_file, "--check", "--trace", str(trace)])
    assert code == 0
    doc = json.loads(trace.read_text())
    events = doc["traceEvents"]
    names = {e["name"] for e in events}
    assert {"run", "elaborate", "optimize", "cec"} <= names
    spans = [e for e in events if e["ph"] == "X"]
    # The run span covers (almost) the whole timeline.
    run_span = next(e for e in spans if e["name"] == "run")
    horizon = max(e["ts"] + e["dur"] for e in spans)
    assert run_span["dur"] >= 0.95 * horizon


def test_cli_profile_prints_tree(alu_file):
    code, text = _run([alu_file, "--check", "--profile"])
    assert code == 0
    assert "self" in text and "calls" in text
    assert "run" in text and "  elaborate" in text and "  cec" in text


def test_cli_json_report_includes_trace(alu_file, tmp_path):
    trace = tmp_path / "out.json"
    code, text = _run([alu_file, "--check", "--json",
                       "--trace", str(trace)])
    assert code == 0
    report = json.loads(text)
    spans = report["trace"]["spans"]
    assert {"elaborate", "optimize", "cec"} <= set(spans)
    assert report["trace"]["file"] == str(trace)
    assert trace.exists()


def test_cli_profile_with_json_keeps_stdout_parseable(alu_file, capsys):
    code, text = _run([alu_file, "--profile", "--json"])
    assert code == 0
    json.loads(text)  # profile went to stderr, stdout stays machine-readable
    assert "self" in capsys.readouterr().err


def test_cli_verbose_streams_ndjson(alu_file, capsys):
    code, _ = _run([alu_file, "--check", "-v"])
    assert code == 0
    err_lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.strip()]
    entries = [json.loads(line) for line in err_lines]
    names = {entry["name"] for entry in entries}
    assert {"elaborate", "cec"} <= names
    # Info level truncates below depth 2 — deep fraig internals stay
    # quiet ("in" is the slash-joined enclosing-span path).
    assert all(entry.get("in", "").count("/") <= 1 for entry in entries)


def test_cli_without_flags_leaves_tracing_disabled(alu_file, capsys):
    code, _ = _run([alu_file, "--check"])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert get_tracer() is NULL_TRACER


def test_cli_trace_unwritable_path_diagnosed(alu_file, tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.json"
    code, _ = _run([alu_file, "--trace", str(target)])
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Adopting worker-recorded spans (the multiprocessing stitch path)
# ---------------------------------------------------------------------------

def test_adopt_stitches_foreign_spans():
    worker = Tracer()
    with worker.span("solve"):
        with worker.span("encode"):
            pass
    parent = Tracer()
    parent.adopt(worker.records, tid=10_000_042)
    assert [r.name for r in parent.records] == ["encode", "solve"]
    assert all(r.tid == 10_000_042 for r in parent.records)
    # Nesting paths survive the move.
    assert parent.records[0].path == ("solve",)
    # Default alignment: the foreign trace ends "now" on the parent's
    # clock, so no adopted span finishes in the parent's future.
    now = time.perf_counter() - parent.epoch
    for record in parent.records:
        assert record.start + (record.duration or 0.0) <= now + 1e-6


def test_adopt_pickled_records_round_trip():
    import pickle

    worker = Tracer()
    with worker.span("server.job", pairs=3):
        pass
    shipped = pickle.loads(pickle.dumps(worker.records))
    parent = Tracer()
    parent.adopt(shipped)
    assert parent.records[0].name == "server.job"
    assert parent.records[0].args["pairs"] == 3


def test_adopt_empty_is_a_noop():
    parent = Tracer()
    parent.adopt([])
    assert parent.records == []
