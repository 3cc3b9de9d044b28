#!/usr/bin/env python
"""Benchmark the elaborate → optimize → simulate → verify pipeline.

Generates parameterized adder / mux-tree / counter / ALU designs, measures

* elaboration wall time,
* optimization wall time and gate/depth reduction,
* simulation throughput (cycles/second) before and after optimization,
* simulation-engine throughput: the per-gate interpreter vs the compiled
  straight-line engine vs the compiled engine with 1–256 stimulus patterns
  packed per net (``repro.netlist.sim``),
* equivalence-checker encodings: the shared hash-consed AIG miter vs the
  legacy gate-level Tseitin encoding — CNF size, hash-proven root pairs,
  end-to-end time — plus FRAIG gate-count deltas,
* SAT-solver and CEC-pipeline split: the staged equivalence pipeline
  (simulation refutation check, auto miter sweeping, structure-aware
  encoding, CNF preprocessing, seeded flat-array CDCL — the ``new``
  rows) against the legacy configuration (reference solver, plain
  Tseitin encoding, nothing else — the ``old`` rows) on miters that
  hash-proving cannot short-circuit: the cross-implementation
  multiplier CEC (array carry-save vs shift-and-add, with a hard
  solve-speedup floor), a deliberately-broken multiplier whose
  counterexample must be caught by the pre-solve simulation check at
  zero conflicts and replay through the simulator, a
  ``cec_preprocessed_certified`` row that pushes a preprocessed UNSAT
  proof through the independent DRAT checker, and a SAT-bound FRAIG
  sweep of the ALU,
* synthesis QoR: DAG-aware rewriting (pre/post AND counts per design,
  with an enforced gate-reduction floor on the W=16 ALU and a pre- vs
  post-rewrite FRAIG timing guard) and the priority-cut k-LUT mapper at
  k=4 and k=6 (LUT count, mapped depth, depth-target guard), every
  rewritten graph and every mapped netlist CEC-proven — the mapped ones
  after a full emit → re-elaborate round trip (``BENCH_map.json``),
* the verification service end-to-end (``repro.server``): a synthetic
  mixed batch (self-CECs, cross-implementation proofs, refutations,
  option variants plus repeat submissions) driven through a live daemon
  measuring jobs/sec and p50/p99 latency, a 1-vs-4 worker scaling row,
  a repeat-submission row pitting the two-tier result cache against a
  cold solve, and a guard that partitioned CEC (``jobs=4``) agrees with
  the serial engine on both an equivalent and a refuted miter,

and writes the results to ``BENCH_opt.json`` / ``BENCH_sim.json`` /
``BENCH_aig.json`` / ``BENCH_sat.json`` / ``BENCH_map.json`` /
``BENCH_server.json`` to seed
the performance trajectory across PRs.  The whole run executes under a live
:class:`repro.obs.Tracer`: every row carries a ``trace`` dict of
top-level span totals (elaborate / optimize / cec / fraig / sim.compile
seconds as the engines themselves reported them), the combined Chrome
trace-event timeline lands in ``BENCH_trace.json`` (load it in Perfetto
or ``chrome://tracing``), and the SAT tier re-runs the ALU FRAIG sweep
with tracing on vs off and fails if the enabled-tracer overhead exceeds
5%.  Every CEC tier runs *certified*: the solvers log DRAT proofs that
the independent RUP checker (``repro.netlist.sat.proof``) re-verifies,
any rejected or missing proof fails the run, the SAT tier re-runs the
FRAIG sweep with in-memory proof logging on vs off (interleaved,
best-of-N) and fails if logging costs more than 15%, and a separate
``alu_fraig_certified`` row re-checks every UNSAT merge proof from the
sweep.  ``--history FILE`` appends one compact JSONL summary row
(version, git revision, headline numbers) per run; ``--compare``
additionally warns on >20% direction-aware headline regressions against
the previous history row.  Compiled results are bit-checked against the
per-gate interpreter and the AST-level reference ``Interpreter`` while
benchmarking; the script exits non-zero if the compiled engine is ever
slower than the interpreted baseline, if the AIG-level miter CNF is ever
larger than the gate-level encoding, if FRAIG ever increases a design's
live AND count, if the two solvers ever disagree on a verdict, or if the
new solver's throughput regresses below the reference baseline.  ``--smoke``
shrinks the design sizes and cycle counts so CI can run the script in
seconds.

Usage::

    PYTHONPATH=src python scripts/bench.py [--smoke]
        [--out BENCH_opt.json] [--sim-out BENCH_sim.json]
        [--aig-out BENCH_aig.json] [--sat-out BENCH_sat.json]
        [--map-out BENCH_map.json] [--server-out BENCH_server.json]
        [--trace-out BENCH_trace.json]
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import datetime
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import threading
import time

from repro import __version__
from repro.netlist import (
    CompiledSim,
    Interpreter,
    compile_netlist,
    elaborate,
    from_netlist,
    simulate_sequence,
    simulate_vectors,
)
from repro.netlist import to_netlist
from repro.netlist.emit import netlist_to_verilog
from repro.netlist.opt import (
    FraigStats,
    MapStats,
    RewriteStats,
    fraig_sweep,
    map_aig,
    optimize,
    rewrite_aig,
)
from repro.netlist.sat import (
    ProofLog,
    ReferenceSolver,
    Solver,
    check_equivalence,
)
from repro.netlist.sim import input_word_widths
from repro.obs import (
    NULL_TRACER,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
    write_chrome_trace,
)
from repro.server import ServerClient, run_daemon


def _trace_mark() -> int:
    """Bookmark into the ambient tracer's record list (0 when disabled)."""
    return len(getattr(get_tracer(), "records", ()))


def _row_trace(mark: int) -> dict:
    """Top-level span totals (seconds) recorded since ``mark``.

    Aggregates depth-0 spans — elaborate / optimize / cec / fraig /
    sim.compile as the engines themselves reported them — so every
    benchmark row carries the pipeline-phase timings alongside the
    stopwatch numbers the guards compare.
    """
    records = getattr(get_tracer(), "records", ())
    totals: dict[str, float] = {}
    for record in records[mark:]:
        if record.duration is not None and record.depth == 0:
            totals[record.name] = totals.get(record.name, 0.0) \
                + record.duration
    return totals


class BenchTier:
    """Shared scaffolding for one benchmark tier.

    Every tier wraps its actual workload in the same three motions:
    collect result rows, collect regression-guard failures, and write a
    ``{version, python, ..., results}`` report JSON.  Centralising those
    here keeps the tier runners (opt / sim / aig / sat / server) down to
    workload + guards instead of each carrying its own copy.
    """

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self.failures: list[str] = []

    def add(self, row: dict) -> dict:
        self.rows.append(row)
        return row

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def guard(self, ok: bool, message: str) -> None:
        """Record a regression failure unless ``ok`` holds."""
        if not ok:
            self.fail(message)

    def report(self, out_path: str, **meta) -> dict:
        """Write the standard report skeleton; returns the report dict."""
        report = {"version": __version__,
                  "python": platform.python_version(),
                  **meta,
                  "results": self.rows}
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {out_path}")
        return report


def adder_design(width: int) -> tuple[str, str, list[str]]:
    src = f"""
module adder #(parameter W = {width}) (
  input [W-1:0] a, input [W-1:0] b, input cin,
  output [W:0] sum
);
  assign sum = a + b + cin;
endmodule
"""
    return "adder", src, ["a", "b", "cin"]


def muxtree_design(width: int) -> tuple[str, str, list[str]]:
    src = f"""
module muxtree #(parameter W = {width}) (
  input [W-1:0] a, input [W-1:0] b, input [W-1:0] c, input [W-1:0] d,
  input [1:0] sel,
  output reg [W-1:0] y
);
  always @(*) begin
    case (sel)
      2'd0: y = a;
      2'd1: y = b;
      2'd2: y = c;
      default: y = d;
    endcase
  end
endmodule
"""
    return "muxtree", src, ["a", "b", "c", "d", "sel"]


def counter_design(width: int) -> tuple[str, str, list[str]]:
    src = f"""
module counter #(parameter W = {width}) (
  input clk, input rst, input en, input [W-1:0] load, input do_load,
  output reg [W-1:0] q
);
  always @(posedge clk) begin
    if (rst) q <= 0;
    else if (do_load) q <= load;
    else if (en) q <= q + 1;
  end
endmodule
"""
    return "counter", src, ["clk", "rst", "en", "load", "do_load"]


def alu_design(width: int) -> tuple[str, str, list[str]]:
    # The redundant subexpressions (a + b twice, a - b vs the comparator's
    # internal borrow chain) are deliberate: they exercise structural
    # hashing the way real datapaths with shared operands do.
    src = f"""
module alu #(parameter W = {width}) (
  input [W-1:0] a, input [W-1:0] b, input [2:0] op,
  output reg [W-1:0] y
);
  always @(*) begin
    case (op)
      3'd0: y = a + b;
      3'd1: y = (a + b) + 1;
      3'd2: y = a - b;
      3'd3: y = (a - b) - 1;
      3'd4: y = a & b;
      3'd5: y = a | b;
      3'd6: y = a ^ b;
      default: y = (a < b) ? a : b;
    endcase
  end
endmodule
"""
    return "alu", src, ["a", "b", "op"]


def multiplier_design(width: int) -> tuple[str, str, list[str]]:
    # A carry-save array multiplier: each partial-product row feeds a 3:2
    # compressor (XOR sum / majority carry) and only the final row pays a
    # ripple add.  Structurally disjoint from the shift-and-add lowering
    # the frontend uses for `*`, so a miter against shift_add_multiplier
    # cannot be discharged by hash-proving — it is the solver benchmark.
    src = f"""
module multiplier #(parameter W = {width}) (
  input [W-1:0] a, input [W-1:0] b,
  output reg [2*W-1:0] p
);
  reg [2*W-1:0] aw;
  reg [2*W-1:0] row;
  reg [2*W-1:0] s;
  reg [2*W-1:0] c;
  reg [2*W-1:0] t;
  integer i;
  always @(*) begin
    aw = a;
    s = 0;
    c = 0;
    for (i = 0; i < W; i = i + 1) begin
      row = b[i] ? (aw << i) : 0;
      t = s ^ row ^ c;
      c = ((s & row) | (s & c) | (row & c)) << 1;
      s = t;
    end
    p = s + c;
  end
endmodule
"""
    return "multiplier", src, ["a", "b"]


def shift_add_multiplier_design(width: int) -> tuple[str, str, list[str]]:
    # `*` bit-blasts through repro.netlist.bitblast.v_mul: one AND-gated
    # partial product and a full ripple add per multiplier bit.
    src = f"""
module shift_add_multiplier #(parameter W = {width}) (
  input [W-1:0] a, input [W-1:0] b,
  output [2*W-1:0] p
);
  assign p = a * b;
endmodule
"""
    return "shift_add_multiplier", src, ["a", "b"]


# Cross-implementation multiplier proofs are exponential-ish in width for
# any CDCL solver; cap the multipliers in the generic benchmark tiers so
# the full run stays minutes, not hours (the SAT tier picks its own
# widths).  The gate-level encoding comparison gets a tighter cap still:
# without the shared AIG's hash-merging even the miter of two *identical*
# multiplier copies is a hard proof (that contrast is the point of the
# row, but seconds of it suffice).
multiplier_design.max_bench_width = 8
shift_add_multiplier_design.max_bench_width = 8
multiplier_design.max_gate_cec_width = 5
shift_add_multiplier_design.max_gate_cec_width = 5

DESIGNS = [adder_design, muxtree_design, counter_design, alu_design,
           multiplier_design, shift_add_multiplier_design]


def design_width(factory, width: int) -> int:
    return min(width, getattr(factory, "max_bench_width", width))


def random_vectors(netlist, cycles: int, rng: random.Random):
    widths = input_word_widths(netlist)
    return [
        {name: rng.getrandbits(width) for name, width in widths.items()}
        for _ in range(cycles)
    ]


def throughput(netlist, vectors) -> float:
    start = time.perf_counter()
    simulate_sequence(netlist, vectors)
    elapsed = time.perf_counter() - start
    return len(vectors) / elapsed if elapsed > 0 else float("inf")


def bench_design(factory, width: int, cycles: int, check: bool,
                 rng: random.Random) -> dict:
    name, src, _ = factory(width)
    mark = _trace_mark()
    start = time.perf_counter()
    netlist = elaborate(src, top=name)
    elaborate_s = time.perf_counter() - start

    start = time.perf_counter()
    result = optimize(netlist)
    optimize_s = time.perf_counter() - start

    vectors = random_vectors(netlist, cycles, rng)
    row = {
        "design": name,
        "width": width,
        "elaborate_seconds": elaborate_s,
        "optimize_seconds": optimize_s,
        "gates_before": result.gates_before,
        "gates_after": result.gates_after,
        "levels_before": result.levels_before,
        "levels_after": result.levels_after,
        "reduction": result.reduction,
        "sim_cycles": cycles,
        "sim_cycles_per_second_before": throughput(netlist, vectors),
        "sim_cycles_per_second_after": throughput(result.netlist, vectors),
    }
    # Cross-check while we are here: the optimized netlist must agree with
    # the original on the benchmark stimulus.
    state_b: dict = {}
    state_a: dict = {}
    for vector in vectors[: min(len(vectors), 50)]:
        out_b, state_b = simulate_vectors(netlist, vector, state_b)
        out_a, state_a = simulate_vectors(result.netlist, vector, state_a)
        if out_b != out_a:
            raise AssertionError(f"{name}: optimized netlist diverged")
    if check:
        verdict = check_equivalence(netlist, result.netlist)
        row["equivalence_proven"] = verdict.equivalent
        if not verdict.equivalent:
            raise AssertionError(f"{name}: equivalence refuted")
    row["trace"] = _row_trace(mark)
    return row


#: Pattern counts exercised by the packed (bit-parallel) benchmark.
PACK_WIDTHS = [1, 16, 64, 256]


def bench_sim(factory, width: int, cycles: int,
              rng: random.Random) -> dict:
    """Interpreted vs compiled vs compiled+packed throughput on one design."""
    name, src, _ = factory(width)
    mark = _trace_mark()
    netlist = elaborate(src, top=name)
    vectors = random_vectors(netlist, cycles, rng)

    start = time.perf_counter()
    interp_outputs = simulate_sequence(netlist, vectors, engine="interp")
    interp_s = time.perf_counter() - start

    start = time.perf_counter()
    compiled = compile_netlist(netlist)
    compile_s = time.perf_counter() - start

    sim = CompiledSim(compiled)
    start = time.perf_counter()
    compiled_outputs = sim.run_batch(vectors)
    compiled_s = time.perf_counter() - start

    # Bit-match both oracles: the per-gate interpreter over the full run and
    # the AST-level reference interpreter over a prefix (it is the slowest
    # engine by far).
    if compiled_outputs != interp_outputs:
        raise AssertionError(f"{name}: compiled engine diverged from "
                             f"per-gate interpreter")
    oracle_cycles = min(cycles, 64)
    oracle = Interpreter(src, top=name)
    if oracle.run(vectors[:oracle_cycles]) != \
            compiled_outputs[:oracle_cycles]:
        raise AssertionError(f"{name}: compiled engine diverged from the "
                             f"AST interpreter oracle")

    interp_cps = cycles / interp_s if interp_s > 0 else float("inf")
    compiled_cps = cycles / compiled_s if compiled_s > 0 else float("inf")
    row = {
        "design": name,
        "width": width,
        "cycles": cycles,
        "gates": netlist.num_gates,
        "compile_seconds": compile_s,
        "cycles_per_second_interp": interp_cps,
        "cycles_per_second_compiled": compiled_cps,
        "speedup_compiled": compiled_cps / interp_cps,
        "oracle_match": True,
        "packed": [],
    }

    pack_cycles = max(8, cycles // 8)
    for lanes in PACK_WIDTHS:
        sequences = [random_vectors(netlist, pack_cycles, rng)
                     for _ in range(lanes)]
        packed_sim = CompiledSim(compiled)
        start = time.perf_counter()
        packed_outputs = packed_sim.run_parallel(sequences)
        packed_s = time.perf_counter() - start
        # Lane 0 must bit-match a solo sequential run of the same stimulus.
        if packed_outputs[0] != CompiledSim(compiled).run_batch(sequences[0]):
            raise AssertionError(
                f"{name}: packed lane diverged at {lanes} lanes")
        total = lanes * pack_cycles
        packed_cps = total / packed_s if packed_s > 0 else float("inf")
        row["packed"].append({
            "lanes": lanes,
            "lane_cycles": pack_cycles,
            "cycles_per_second": packed_cps,
            "speedup": packed_cps / interp_cps,
        })
    row["trace"] = _row_trace(mark)
    return row


def _cec_record(before, after, encoding: str) -> dict:
    # Every CEC tier run is certified: the solver logs a DRAT proof and
    # the independent RUP checker re-verifies each UNSAT verdict.  An
    # unchecked (or failed) proof is a hard benchmark failure, not a
    # performance regression.
    start = time.perf_counter()
    verdict = check_equivalence(before, after, encoding=encoding,
                                certify=True)
    total = time.perf_counter() - start
    if not verdict.equivalent:
        raise AssertionError(f"{before.name}: equivalence refuted "
                             f"({encoding} encoding)")
    if verdict.proof_checked is False:
        raise AssertionError(
            f"{before.name}: DRAT proof rejected by the independent "
            f"checker ({encoding} encoding)")
    return {
        "cnf_vars": verdict.cnf_vars,
        "cnf_clauses": verdict.cnf_clauses,
        "hash_proven": verdict.hash_proven,
        "compared": verdict.compared,
        "encode_seconds": verdict.encode_seconds,
        "solve_seconds": verdict.solve_seconds,
        "total_seconds": total,
        "proof_checked": verdict.proof_checked,
        "proof_clauses": verdict.proof_clauses,
        "proof_bytes": verdict.proof_bytes,
        "proof_check_seconds": verdict.proof_check_seconds,
    }


def bench_aig(factory, width: int) -> dict:
    """AIG-vs-gate miter encodings plus FRAIG deltas on one design."""
    name, src, _ = factory(width)
    mark = _trace_mark()
    netlist = elaborate(src, top=name)
    optimized = optimize(netlist).netlist

    row = {
        "design": name,
        "width": width,
        "gates": netlist.num_gates,
        "aig_ands": from_netlist(netlist).num_ands,
        # Miter of the elaborated design against its optimized self: the
        # checker's production workload.
        "opt_cec_gate": _cec_record(netlist, optimized, "gate"),
        "opt_cec_aig": _cec_record(netlist, optimized, "aig"),
        # Self-CEC: both cones are identical, so the AIG miter should
        # hash-merge everything and emit (near-)zero clauses.
        "self_cec_gate": _cec_record(netlist, netlist, "gate"),
        "self_cec_aig": _cec_record(netlist, netlist, "aig"),
    }

    # Bypass optimize()'s never-worse guard and measure the raw sweep+raise
    # result: the guard would otherwise mask a raising regression by
    # silently returning the input netlist, making the CI check on
    # gates_after vacuous.
    stats = FraigStats()
    raw = to_netlist(fraig_sweep(from_netlist(netlist), stats=stats))
    row["fraig"] = {
        "gates_before": netlist.num_gates,
        "gates_after": raw.num_gates,
        "ands_before": stats.ands_before,
        "ands_after": stats.ands_after,
        "sat_checks": stats.sat_checks,
        "proven": stats.proven,
        "refuted": stats.refuted,
        "rounds": stats.rounds,
        "solver": stats.solver.to_dict(),
    }
    row["trace"] = _row_trace(mark)
    return row


def run_aig_bench(width: int, out_path: str) -> tuple[list[str], dict]:
    """Run the encoding comparison; returns (regressions, report)."""
    tier = BenchTier()
    for factory in DESIGNS:
        w = design_width(factory, width)
        w = min(w, getattr(factory, "max_gate_cec_width", w))
        row = tier.add(bench_aig(factory, w))
        gate_c = row["opt_cec_gate"]["cnf_clauses"]
        aig_c = row["opt_cec_aig"]["cnf_clauses"]
        fraig = row["fraig"]
        print(
            f"{row['design']:<10} W={row['width']:<3} "
            f"miter CNF {gate_c:>6} -> {aig_c:<6} clauses "
            f"(hash {row['opt_cec_aig']['hash_proven']}"
            f"/{row['opt_cec_aig']['compared']})  "
            f"cec {row['opt_cec_gate']['total_seconds'] * 1e3:7.1f} -> "
            f"{row['opt_cec_aig']['total_seconds'] * 1e3:7.1f} ms  "
            f"fraig {fraig['gates_before']:>5} -> {fraig['gates_after']:<5}"
        )
        tier.guard(
            aig_c <= gate_c,
            f"{row['design']}: AIG miter CNF larger than gate-level "
            f"({aig_c} > {gate_c})")
        tier.guard(
            row["self_cec_aig"]["cnf_clauses"]
            <= row["self_cec_gate"]["cnf_clauses"],
            f"{row['design']}: AIG self-CEC CNF larger than gate-level")
        # Guard the sweep on its own metric: merges can only shrink the
        # live AND cone.  Gate counts after raising are recorded but not
        # enforced — re-deriving XOR/MUX idioms from a merged AIG can
        # legitimately cost gates (optimize() has a never-worse guard
        # for that).
        tier.guard(
            fraig["ands_after"] <= fraig["ands_before"],
            f"{row['design']}: fraig increased the live AND count "
            f"({fraig['ands_before']} -> {fraig['ands_after']})")

    report = tier.report(out_path, width=width)
    return tier.failures, report


#: The enforced rewrite-reduction floor on the W=16 ALU: DAG-aware
#: rewriting must shave at least this fraction of the AND nodes of the
#: lowered (structurally hashed) design.
REWRITE_ALU_FLOOR = 0.05

#: Timer-noise allowance for the pre- vs post-rewrite FRAIG timing
#: guard (best-of-3 each side).
FRAIG_REWRITE_SLACK = 1.10


def _fraig_best_seconds(aig, runs: int = 3) -> tuple[float, int]:
    """Best-of-``runs`` FRAIG sweep wall time plus the final AND count."""
    best = float("inf")
    ands = aig.num_ands
    for _ in range(runs):
        start = time.perf_counter()
        swept = fraig_sweep(aig, stats=FraigStats())
        best = min(best, time.perf_counter() - start)
        ands = swept.num_ands
    return best, ands


def bench_map(factory, width: int, fraig_timing: bool = False) -> dict:
    """Rewrite QoR + k-LUT mapping row for one design."""
    name, src, _ = factory(width)
    mark = _trace_mark()
    netlist = elaborate(src, top=name)
    aig = from_netlist(netlist)
    ands_before = aig.num_ands

    stats = RewriteStats()
    start = time.perf_counter()
    rewritten = rewrite_aig(aig, stats=stats)
    rewrite_seconds = time.perf_counter() - start
    ands_after = rewritten.num_ands
    rewrite_cec = check_equivalence(netlist, to_netlist(rewritten))

    row = {
        "design": name,
        "width": width,
        "ands_baseline": ands_before,
        "ands_rewritten": ands_after,
        "rewrite_reduction": (1.0 - ands_after / ands_before
                              if ands_before else 0.0),
        "rewrite_seconds": rewrite_seconds,
        "rewrite_replacements": stats.replacements,
        "rewrite_cec_equivalent": rewrite_cec.equivalent,
        "map": {},
    }
    for k in (4, 6):
        mstats = MapStats()
        start = time.perf_counter()
        result = map_aig(rewritten, k=k, stats=mstats)
        map_seconds = time.perf_counter() - start
        # Emit -> re-elaborate -> CEC: the mapped LUT cover must survive
        # the Verilog round trip and stay equivalent to the *unoptimized*
        # source design.
        reloaded = elaborate(netlist_to_verilog(result.to_netlist()),
                             top=netlist.name)
        map_cec = check_equivalence(netlist, reloaded)
        row["map"][f"k{k}"] = {
            "lut_count": result.lut_count,
            "depth": result.depth,
            "depth_target": mstats.depth_target,
            "depth_fallback": mstats.depth_fallback,
            "map_seconds": map_seconds,
            "cec_equivalent": map_cec.equivalent,
        }
    if fraig_timing:
        # Downstream cost check: SAT sweeping the rewritten (smaller)
        # graph must not be slower than sweeping the baseline.
        pre_s, pre_ands = _fraig_best_seconds(aig)
        post_s, post_ands = _fraig_best_seconds(rewritten)
        row["fraig_pre_rewrite_seconds"] = pre_s
        row["fraig_post_rewrite_seconds"] = post_s
        row["fraig_pre_rewrite_ands"] = pre_ands
        row["fraig_post_rewrite_ands"] = post_ands
    row["trace"] = _row_trace(mark)
    return row


def run_map_bench(width: int, out_path: str) -> tuple[list[str], dict]:
    """Rewrite + k-LUT mapping QoR tier; returns (regressions, report).

    Every design goes lower -> rewrite (CEC-proven),
    then through the priority-cut mapper at k=4 and k=6; each LUT cover
    is emitted as Verilog, re-elaborated and CEC-proven against the
    unoptimized source.  The ALU row always runs at W >= 16 and carries
    the two enforced guards: the rewrite gate-reduction floor
    (``REWRITE_ALU_FLOOR``) and the pre- vs post-rewrite FRAIG timing
    comparison (rewriting first must not slow the sweep down).
    """
    tier = BenchTier()
    for factory in DESIGNS:
        w = design_width(factory, width)
        w = min(w, getattr(factory, "max_gate_cec_width", w))
        is_alu = factory is alu_design
        if is_alu:
            # The acceptance floor is stated on the W=16 ALU, so the map
            # tier pins that row there even in smoke mode (rewrite plus
            # both mappings finish in well under a second).
            w = max(w, 16)
        row = tier.add(bench_map(factory, w, fraig_timing=is_alu))
        k4, k6 = row["map"]["k4"], row["map"]["k6"]
        print(
            f"{row['design']:<10} W={row['width']:<3} "
            f"rewrite {row['ands_baseline']:>5} -> "
            f"{row['ands_rewritten']:<5} ands "
            f"({row['rewrite_reduction']:6.1%})  "
            f"k4 {k4['lut_count']:>4} luts d={k4['depth']:<3} "
            f"k6 {k6['lut_count']:>4} luts d={k6['depth']:<3}"
        )
        tier.guard(
            row["rewrite_cec_equivalent"],
            f"{row['design']}: rewritten AIG not equivalent")
        tier.guard(
            row["ands_rewritten"] <= row["ands_baseline"],
            f"{row['design']}: rewrite grew the AIG "
            f"({row['ands_baseline']} -> {row['ands_rewritten']})")
        for label, entry in row["map"].items():
            tier.guard(
                entry["cec_equivalent"],
                f"{row['design']}: {label} mapped netlist not "
                f"equivalent after the emit round trip")
            tier.guard(
                entry["depth"] <= entry["depth_target"],
                f"{row['design']}: {label} mapping exceeded its depth "
                f"target ({entry['depth']} > {entry['depth_target']})")
        if is_alu:
            tier.guard(
                row["rewrite_reduction"] >= REWRITE_ALU_FLOOR,
                f"alu: rewrite reduction {row['rewrite_reduction']:.1%} "
                f"below the {REWRITE_ALU_FLOOR:.0%} floor")
            pre_s = row["fraig_pre_rewrite_seconds"]
            post_s = row["fraig_post_rewrite_seconds"]
            tier.guard(
                post_s <= pre_s * FRAIG_REWRITE_SLACK,
                f"alu: FRAIG after rewrite slower than before "
                f"({post_s * 1e3:.1f} ms > {pre_s * 1e3:.1f} ms)")
    report = tier.report(out_path, width=width)
    return tier.failures, report


def buggy_multiplier_design(width: int) -> tuple[str, str, list[str]]:
    """A shift-add multiplier with an off-by-one: the SAT-side workload.

    The miter against the array multiplier is satisfiable, so this row
    exercises counterexample extraction and the simulator replay that
    confirms it.
    """
    src = f"""
module shift_add_multiplier #(parameter W = {width}) (
  input [W-1:0] a, input [W-1:0] b,
  output [2*W-1:0] p
);
  assign p = a * b + 1;
endmodule
"""
    return "shift_add_multiplier", src, ["a", "b"]


#: Starting signature patterns for the SAT-tier FRAIG workload: starved
#: low so candidate classes are large and the sweep is solver-bound
#: rather than simulation-bound.
FRAIG_BENCH_PATTERNS = 8

#: The pre-pipeline configuration the "old" rows measure: reference
#: solver, plain Tseitin encoding, no CNF preprocessing, no miter
#: sweeping, and no simulation refutation check (``sim_patterns=0``
#: also disables phase/activity seeding).  The "new" rows run the
#: default staged pipeline, so the split captures the whole PR, not
#: just the engine swap.
LEGACY_CEC_KWARGS = dict(preprocess=False, sweep=False, structural=False,
                         sim_patterns=0)

SOLVER_ENGINES = (("new", Solver, {}),
                  ("old", ReferenceSolver, LEGACY_CEC_KWARGS))


def _solver_record(verdict, total_seconds: float) -> dict:
    stats = verdict.solver_stats
    solve_s = verdict.solve_seconds
    return {
        "equivalent": verdict.equivalent,
        "cnf_vars": verdict.cnf_vars,
        "cnf_clauses": verdict.cnf_clauses,
        "hash_proven": verdict.hash_proven,
        "sweep_proven": verdict.sweep_proven,
        "refuted_by_simulation": verdict.refuted_by_simulation,
        "encode_seconds": verdict.encode_seconds,
        "solve_seconds": solve_s,
        "sweep_seconds": verdict.sweep_seconds,
        "total_seconds": total_seconds,
        "decisions": stats.decisions,
        "conflicts": stats.conflicts,
        "propagations": stats.propagations,
        "props_per_second": stats.propagations / solve_s if solve_s else 0.0,
        "restarts": stats.restarts,
        "learned_clauses": stats.learned_clauses,
        "reduced_clauses": stats.reduced_clauses,
        "vivified": stats.vivified,
        "gc_runs": stats.gc_runs,
        "preprocessor": verdict.preprocessor,
        "proof_checked": verdict.proof_checked,
        "proof_clauses": verdict.proof_clauses,
        "proof_bytes": verdict.proof_bytes,
        "proof_check_seconds": verdict.proof_check_seconds,
    }


def _cec_both_engines(before, after) -> dict:
    # Certified on both engines: each solver logs DRAT, the shared
    # checker re-verifies.  proof_checked is None on SAT verdicts
    # (nothing to certify) and False only when a proof was rejected.
    engines = {}
    for label, factory, kwargs in SOLVER_ENGINES:
        start = time.perf_counter()
        verdict = check_equivalence(before, after, solver_factory=factory,
                                    certify=True, **kwargs)
        engines[label] = _solver_record(verdict,
                                        time.perf_counter() - start)
        engines[label]["counterexample_confirmed"] = bool(
            verdict.counterexample and verdict.counterexample.diff)
    return engines


def run_sat_bench(smoke: bool, out_path: str) -> tuple[list[str], dict]:
    """Old-vs-new solver split on non-hash-provable workloads.

    Returns (regressions, report); writes ``BENCH_sat.json``.
    """
    tier = BenchTier()
    mult_w = 5 if smoke else 6
    fraig_w = 8 if smoke else 16

    name_a, src_a, _ = multiplier_design(mult_w)
    name_s, src_s, _ = shift_add_multiplier_design(mult_w)
    array_mult = elaborate(src_a, top=name_a)
    shift_mult = elaborate(src_s, top=name_s)

    # -- structural multiplier miter: UNSAT proof ---------------------------
    mark = _trace_mark()
    engines = _cec_both_engines(array_mult, shift_mult)
    for label, rec in engines.items():
        if not rec["equivalent"]:
            tier.fail(
                f"multiplier_cec: {label} solver refuted an equivalence")
        elif rec["proof_checked"] is not True:
            tier.fail(
                f"multiplier_cec: {label} solver's UNSAT verdict was not "
                f"certified by the independent DRAT checker")
    new, old = engines["new"], engines["old"]
    # The pipeline may move solve effort into the sweep, so the honest
    # denominator is solve + sweep.
    new_search = new["solve_seconds"] + new["sweep_seconds"]
    row = {
        "workload": "multiplier_cec",
        "width": mult_w,
        "expected": "equivalent",
        "new": new,
        "old": old,
        "solve_speedup": old["solve_seconds"] / new_search
        if new_search else 0.0,
        "throughput_ratio": new["props_per_second"] / old["props_per_second"]
        if old["props_per_second"] else 0.0,
        "trace": _row_trace(mark),
    }
    tier.add(row)
    print(
        f"sat multiplier_cec  W={mult_w:<3} "
        f"conflicts {old['conflicts']:>6} -> {new['conflicts']:<6} "
        f"solve+sweep {old['solve_seconds'] * 1e3:8.1f} -> "
        f"{new_search * 1e3:<8.1f} ms "
        f"({row['solve_speedup']:.2f}x)"
    )
    pp = new["preprocessor"] or {}
    print(
        f"sat multiplier_cec  W={mult_w:<3} "
        f"preprocessor {pp.get('subsumed', 0)} subsumed, "
        f"{pp.get('eliminated_vars', 0)} eliminated, "
        f"{new['vivified']} vivified  "
        f"proof {new['proof_clauses']:>6} DRAT clauses "
        f"checked in {new['proof_check_seconds'] * 1e3:8.1f} ms"
    )
    # Hard floor on the pipeline win (the PR's target is >=2x; the floor
    # leaves room for CI jitter).  Smoke widths are too small for the
    # pipeline to amortize, so there the bar is only parity.
    speedup_floor = 1.0 if smoke else 1.5
    if row["solve_speedup"] < speedup_floor:
        tier.fail(
            f"multiplier_cec: staged-pipeline solve speedup "
            f"{row['solve_speedup']:.2f}x is below the "
            f"{speedup_floor:.1f}x floor "
            f"({old['solve_seconds'] * 1e3:.1f} -> "
            f"{new_search * 1e3:.1f} ms)")

    # -- broken multiplier miter: SAT + simulator-confirmed cex -------------
    name_b, src_b, _ = buggy_multiplier_design(mult_w)
    mark = _trace_mark()
    buggy_mult = elaborate(src_b, top=name_b)
    engines = _cec_both_engines(array_mult, buggy_mult)
    for label, rec in engines.items():
        if rec["equivalent"]:
            tier.fail(
                f"multiplier_cec_refuted: {label} solver proved a broken "
                f"multiplier equivalent")
        elif not rec["counterexample_confirmed"]:
            tier.fail(
                f"multiplier_cec_refuted: {label} solver returned an "
                f"unconfirmed counterexample")
    # Easy-SAT guard: a broken multiplier disagrees on most assignments,
    # so the simulation refutation check must catch it before the solver
    # pays any start-up or search cost at all.
    if not engines["new"]["refuted_by_simulation"] or \
            engines["new"]["conflicts"] != 0:
        tier.fail(
            "multiplier_cec_refuted: the easy counterexample was not "
            "caught by the pre-solve simulation check "
            f"(conflicts={engines['new']['conflicts']})")
    row = {
        "workload": "multiplier_cec_refuted",
        "width": mult_w,
        "expected": "refuted",
        "new": engines["new"],
        "old": engines["old"],
        "trace": _row_trace(mark),
    }
    tier.add(row)
    print(
        f"sat multiplier_cex  W={mult_w:<3} "
        f"refuted+replayed on both engines  "
        f"total {engines['old']['total_seconds'] * 1e3:8.1f} -> "
        f"{engines['new']['total_seconds'] * 1e3:<8.1f} ms "
        f"(new: simulation, 0 conflicts)"
    )

    # -- preprocessed certified proof: UNSAT through the full DRAT chain ----
    # A dedicated row that pins down the certification story: the CNF
    # preprocessor (subsumption + elimination) and the in-search
    # vivifier both write into the same proof log the solver extends,
    # and the independent RUP checker verifies the combined proof
    # against the *original* miter CNF.  Sweeping is off so the
    # top-level solver (not the sweep's) produces the UNSAT core.
    mark = _trace_mark()
    start = time.perf_counter()
    verdict = check_equivalence(array_mult, shift_mult, certify=True,
                                sweep=False)
    rec = _solver_record(verdict, time.perf_counter() - start)
    tier.add({
        "workload": "cec_preprocessed_certified",
        "width": mult_w,
        "expected": "equivalent",
        "new": rec,
        "trace": _row_trace(mark),
    })
    pp = rec["preprocessor"] or {}
    if not rec["equivalent"]:
        tier.fail(
            "cec_preprocessed_certified: refuted a true equivalence")
    elif rec["proof_checked"] is not True:
        tier.fail(
            "cec_preprocessed_certified: the preprocessed UNSAT proof "
            "was not certified by the independent DRAT checker")
    if not pp or (pp.get("subsumed", 0) + pp.get("strengthened", 0)
                  + pp.get("eliminated_vars", 0)) == 0:
        tier.fail(
            "cec_preprocessed_certified: the preprocessor did no work — "
            "the row no longer exercises preprocessing under certify")
    print(
        f"sat cec_certified   W={mult_w:<3} "
        f"preprocessor {pp.get('subsumed', 0)} subsumed, "
        f"{pp.get('eliminated_vars', 0)} eliminated, "
        f"{rec['vivified']} vivified  "
        f"proof {rec['proof_clauses']:>6} clauses "
        f"checked in {rec['proof_check_seconds'] * 1e3:8.1f} ms"
    )

    # -- SAT-bound FRAIG sweep of the ALU -----------------------------------
    name, src, _ = alu_design(fraig_w)
    mark = _trace_mark()
    alu = elaborate(src, top=name)
    alu_aig = from_netlist(alu)
    fraig_rec: dict[str, dict] = {}
    for label, factory, _ in SOLVER_ENGINES:
        stats = FraigStats()
        start = time.perf_counter()
        swept = fraig_sweep(alu_aig, patterns=FRAIG_BENCH_PATTERNS,
                            stats=stats, solver_factory=factory)
        seconds = time.perf_counter() - start
        verdict = check_equivalence(alu, to_netlist(swept))
        if not verdict.equivalent:
            tier.fail(
                f"alu_fraig: sweep with the {label} solver broke the ALU")
        fraig_rec[label] = {
            "seconds": seconds,
            "sat_checks": stats.sat_checks,
            "proven": stats.proven,
            "refuted": stats.refuted,
            "rounds": stats.rounds,
            "ands_before": stats.ands_before,
            "ands_after": stats.ands_after,
            "equivalence_proven": verdict.equivalent,
            "solver": stats.solver.to_dict(),
        }
    speedup = fraig_rec["old"]["seconds"] / fraig_rec["new"]["seconds"] \
        if fraig_rec["new"]["seconds"] else 0.0
    row = {
        "workload": "alu_fraig",
        "width": fraig_w,
        "patterns": FRAIG_BENCH_PATTERNS,
        "new": fraig_rec["new"],
        "old": fraig_rec["old"],
        "speedup": speedup,
        "trace": _row_trace(mark),
    }
    tier.add(row)
    print(
        f"sat alu_fraig       W={fraig_w:<3} "
        f"checks {fraig_rec['new']['sat_checks']:>5}  "
        f"sweep {fraig_rec['old']['seconds'] * 1e3:8.1f} -> "
        f"{fraig_rec['new']['seconds'] * 1e3:<8.1f} ms "
        f"({speedup:.2f}x)"
    )
    if speedup < 1.0:
        tier.fail(
            f"alu_fraig: new-solver sweep slower than the reference "
            f"baseline ({speedup:.2f}x)")

    # -- tracer overhead on the same sweep ----------------------------------
    # Observability must be effectively free.  Re-run the new-solver sweep
    # with a live tracer and with tracing disabled — interleaved so machine
    # load drift hits both sides equally, best-of-N each (min is the
    # standard jitter filter) — and fail if enabling the tracer costs more
    # than 5%.
    def _sweep_once() -> float:
        start = time.perf_counter()
        fraig_sweep(alu_aig, patterns=FRAIG_BENCH_PATTERNS,
                    stats=FraigStats())
        return time.perf_counter() - start

    reps = 5
    traced_s = plain_s = float("inf")
    for _ in range(reps):
        with use_tracer(Tracer()):
            traced_s = min(traced_s, _sweep_once())
        with use_tracer(NULL_TRACER):
            plain_s = min(plain_s, _sweep_once())
    overhead = traced_s / plain_s - 1.0 if plain_s else 0.0
    row["tracer_overhead"] = {
        "traced_seconds": traced_s,
        "untraced_seconds": plain_s,
        "overhead": overhead,
        "repeats": reps,
    }
    print(
        f"sat alu_fraig       W={fraig_w:<3} "
        f"tracer {plain_s * 1e3:8.1f} -> {traced_s * 1e3:<8.1f} ms "
        f"({overhead:+.1%} overhead, best of {reps})"
    )
    if overhead > 0.05:
        tier.fail(
            f"alu_fraig: tracer-enabled sweep overhead {overhead:.1%} "
            f"exceeds the 5% budget "
            f"({plain_s * 1e3:.1f} -> {traced_s * 1e3:.1f} ms)")

    # -- proof-logging overhead on the same sweep ---------------------------
    # Emitting DRAT while searching must stay cheap.  Re-run the sweep
    # with every solver streaming to an in-memory ProofLog vs not logging
    # at all — interleaved, best-of-N, tracing off — and fail if logging
    # costs more than 15%.  (With logging *disabled* the solver's only
    # extra work is one ``is not None`` test per conflict; any measurable
    # cost there would already trip the 5% tracer guard above, whose
    # baseline runs with proof logging off.)
    def _proof_solver(num_vars=0, clauses=()) -> Solver:
        solver = Solver(num_vars, clauses)
        solver.set_proof(ProofLog())
        return solver

    def _sweep_logged() -> float:
        start = time.perf_counter()
        fraig_sweep(alu_aig, patterns=FRAIG_BENCH_PATTERNS,
                    stats=FraigStats(), solver_factory=_proof_solver)
        return time.perf_counter() - start

    logged_s = unlogged_s = float("inf")
    with use_tracer(NULL_TRACER):
        for _ in range(reps):
            logged_s = min(logged_s, _sweep_logged())
            unlogged_s = min(unlogged_s, _sweep_once())
    proof_overhead = logged_s / unlogged_s - 1.0 if unlogged_s else 0.0
    row["proof_overhead"] = {
        "logged_seconds": logged_s,
        "unlogged_seconds": unlogged_s,
        "overhead": proof_overhead,
        "repeats": reps,
    }
    print(
        f"sat alu_fraig       W={fraig_w:<3} "
        f"proof log {unlogged_s * 1e3:8.1f} -> {logged_s * 1e3:<8.1f} ms "
        f"({proof_overhead:+.1%} overhead, best of {reps})"
    )
    if proof_overhead > 0.15:
        tier.fail(
            f"alu_fraig: proof-logging sweep overhead {proof_overhead:.1%} "
            f"exceeds the 15% budget "
            f"({unlogged_s * 1e3:.1f} -> {logged_s * 1e3:.1f} ms)")

    # -- certified FRAIG sweep ----------------------------------------------
    # A separate measurement so per-proof RUP checking never skews the
    # old-vs-new speedup rows above: every UNSAT merge proof from the
    # sweep is re-verified by the independent checker.
    stats = FraigStats()
    start = time.perf_counter()
    fraig_sweep(alu_aig, patterns=FRAIG_BENCH_PATTERNS, stats=stats,
                certify=True)
    certified_s = time.perf_counter() - start
    row = {
        "workload": "alu_fraig_certified",
        "width": fraig_w,
        "patterns": FRAIG_BENCH_PATTERNS,
        "seconds": certified_s,
        "proven": stats.proven,
        "refuted": stats.refuted,
        "proofs_checked": stats.proofs_checked,
        "proofs_failed": stats.proofs_failed,
        "proof_clauses": stats.proof_clauses,
        "proof_bytes": stats.proof_bytes,
        "proof_check_seconds": stats.proof_check_seconds,
    }
    tier.add(row)
    print(
        f"sat alu_fraig       W={fraig_w:<3} "
        f"certified {stats.proofs_checked}/{stats.proven} merge proofs "
        f"({stats.proof_clauses} DRAT clauses) "
        f"checked in {stats.proof_check_seconds * 1e3:8.1f} ms"
    )
    if stats.proofs_failed:
        tier.fail(
            f"alu_fraig_certified: {stats.proofs_failed} merge proofs "
            f"rejected by the independent DRAT checker")
    elif stats.proofs_checked != stats.proven:
        tier.fail(
            f"alu_fraig_certified: only {stats.proofs_checked} of "
            f"{stats.proven} proven merges were certified")

    report = tier.report(out_path, mode="smoke" if smoke else "full",
                         multiplier_width=mult_w, fraig_width=fraig_w)
    return tier.failures, report


@contextlib.contextmanager
def _daemon_client(workers: int, cache_dir):
    """Run a ``VerifyDaemon`` on an ephemeral port in a background thread."""
    box: dict = {}
    started = threading.Event()

    def _serve() -> None:
        def _ready(daemon) -> None:
            box["daemon"] = daemon
            started.set()

        asyncio.run(run_daemon(port=0, workers=workers,
                               cache_dir=cache_dir, ready=_ready))

    thread = threading.Thread(target=_serve, daemon=True)
    thread.start()
    if not started.wait(timeout=30):
        raise RuntimeError("verification daemon failed to start")
    client = ServerClient(port=box["daemon"].port)
    client.ping()
    try:
        yield client
    finally:
        with contextlib.suppress(Exception):
            client.shutdown()
        thread.join(timeout=120)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of an unsorted list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


def _server_workload(smoke: bool) -> tuple[list[tuple], int]:
    """The synthetic mixed batch: ``([(label, before, after, options)],
    unique_count)``.

    Self-CECs across every design and width (hash-proven, fast),
    cross-implementation multiplier proofs (solver-bound), broken-miter
    refutations (counterexample extraction), and certified /
    no-preprocess option variants — then repeat-submissions pad the
    batch to the target size so the daemon's alias and dedup caching
    sees realistic duplicate traffic.  Labels starting with ``buggy``
    must come back refuted; everything else equivalent.
    """
    widths = (2, 3) if smoke else (2, 3, 4, 5)
    unique: list[tuple] = []
    for factory in DESIGNS:
        for w in widths:
            name, src, _ = factory(w)
            unique.append((f"self_{name}_w{w}", src, src, {}))
    for w in widths:
        _, src_a, _ = multiplier_design(w)
        _, src_s, _ = shift_add_multiplier_design(w)
        _, src_b, _ = buggy_multiplier_design(w)
        unique.append((f"xmul_w{w}", src_a, src_s, {}))
        unique.append((f"buggy_w{w}", src_a, src_b, {}))
    _, src_a, _ = multiplier_design(widths[-1])
    _, src_s, _ = shift_add_multiplier_design(widths[-1])
    unique.append((f"xmul_cert_w{widths[-1]}", src_a, src_s,
                   {"certify": True}))
    unique.append((f"xmul_nopre_w{widths[-1]}", src_a, src_s,
                   {"preprocess": False}))
    target = 32 if smoke else 108
    jobs = list(unique)
    index = 0
    while len(jobs) < target:
        label, before, after, options = unique[index % len(unique)]
        jobs.append((f"{label}_repeat{index}", before, after, options))
        index += 1
    return jobs, len(unique)


def _drive_batch(client: ServerClient,
                 jobs: list[tuple]) -> tuple[float, list[dict]]:
    """Submit every job, wait for all; returns (wall seconds, records)."""
    start = time.perf_counter()
    ids = [client.submit(before, after, options or None)["id"]
           for _, before, after, options in jobs]
    records = [client.wait(job_id, timeout=600.0) for job_id in ids]
    return time.perf_counter() - start, records


def run_server_bench(smoke: bool, out_path: str) -> tuple[list[str], dict]:
    """Daemon end-to-end: throughput, latency, scaling, caching, parity.

    Returns (regressions, report); writes ``BENCH_server.json``.
    """
    tier = BenchTier()
    cpus = os.cpu_count() or 1
    workers = min(4, cpus)
    jobs, num_unique = _server_workload(smoke)

    # -- mixed batch: jobs/sec + latency percentiles ------------------------
    with tempfile.TemporaryDirectory(prefix="cec-cache-") as cache_dir:
        with _daemon_client(workers, cache_dir) as client:
            elapsed, records = _drive_batch(client, jobs)
            status = client.status()
    latencies = []
    for (label, _, _, _), record in zip(jobs, records):
        tier.guard(record["status"] == "done",
                   f"server_mixed: job {label} ended "
                   f"{record['status']}: {record.get('error')}")
        if record["status"] != "done":
            continue
        expected = not label.startswith("buggy")
        got = record["equivalence"]["equivalent"]
        tier.guard(got == expected,
                   f"server_mixed: {label} verdict {got}, "
                   f"expected {expected}")
        latencies.append(record["finished"] - record["submitted"])
    p50 = _percentile(latencies, 0.50) if latencies else 0.0
    p99 = _percentile(latencies, 0.99) if latencies else 0.0
    row = tier.add({
        "workload": "server_mixed",
        "jobs": len(jobs),
        "unique_jobs": num_unique,
        "workers": workers,
        "seconds": elapsed,
        "jobs_per_second": len(jobs) / elapsed if elapsed else 0.0,
        "latency_p50_seconds": p50,
        "latency_p99_seconds": p99,
        "alias_hits": status["alias_hits"],
        "dedup_hits": status["dedup_hits"],
    })
    print(
        f"server mixed_batch   {row['jobs']:>4} jobs "
        f"({num_unique} unique, {workers} workers)  "
        f"{row['jobs_per_second']:7.1f} jobs/s  "
        f"p50 {p50 * 1e3:7.1f} ms  p99 {p99 * 1e3:8.1f} ms"
    )

    # -- worker scaling: same unique workload at 1 vs 4 workers -------------
    # No result cache and no duplicate submissions, so every job pays a
    # real solve and the ratio measures pool parallelism alone.  The 2x
    # floor is only meaningful with >=4 real cores; below that (or in
    # smoke mode) the row still lands for trend tracking, unenforced.
    scaling_jobs = jobs[:num_unique]
    throughput = {}
    for count in (1, 4):
        with _daemon_client(count, None) as client:
            elapsed, _ = _drive_batch(client, scaling_jobs)
        throughput[count] = len(scaling_jobs) / elapsed if elapsed else 0.0
    speedup = throughput[4] / throughput[1] if throughput[1] else 0.0
    enforced = not smoke and cpus >= 4
    tier.add({
        "workload": "server_worker_scaling",
        "jobs": len(scaling_jobs),
        "cpu_count": cpus,
        "jobs_per_second_1": throughput[1],
        "jobs_per_second_4": throughput[4],
        "speedup": speedup,
        "floor": 2.0 if enforced else None,
    })
    print(
        f"server scaling       {len(scaling_jobs):>4} jobs  "
        f"{throughput[1]:7.1f} -> {throughput[4]:7.1f} jobs/s "
        f"(1 -> 4 workers, {speedup:.2f}x, {cpus} cores)"
    )
    tier.guard(
        not enforced or speedup >= 2.0,
        f"server_worker_scaling: 4-worker throughput only {speedup:.2f}x "
        f"of 1-worker on {cpus} cores (floor 2.0x)")

    # -- repeat submission: cached result vs cold solve ---------------------
    cache_w = 4 if smoke else 6
    _, src_a, _ = multiplier_design(cache_w)
    _, src_s, _ = shift_add_multiplier_design(cache_w)
    with tempfile.TemporaryDirectory(prefix="cec-cache-") as cache_dir:
        with _daemon_client(workers, cache_dir) as client:
            start = time.perf_counter()
            cold_rec = client.verify(src_a, src_s)
            cold = time.perf_counter() - start
            start = time.perf_counter()
            warm_rec = client.verify(src_a, src_s)
            warm = time.perf_counter() - start
            # A comment-only variant misses the daemon's source-alias map
            # but must still hit the on-disk content-hash cache.
            variant_rec = client.verify(
                src_a + "\n// resubmitted by another client\n", src_s)
    tier.guard(not cold_rec["cache_hit"],
               "server_cache_repeat: cold run was served from cache")
    tier.guard(warm_rec["cache_hit"],
               "server_cache_repeat: identical resubmission missed "
               "the cache")
    tier.guard(variant_rec["cache_hit"],
               "server_cache_repeat: comment-only source variant missed "
               "the content-hash disk cache")
    ratio = cold / warm if warm else 0.0
    tier.add({
        "workload": "server_cache_repeat",
        "width": cache_w,
        "cold_seconds": cold,
        "warm_seconds": warm,
        "speedup": ratio,
        "content_hash_hit": bool(variant_rec["cache_hit"]),
    })
    print(
        f"server cache_repeat  W={cache_w:<3} "
        f"cold {cold * 1e3:8.1f} -> warm {warm * 1e3:6.1f} ms "
        f"({ratio:.0f}x, content-hash hit: "
        f"{bool(variant_rec['cache_hit'])})"
    )
    tier.guard(ratio >= 10.0,
               f"server_cache_repeat: cached result only {ratio:.1f}x "
               f"faster than the cold solve (floor 10x)")

    # -- partitioned CEC must agree with the serial engine ------------------
    guard_w = 4 if smoke else 5
    _, src_a, _ = multiplier_design(guard_w)
    array_mult = elaborate(src_a, top="multiplier")
    verdict_rows = []
    for expected, factory in (("equivalent", shift_add_multiplier_design),
                              ("refuted", buggy_multiplier_design)):
        name, src, _ = factory(guard_w)
        after = elaborate(src, top=name)
        serial = check_equivalence(array_mult, after)
        parallel = check_equivalence(array_mult, after, jobs=4)
        tier.guard(
            serial.equivalent == parallel.equivalent,
            f"server_parallel_verdict: jobs=4 disagrees with serial on "
            f"the {expected} miter ({parallel.equivalent} vs "
            f"{serial.equivalent})")
        tier.guard(
            serial.equivalent == (expected == "equivalent"),
            f"server_parallel_verdict: serial verdict on the {expected} "
            f"miter is wrong")
        if expected == "equivalent":
            # The UNSAT side must actually exercise the partitioned
            # path, not fall back to one shard.
            tier.guard(
                parallel.partitions >= 2,
                f"server_parallel_verdict: jobs=4 ran "
                f"{parallel.partitions} partitions — the parallel path "
                f"never engaged")
        verdict_rows.append({
            "expected": expected,
            "serial_equivalent": serial.equivalent,
            "parallel_equivalent": parallel.equivalent,
            "partitions": parallel.partitions,
        })
    tier.add({
        "workload": "server_parallel_verdict",
        "width": guard_w,
        "jobs_option": 4,
        "pairs": verdict_rows,
    })
    print(
        f"server verdict_guard W={guard_w:<3} "
        f"serial == jobs=4 on both miters "
        f"({verdict_rows[0]['partitions']} partitions)"
    )

    report = tier.report(out_path, mode="smoke" if smoke else "full",
                         cpu_count=cpus, workers=workers)
    return tier.failures, report


def _git_rev() -> str:
    repo_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=repo_dir,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


#: Keys in a history row's ``headline`` dict where a *larger* value is
#: better; everything else (milliseconds, gate counts) is lower-better.
_HIGHER_BETTER = ("per_second", "speedup", "reduction", "ratio")


def _history_row(mode: str, opt_rows: list[dict], sim_rows: list[dict],
                 aig_report: dict, sat_report: dict,
                 server_report: dict, map_report: dict) -> dict:
    """One compact JSONL row summarising a whole benchmark run."""
    sat_rows = {r["workload"]: r for r in sat_report["results"]}
    map_rows = {r["design"]: r for r in map_report["results"]}
    alu_map = map_rows["alu"]
    server_rows = {r["workload"]: r for r in server_report["results"]}
    mult = sat_rows["multiplier_cec"]
    refuted = sat_rows["multiplier_cec_refuted"]
    pre_cert = sat_rows["cec_preprocessed_certified"]
    fraig = sat_rows["alu_fraig"]
    cert = sat_rows["alu_fraig_certified"]
    aig_rows = aig_report["results"]
    return {
        "version": __version__,
        "git_rev": _git_rev(),
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "mode": mode,
        "headline": {
            "opt_gates_after": sum(r["gates_after"] for r in opt_rows),
            "opt_mean_reduction": sum(r["reduction"] for r in opt_rows)
            / len(opt_rows),
            "sim_compiled_cycles_per_second": max(
                r["cycles_per_second_compiled"] for r in sim_rows),
            "cec_aig_total_ms": sum(
                r["opt_cec_aig"]["total_seconds"] for r in aig_rows) * 1e3,
            "sat_solve_speedup": mult["solve_speedup"],
            "sat_props_per_second": mult["new"]["props_per_second"],
            "cec_refuted_ms": refuted["new"]["total_seconds"] * 1e3,
            "cec_preprocessed_certified_ms":
                pre_cert["new"]["total_seconds"] * 1e3,
            "fraig_sweep_ms": fraig["new"]["seconds"] * 1e3,
            "proof_clauses": mult["new"]["proof_clauses"]
            + cert["proof_clauses"],
            "proof_check_ms": (mult["new"]["proof_check_seconds"]
                               + cert["proof_check_seconds"]) * 1e3,
            "server_jobs_per_second":
                server_rows["server_mixed"]["jobs_per_second"],
            "server_cache_speedup":
                server_rows["server_cache_repeat"]["speedup"],
            "rewrite_alu_reduction": alu_map["rewrite_reduction"],
            "map_lut4_total": sum(
                r["map"]["k4"]["lut_count"]
                for r in map_report["results"]),
            "map_alu_lut4_depth": alu_map["map"]["k4"]["depth"],
        },
    }


def _compare_history(previous: dict, current: dict) -> list[str]:
    """Direction-aware >20% regressions of ``current`` vs ``previous``."""
    warnings = []
    prev_head = previous.get("headline", {})
    for key, value in current["headline"].items():
        base = prev_head.get(key)
        if not isinstance(base, (int, float)) or base == 0 \
                or not isinstance(value, (int, float)):
            continue
        higher_better = key.endswith(_HIGHER_BETTER)
        change = value / base - 1.0
        regressed = change < -0.20 if higher_better else change > 0.20
        if regressed:
            warnings.append(
                f"{key}: {base:.4g} -> {value:.4g} ({change:+.1%}) vs "
                f"{previous.get('git_rev', '?')} "
                f"({previous.get('timestamp', '?')})")
    return warnings


def append_history(path: str, row: dict, compare: bool) -> None:
    """Append ``row`` to the JSONL history; optionally warn vs the last row.

    Comparison warnings go to stderr but never fail the run — machine
    drift across history entries is informational, unlike the in-run
    interleaved guards.
    """
    previous = None
    if compare:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = [ln for ln in handle if ln.strip()]
            if lines:
                previous = json.loads(lines[-1])
        except FileNotFoundError:
            pass
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: cannot compare against {path}: {exc}",
                  file=sys.stderr)
    if previous is not None:
        mismatch = previous.get("mode") != row["mode"]
        if mismatch:
            print(f"warning: comparing a {row['mode']} run against a "
                  f"{previous.get('mode')} history row", file=sys.stderr)
        for warning in _compare_history(previous, row):
            print(f"warning: regression vs previous run — {warning}",
                  file=sys.stderr)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"appended history row to {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes and cycle counts (CI mode)")
    parser.add_argument("--width", type=int, default=None,
                        help="override the design bit width")
    parser.add_argument("--cycles", type=int, default=None,
                        help="override the simulated cycle count")
    parser.add_argument("--no-check", action="store_true",
                        help="skip the SAT equivalence cross-check")
    parser.add_argument("--out", default="BENCH_opt.json",
                        help="output path (default: BENCH_opt.json)")
    parser.add_argument("--sim-out", default="BENCH_sim.json",
                        help="engine-comparison output path "
                             "(default: BENCH_sim.json)")
    parser.add_argument("--aig-out", default="BENCH_aig.json",
                        help="miter-encoding comparison output path "
                             "(default: BENCH_aig.json)")
    parser.add_argument("--sat-out", default="BENCH_sat.json",
                        help="solver old-vs-new comparison output path "
                             "(default: BENCH_sat.json)")
    parser.add_argument("--map-out", default="BENCH_map.json",
                        help="rewrite + LUT-mapping QoR tier output path "
                             "(default: BENCH_map.json)")
    parser.add_argument("--server-out", default="BENCH_server.json",
                        help="verification-daemon tier output path "
                             "(default: BENCH_server.json)")
    parser.add_argument("--trace-out", default="BENCH_trace.json",
                        help="Chrome trace-event timeline of the whole run "
                             "(default: BENCH_trace.json)")
    parser.add_argument("--seed", type=int, default=2022,
                        help="stimulus RNG seed")
    parser.add_argument("--history", metavar="FILE", default=None,
                        help="append a compact per-run summary row to this "
                             "JSONL file (e.g. BENCH_history.jsonl)")
    parser.add_argument("--compare", action="store_true",
                        help="warn on >20%% headline regressions against "
                             "the previous --history row")
    args = parser.parse_args()
    if args.compare and not args.history:
        parser.error("--compare requires --history FILE")

    width = args.width or (8 if args.smoke else 16)
    cycles = args.cycles or (200 if args.smoke else 2000)
    rng = random.Random(args.seed)

    # The whole run executes under a live tracer: engine spans feed the
    # per-row "trace" dicts and the Chrome trace-event timeline.  A script
    # owns its process, so install without bothering to restore.
    tracer = Tracer()
    set_tracer(tracer)

    opt_tier = BenchTier()
    for factory in DESIGNS:
        row = opt_tier.add(
            bench_design(factory, design_width(factory, width), cycles,
                         not args.no_check, rng))
        print(
            f"{row['design']:<10} W={row['width']:<3} "
            f"gates {row['gates_before']:>5} -> {row['gates_after']:<5} "
            f"({row['reduction']:.1%}) "
            f"levels {row['levels_before']:>3} -> {row['levels_after']:<3} "
            f"elab {row['elaborate_seconds'] * 1e3:7.1f} ms  "
            f"sim {row['sim_cycles_per_second_before']:8.0f} -> "
            f"{row['sim_cycles_per_second_after']:8.0f} cyc/s"
        )

    mode = "smoke" if args.smoke else "full"
    report = opt_tier.report(args.out, mode=mode, width=width,
                             cycles=cycles)

    print()
    sim_tier = BenchTier()
    for factory in DESIGNS:
        row = sim_tier.add(
            bench_sim(factory, design_width(factory, width), cycles, rng))
        best = max(entry["cycles_per_second"] for entry in row["packed"])
        print(
            f"{row['design']:<10} W={row['width']:<3} "
            f"gates {row['gates']:>5}  "
            f"interp {row['cycles_per_second_interp']:9.0f}  "
            f"compiled {row['cycles_per_second_compiled']:9.0f} "
            f"({row['speedup_compiled']:6.1f}x)  "
            f"packed {best:10.0f} cyc/s "
            f"({best / row['cycles_per_second_interp']:7.1f}x)"
        )

    sim_report = sim_tier.report(args.sim_out, mode=mode, width=width,
                                 cycles=cycles, pack_widths=PACK_WIDTHS)
    sim_rows = sim_report["results"]

    print()
    failures, aig_report = run_aig_bench(width, args.aig_out)

    print()
    sat_failures, sat_report = run_sat_bench(args.smoke, args.sat_out)
    failures += sat_failures

    print()
    map_failures, map_report = run_map_bench(width, args.map_out)
    failures += map_failures

    print()
    server_failures, server_report = run_server_bench(args.smoke,
                                                      args.server_out)
    failures += server_failures

    write_chrome_trace(tracer, args.trace_out)
    print(f"wrote {args.trace_out} "
          f"({len(tracer.records)} events)")

    if args.history:
        append_history(args.history,
                       _history_row(mode, report["results"], sim_rows,
                                    aig_report, sat_report, server_report,
                                    map_report),
                       args.compare)

    # Regression guards (CI-enforced): the compiled engine must never fall
    # below interpreted throughput, the AIG miter CNF must never exceed the
    # gate-level encoding, FRAIG must never grow a design, and the new
    # solver must never fall below the reference solver's throughput.
    slow = [row["design"] for row in sim_rows
            if row["cycles_per_second_compiled"] <
            row["cycles_per_second_interp"]]
    if slow:
        failures += [f"compiled engine slower than the interpreter on: "
                     f"{', '.join(slow)}"]
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
