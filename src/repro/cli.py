"""Command-line front door: ``python -m repro <design.v>``.

Parses and elaborates a Verilog file, optionally optimizes the netlist
(``--optimize``: lower to the AIG once, run the AIG passes — ``rewrite``
by default, ``--passes rewrite,fraig`` to choose — raise once and
balance), optionally proves the optimized netlist equivalent to the
unoptimized one with the SAT checker (``--check``) or to a second
design (``--check-against FILE``), optionally measures
simulation throughput over random stimulus (``--cycles``, on the
compiled single-pattern engine), and prints gate/depth/flip-flop
statistics — as a table or as JSON.  Frontend and elaboration problems
are reported as one-line diagnostics with exit code 1.

The equivalence check runs the full staged CEC pipeline (simulation
refutation, SAT sweeping, structure-aware encoding, seeded CDCL — see
:mod:`repro.netlist.sat.cec`).

Certification: ``--certify`` has the solver log a DRAT proof and runs
any UNSAT equivalence verdict through the independent RUP checker
(exit 1 if the certificate is refused).  A miter small enough to
simulate exhaustively is certified without the solver: its proof is a
cube tree over the input assignments.  ``--solve-log FILE`` streams the
top-level solver's proof, or the cube tree, to FILE as DRAT text.  FILE
holds the proof steps only: the miter CNF they refute is not written.
The miter sweep's merge proofs are checked in memory and never
streamed, so a verdict the sweep decided leaves FILE empty; the
report's ``log_bytes`` is the number of bytes FILE holds.

Observability (:mod:`repro.obs`): ``--trace FILE.json`` records every
phase of the run as Chrome trace-event JSON (open it in Perfetto or
``chrome://tracing``), ``--profile`` prints a self/total wall-time tree
over the same spans, and ``-v`` (top phases) / ``-vv`` (everything)
stream the spans and solver progress events to stderr as ndjson while
the run executes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Optional, Sequence

from .netlist import (
    ElaborationError,
    NetlistError,
    elaborate,
    from_netlist,
    simulate_sequence,
)
from .netlist.emit import netlist_to_verilog
from .netlist.sim import input_word_widths
from .netlist.opt import (OptimizationError, check_passes, map_aig,
                          optimize)
from .netlist.sat import CECError, ProofLog, check_equivalence
from .obs import (
    NULL_TRACER,
    Tracer,
    ndjson_sink,
    profile_tree,
    span_totals,
    trace_metrics,
    use_tracer,
    write_chrome_trace,
)
from .verilog.lexer import VerilogLexError
from .verilog.parser import VerilogSyntaxError


class CLIError(Exception):
    """A user-facing diagnostic (bad input file, bad flags, bad design)."""


def _read_source(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CLIError(f"cannot read '{path}': {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CLIError(f"cannot read '{path}': not UTF-8 text "
                       f"(byte {exc.start}: {exc.reason})") from exc


def _parse_params(items: Sequence[str]) -> dict[str, int]:
    params: dict[str, int] = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise CLIError(
                f"--param expects NAME=INTEGER, got '{item}'"
            )
        try:
            params[name] = int(value, 0)
        except ValueError:
            raise CLIError(
                f"--param {name}: '{value}' is not an integer"
            ) from None
    return params


def _parse_passes(text: str) -> list[str]:
    """``--passes`` names: whitespace around a name and empty entries
    (``"rewrite, fraig"``, ``"rewrite,"``) are ignored."""
    return [name.strip() for name in text.split(",") if name.strip()]


def _stats_lines(title: str, stats: dict[str, int]) -> list[str]:
    return [
        f"{title}:",
        f"  inputs     {stats['inputs']:>7}",
        f"  outputs    {stats['outputs']:>7}",
        f"  gates      {stats['gates']:>7}",
        f"  registers  {stats['registers']:>7}",
        f"  levels     {stats['levels']:>7}",
    ]


def _proof_stages(eq: dict) -> str:
    """The stages that proved an equivalent verdict, with their counts.

    Cached reports from before exhaustive simulation lack
    ``sim_proven``; the pairs no earlier stage proved went to the solve.
    A certified exhaustive verdict names its checked cube-tree proof.
    """
    sim = eq.get("sim_proven", 0)
    sat = eq["compared"] - eq["hash_proven"] - sim - eq["sweep_proven"]
    sim_label = "proven by exhaustive simulation"
    proof = eq.get("proof")
    if sim and proof is not None and proof["checked"] is True:
        sim_label += f" (DRAT-checked, {proof['clauses']} lemmas)"
    stages = ((eq["hash_proven"], "hash-proven"),
              (sim, sim_label),
              (eq["sweep_proven"], "sweep-proven"),
              (sat, f"SAT-proven (miter UNSAT, {eq['cnf_clauses']} "
                    f"clauses)"))
    return ", ".join(f"{count} {label}" for count, label in stages if count)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Parse, elaborate and optionally optimize a Verilog design, "
            "printing gate/depth/flip-flop statistics."
        ),
    )
    parser.add_argument("source", help="Verilog file ('-' for stdin)")
    parser.add_argument("--top", help="top module (default: the only one)")
    parser.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE",
        help="override a top-module parameter (repeatable)")
    parser.add_argument(
        "-O", "--optimize", action="store_true",
        help="optimize on the AIG and report per-pass statistics")
    parser.add_argument(
        "--passes", metavar="P1,P2,...",
        help="comma-separated AIG passes to run in order: rewrite, fraig "
             "(default: rewrite; implies --optimize)")
    parser.add_argument(
        "--check", action="store_true",
        help="SAT-prove the optimized netlist equivalent to the original "
             "(implies --optimize)")
    parser.add_argument(
        "--check-against", metavar="FILE",
        help="SAT-prove the final netlist equivalent to a second Verilog "
             "design (cross-design CEC) instead of to its own "
             "pre-optimization form (implies --check)")
    parser.add_argument(
        "--certify", action="store_true",
        help="log a DRAT proof during --check and verify any UNSAT "
             "verdict with the independent RUP proof checker; a failed "
             "check exits 1 (implies --check)")
    parser.add_argument(
        "--solve-log", metavar="FILE",
        help="stream the DRAT proof (the top-level solver's "
             "learned-clause additions and deletions, or the cube tree "
             "of an exhaustively simulated miter) to FILE during "
             "--check; the miter sweep's merge proofs are not streamed "
             "(implies --check)")
    parser.add_argument(
        "--cache", metavar="DIR",
        help="consult (and fill) the content-hash result cache in DIR "
             "before solving during --check — the same cache the "
             "repro.server daemon shards across its workers; ignored "
             "when --solve-log needs a live solver run")
    parser.add_argument(
        "--ir", choices=("netlist", "aig"), default="netlist",
        help="also report the canonical AIG view of the design "
             "(AND-node count, levels) when set to 'aig'")
    parser.add_argument(
        "--map", type=int, metavar="K", dest="map_k",
        help="technology-map the final netlist into K-input LUTs "
             "(2 <= K <= 6) via the priority-cut mapper and report LUT "
             "count and mapped depth; --emit then writes the mapped "
             "netlist instead")
    parser.add_argument(
        "--emit", metavar="FILE",
        help="write the final (optimized, if requested; mapped, if "
             "--map) netlist back out as structural Verilog")
    parser.add_argument(
        "--cycles", type=int, metavar="N",
        help="simulate N cycles of random stimulus on the final netlist "
             "and report throughput (cycles/second)")
    parser.add_argument(
        "--seed", type=int, default=2022,
        help="random-stimulus seed for --cycles (default: 2022)")
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit machine-readable JSON instead of the table")
    parser.add_argument(
        "--trace", metavar="FILE",
        help="record a Chrome trace-event JSON profile of the whole run "
             "(open in Perfetto or chrome://tracing)")
    parser.add_argument(
        "--profile", action="store_true",
        help="print a self/total wall-time tree over the run's spans "
             "(to stderr when combined with --json)")
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="stream ndjson span/event logs to stderr (-v: top phases, "
             "-vv: everything including solver progress)")
    return parser


def _log_depth(verbose: int) -> Optional[int]:
    """Map the -v count to an ndjson max depth (None = everything,
    -1 = logging disabled)."""
    return {0: -1, 1: 2}.get(verbose)


def _missing_dir(path: Optional[str]) -> bool:
    """True when ``path`` is set and its directory does not exist."""
    return bool(path) and not os.path.isdir(os.path.dirname(path) or ".")


def _throughput(netlist, cycles: int, seed: int) -> dict:
    """Simulate ``cycles`` random vectors and return a throughput record."""
    rng = random.Random(seed)
    widths = input_word_widths(netlist)
    vectors = [
        {name: rng.getrandbits(width) for name, width in widths.items()}
        for _ in range(cycles)
    ]
    start = time.perf_counter()
    simulate_sequence(netlist, vectors)
    seconds = time.perf_counter() - start
    return {
        "cycles": cycles,
        "seconds": seconds,
        "cycles_per_second": cycles / seconds if seconds > 0 else float("inf"),
    }


def run(argv: Optional[Sequence[str]] = None,
        out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    depth = _log_depth(args.verbose)
    tracing = bool(args.trace or args.profile or depth != -1)
    if tracing:
        sink = ndjson_sink(sys.stderr, depth) if depth != -1 else None
        tracer = Tracer(sink=sink)
    else:
        tracer = NULL_TRACER
    try:
        with use_tracer(tracer):
            with tracer.span("run", source=args.source) as span:
                try:
                    code = _execute(args, out, tracer)
                except CLIError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    code = 1
                span.set(exit_code=code)
    finally:
        if tracer.enabled:
            # A missing --trace directory was already reported.
            if args.trace and not _missing_dir(args.trace):
                try:
                    write_chrome_trace(tracer, args.trace)
                except OSError as exc:
                    print(f"error: cannot write '{args.trace}': "
                          f"{exc.strerror}", file=sys.stderr)
                    code = 1
            if args.profile:
                # Keep stdout machine-readable under --json.
                stream = sys.stderr if args.as_json else out
                print(profile_tree(tracer), file=stream)
    return code


def _execute(args, out, tracer) -> int:
    """The traced body of :func:`run`; returns the exit code."""
    if args.cycles is not None and args.cycles < 1:
        raise CLIError("--cycles expects a positive integer")
    if args.map_k is not None and not 2 <= args.map_k <= 6:
        raise CLIError("--map expects a LUT size K between 2 and 6")
    # Arguments that would only fail after elaboration, optimization and
    # CEC are checked before any of them runs.
    passes = _parse_passes(args.passes) if args.passes else None
    if passes is not None:
        try:
            check_passes(passes)
        except OptimizationError as exc:
            raise CLIError(str(exc)) from exc
    for path in (args.emit, args.solve_log, args.trace):
        if _missing_dir(path):
            raise CLIError(
                f"cannot write '{path}': No such file or directory")
    source = _read_source(args.source)
    ref_source = (_read_source(args.check_against) if args.check_against
                  else None)
    params = _parse_params(args.param)
    do_check = (args.check or args.certify or bool(args.solve_log)
                or bool(args.check_against))
    # Cross-design CEC needs no optimization run; self-CEC compares the
    # optimized netlist against the original, so it implies one.
    do_optimize = (args.optimize or bool(args.passes)
                   or (do_check and not args.check_against))

    try:
        netlist = elaborate(source, top=args.top, params=params or None)
    except (VerilogLexError, VerilogSyntaxError) as exc:
        raise CLIError(f"syntax error: {exc}") from exc
    except (ElaborationError, NetlistError) as exc:
        raise CLIError(f"elaboration error: {exc}") from exc

    report: dict = {
        "source": args.source,
        "top": netlist.name,
        "stats": netlist.stats(),
    }
    result = None
    if do_optimize:
        try:
            result = (optimize(netlist, passes=passes)
                      if passes is not None else optimize(netlist))
        except OptimizationError as exc:
            raise CLIError(str(exc)) from exc
        report["optimized_stats"] = result.netlist.stats()
        report["optimization"] = result.to_dict()
    final = result.netlist if result is not None else netlist
    if do_check:
        if args.check_against:
            try:
                reference = elaborate(ref_source, params=params or None)
            except (VerilogLexError, VerilogSyntaxError) as exc:
                raise CLIError(
                    f"{args.check_against}: syntax error: {exc}") from exc
            except (ElaborationError, NetlistError) as exc:
                raise CLIError(
                    f"{args.check_against}: elaboration error: "
                    f"{exc}") from exc
            lhs, rhs = final, reference
        else:
            assert result is not None
            lhs, rhs = netlist, result.netlist
        proof = None
        log_handle = None
        if args.solve_log:
            try:
                log_handle = open(args.solve_log, "w", encoding="utf-8")
            except OSError as exc:
                raise CLIError(
                    f"cannot write '{args.solve_log}': "
                    f"{exc.strerror}") from exc
            proof = ProofLog(stream=log_handle)
        # The on-disk content-hash cache (shared with repro.server):
        # when the exact pair + options was verified before, serve the
        # stored report without solving.  --solve-log bypasses it — the
        # caller asked for a live DRAT stream.
        cache_hit = False
        try:
            if args.cache and not args.solve_log:
                from .server.cache import CacheError, ResultCache
                from .server.jobs import verify_cached
                try:
                    cache = ResultCache(args.cache)
                except CacheError as exc:
                    raise CLIError(str(exc)) from exc
                eq_report, _, _, cache_hit = verify_cached(
                    lhs, rhs, {"certify": args.certify}, cache)
            else:
                verdict = check_equivalence(
                    lhs, rhs, certify=args.certify, proof=proof)
                eq_report = verdict.to_report(
                    certify=args.certify,
                    include_proof=bool(args.certify or args.solve_log))
        except CECError as exc:
            raise CLIError(str(exc)) from exc
        finally:
            if log_handle is not None:
                log_handle.close()
        report["equivalence"] = eq_report
        if args.cache:
            report["equivalence"]["cache_hit"] = cache_hit
        if args.check_against:
            report["equivalence"]["against"] = args.check_against
        if args.solve_log and "proof" in report["equivalence"]:
            report["equivalence"]["proof"]["log"] = args.solve_log
            report["equivalence"]["proof"]["log_bytes"] = \
                proof.bytes_written
    if args.ir == "aig":
        report["aig_stats"] = from_netlist(netlist).stats()
        if result is not None:
            report["optimized_aig_stats"] = \
                from_netlist(result.netlist).stats()
    if args.cycles is not None:
        report["simulation"] = _throughput(final, args.cycles, args.seed)
    emit_netlist = final
    if args.map_k is not None:
        mapped = map_aig(from_netlist(final), k=args.map_k)
        report["mapping"] = mapped.to_report()
        if args.emit:
            emit_netlist = mapped.to_netlist()
    if args.emit:
        try:
            with open(args.emit, "w", encoding="utf-8") as handle:
                handle.write(netlist_to_verilog(emit_netlist))
        except OSError as exc:
            raise CLIError(
                f"cannot write '{args.emit}': {exc.strerror}") from exc
        report["emitted"] = args.emit
    if tracer.enabled:
        # Phase timings as recorded so far (the "run" span is still open;
        # its children are the pipeline phases).
        trace_report: dict = {"spans": span_totals(tracer, depth=1)}
        if args.trace:
            trace_report["file"] = args.trace
        # Distribution metrics (per-CEC solve times, per-fraig-proof
        # conflicts): count/mean and exact p50/p95.
        metrics = trace_metrics(tracer)
        if metrics:
            trace_report["metrics"] = metrics
        report["trace"] = trace_report

    if args.as_json:
        json.dump(report, out, indent=2)
        out.write("\n")
    else:
        lines = _stats_lines(f"{netlist.name} (elaborated)",
                             report["stats"])
        if result is not None:
            lines.append("")
            lines.extend(_stats_lines(f"{netlist.name} (optimized)",
                                      report["optimized_stats"]))
            lines.append("")
            lines.append(result.summary())
        for key, title in (("aig_stats", "aig"),
                           ("optimized_aig_stats", "aig, optimized")):
            if key in report:
                stats = report[key]
                lines.append("")
                lines.append(f"{netlist.name} ({title}):")
                lines.append(f"  ands       {stats['ands']:>7}")
                lines.append(f"  latches    {stats['latches']:>7}")
                lines.append(f"  levels     {stats['levels']:>7}")
        if "equivalence" in report:
            lines.append("")
            eq = report["equivalence"]
            if eq["equivalent"]:
                if eq["hash_proven"] == eq["compared"]:
                    lines.append(
                        f"equivalence: PROVEN (all {eq['compared']} "
                        f"functions hash-merged in the shared AIG)")
                else:
                    lines.append(
                        f"equivalence: PROVEN ({eq['compared']} functions: "
                        f"{_proof_stages(eq)})")
            else:
                lines.append("equivalence: REFUTED")
                if eq.get("refuted_by_simulation"):
                    lines.append(
                        "  refuted by simulating the miter "
                        "(no solver search)")
                for kind, name, b, a in eq["counterexample"]["diff"]:
                    lines.append(
                        f"  {kind} '{name}': before={b} after={a}")
            if eq.get("sweep_proven"):
                lines.append(
                    f"  sweep: {eq['sweep_proven']} functions "
                    f"SAT-sweep-proven inside the shared miter AIG "
                    f"({eq['sweep_seconds'] * 1e3:.1f} ms)")
            solver = eq["solver"]
            if eq["cnf_clauses"] and not eq.get("sim_proven"):
                # The miter reached the top-level solve (stages 3-4).
                lines.append(
                    f"  solver: {solver['conflicts']} conflicts, "
                    f"{solver['restarts']} restarts, "
                    f"{solver['reduced_clauses']} reduced clauses, "
                    f"{solver['propagations']} propagations")
            if "proof" in eq:
                proof_rep = eq["proof"]
                if proof_rep["checked"] is True:
                    lines.append(
                        f"  proof: {proof_rep['clauses']} DRAT clauses, "
                        f"independently checked in "
                        f"{proof_rep['check_seconds'] * 1e3:.1f} ms")
                elif proof_rep["checked"] is False:
                    lines.append(
                        "  proof: FAILED the independent DRAT check")
                elif proof_rep["certified"]:
                    lines.append(
                        "  proof: nothing to check (no solver UNSAT "
                        "verdict)")
                if proof_rep.get("log"):
                    written = proof_rep["log_bytes"]
                    note = (f"{written} bytes" if written else
                            "empty: it holds none of this verdict's proof")
                    lines.append(f"  proof log: {proof_rep['log']} ({note})")
        if "simulation" in report:
            sim = report["simulation"]
            lines.append("")
            lines.append(
                f"simulation: {sim['cycles']} cycles in "
                f"{sim['seconds'] * 1e3:.1f} ms — "
                f"{sim['cycles_per_second']:.0f} cyc/s")
        if "mapping" in report:
            mp = report["mapping"]
            lines.append("")
            lines.append(
                f"mapping: {mp['lut_count']} LUT{mp['k']}s, "
                f"depth {mp['depth']} (depth target "
                f"{mp['depth_target']})")
        if "emitted" in report:
            lines.append("")
            lines.append(f"emitted Verilog: {report['emitted']}")
        out.write("\n".join(lines) + "\n")
    if "equivalence" in report:
        eq = report["equivalence"]
        if not eq["equivalent"]:
            return 2
        proof_rep = eq.get("proof")
        if (proof_rep is not None and proof_rep["certified"]
                and eq["hash_proven"] < eq["compared"]
                and proof_rep["checked"] is not True):
            # --certify demanded a certificate for this UNSAT verdict and
            # the independent checker did not grant one.
            print("error: UNSAT equivalence verdict was not certified by "
                  "the independent DRAT proof checker", file=sys.stderr)
            return 1
    return 0


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run())
