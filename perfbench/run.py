#!/usr/bin/env python3
"""The repository benchmark: three workloads, every output checked.

Run from the repository root::

    python3 perfbench/run.py --workload flow --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``) are ``flow``, ``cec_xmul`` and
``server_mix``.  With ``--trace 0`` a run measures with tracing off and
prints the end-to-end metrics.  With ``--trace 1`` it alternates traced
and untraced ops and prints the per-layer metrics, the tracing overhead,
the unattributed share of the traced ops and, on ``flow``, a per-design
layer table.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Set-up covers imports, input generation and the first op; on
``server_mix`` it also covers the daemon start and one warm-up job per
pool worker.  A run measures its own set-up and that of fresh probe
processes and reports the median.  Scratch files (the server's result
cache) live under ``.perfbench_run/`` and are removed when a run ends.

The machine this runs on is shared, and its speed drifts by 2x and more
over minutes.  Every end-to-end time is therefore a median wall time
scaled to the reference machine speed by the median of machine-speed
samples taken before, between and after the timed work (see
``calibrate.py``); the text report also prints the wall times.
"""

import time

import calibrate  # the standard library only

calibrate.sample()  # the first pass runs unspecialized bytecode
SAMPLES = [calibrate.sample()]
T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_run")

WORKLOADS = ("flow", "cec_xmul", "server_mix")
#: Set-up samples per run: this process plus fresh probe processes.
SETUP_SAMPLES = {"full": 3, "tiny": 1}

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("jobs_per_s", "1/s"),
    ("ands", "count"),
    ("levels", "count"),
    ("luts", "count"),
    ("lut_depth", "count"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

PER_LAYER = (
    ("verilog.parse_s", "s"),
    ("verilog.bytes_per_s", "B/s"),
    ("elaborate.lower_s", "s"),
    ("opt.optimize_s", "s"),
    ("opt.simplify_s", "s"),
    ("opt.strash_s", "s"),
    ("opt.balance_s", "s"),
    ("opt.rewrite_s", "s"),
    ("opt.sweep_s", "s"),
    ("opt.useful_pass_ratio", "ratio"),
    ("opt.rewrite_cuts", "count"),
    ("opt.rewrite_replacements", "count"),
    ("opt.rewrite_saved", "count"),
    ("opt.rewrite_saved_per_kcut", "count"),
    ("aig.lower_s", "s"),
    ("cec.check_s", "s"),
    ("cec.sweep_s", "s"),
    ("cec.compared", "count"),
    ("cec.hash_proven", "count"),
    ("cec.sweep_proven", "count"),
    ("cec.hash_proven_ratio", "ratio"),
    ("cec.encode_s", "s"),
    ("cec.solve_s", "s"),
    ("cec.conflicts", "count"),
    ("cec.propagations", "count"),
    ("cec.props_per_s", "1/s"),
    ("cec.cnf_clauses", "count"),
    ("cec.eliminated_vars", "count"),
    ("cec.proof_check_s", "s"),
    ("cec.proof_clauses", "count"),
    ("cec.sim_refuted", "count"),
    ("map.map_s", "s"),
    ("map.to_netlist_s", "s"),
    ("map.area_flow_luts", "count"),
    ("map.exact_area_luts", "count"),
    ("emit.emit_s", "s"),
    ("emit.bytes", "B"),
    ("server.worker_s", "s"),
    ("server.wait_s", "s"),
    ("server.alias_hits", "count"),
    ("server.dedup_hits", "count"),
    ("server.disk_hits", "count"),
    ("server.cold_jobs", "count"),
    ("server.errors", "count"),
    ("server.pool_warm_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny designs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def probe_setup(args) -> tuple[float, list[float]]:
    """Set-up seconds of a fresh process running the same workload, and
    its machine-speed samples."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr[-2000:]}")
    return tuple(json.loads(done.stdout.strip().splitlines()[-1]))


def end_to_end(outcome, setups, qor, peak_rss_mb) -> dict:
    op_p50 = calibrate.scaled(median(outcome.op_seconds), outcome.samples)
    return {
        "setup_s": calibrate.scaled(median(s for s, _ in setups),
                                    [x for _, xs in setups for x in xs]),
        "op_p50_s": op_p50,
        "jobs_per_s": outcome.jobs_per_op / op_p50 if op_p50 else 0.0,
        **qor,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": 1.0 - outcome.fail_ratio,
    }


def per_layer(outcome) -> dict:
    values = {name: median(s.get(name, 0.0) for s in outcome.layers)
              for name, _ in PER_LAYER}
    untraced = median(outcome.op_seconds)
    values["trace.overhead_ratio"] = (
        median(outcome.traced_seconds) / untraced if untraced else 0.0)
    values["trace.unattributed_share"] = median(outcome.unattributed)
    return values


def print_design_table(tables: list[dict]) -> None:
    from workloads import FLOW_COLUMNS

    print(f"  flow layers per design, ms, median of {len(tables)} "
          f"traced ops:")
    short = [c.split(".")[-1] for c in FLOW_COLUMNS]
    print("    " + f"{'design':<11}{'total':>8}"
          + "".join(f"{s:>11}" for s in short)
          + "  largest       cec hash/sweep/compared")
    for design in tables[0]:
        cell = {c: median(t[design].get(c, 0.0) for t in tables)
                for c in FLOW_COLUMNS}
        largest = max(cell, key=cell.get)
        cec = tables[0][design]
        print("    " + f"{design:<11}{sum(cell.values()) * 1e3:>8.1f}"
              + "".join(f"{cell[c] * 1e3:>11.1f}" for c in FLOW_COLUMNS)
              + f"  {largest:<14}{cec['hash_proven']}/"
                f"{cec['sweep_proven']}/{cec['compared']}")


def print_report(args, outcome, metrics, units, setups) -> None:
    print(f"perfbench {args.workload}: seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"  {outcome.attempted} ops attempted, {outcome.failed} failed "
          f"(fail_ratio {outcome.fail_ratio:.4f}); "
          f"{len(outcome.op_seconds)} untraced and "
          f"{len(outcome.traced_seconds)} traced op samples")
    if setups:
        print("  set-up wall seconds: "
              + ", ".join(f"{s:.3f}" for s, _ in setups))
    ops = outcome.op_seconds
    if ops:
        print(f"  untraced op wall seconds: p50 {median(ops):.4f}, "
              f"min {min(ops):.4f}, max {max(ops):.4f}")
    if outcome.samples:
        print(f"  machine speed: a sample took {median(outcome.samples):.4f}"
              f" s (median of {len(outcome.samples)}; reference "
              f"{calibrate.REFERENCE_S} s)")
    for problem in outcome.problems[:20]:
        print(f"  FAILED {problem}")
    if args.trace:
        print(f"  tracing overhead: traced op p50 "
              f"{median(outcome.traced_seconds):.4f} s vs untraced "
              f"{median(outcome.op_seconds):.4f} s")
        shares = outcome.unattributed
        if shares:
            print("  unattributed share per traced op: "
                  + ", ".join(f"{s:.1%}" for s in shares[:12])
                  + (f" ... (max {max(shares):.1%})"
                     if len(shares) > 12 else ""))
        if outcome.design_tables:
            print_design_table(outcome.design_tables)
    for name, unit in units:
        print(f"  {name:<28} {metrics[name]:>16.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # the program's imports count as set-up

    workload = workloads.make(args.workload, args.seed, args.size, WORKDIR)
    try:
        workload.setup()
        setup_s = time.perf_counter() - T_START
        SAMPLES.append(calibrate.sample())
        setup = (setup_s, SAMPLES)
        if args.setup_probe:
            print(json.dumps(setup))
            return 0
        outcome = workload.measure(args.seconds, traced=bool(args.trace))
        qor = None if args.trace else workload.qor()
    finally:
        workload.close()
    if args.trace:
        setups = []
        metrics, units = per_layer(outcome), PER_LAYER
    else:
        setups = [setup] + [probe_setup(args) for _ in
                            range(SETUP_SAMPLES[args.size] - 1)]
        metrics = end_to_end(outcome, setups, qor, workload.peak_rss_mb())
        units = END_TO_END
    print_report(args, outcome, metrics, units, setups)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
