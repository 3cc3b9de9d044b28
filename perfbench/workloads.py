"""The benchmark's workloads: what one op does and how it is checked.

``flow``
    One op runs the CLI path of a redaction flow on five designs: parse,
    elaborate, ``optimize()``, CEC of the optimized netlist against the
    original, 4-LUT mapping, ``to_netlist``, Verilog emission, and parse +
    elaborate of the emitted text.
``cec_xmul``
    One op is a certified proof that the carry-save multiplier equals the
    shift-and-add multiplier, plus a refutation of a buggy multiplier.
``server_mix``
    One op is one round of 24 jobs: each of two closed-loop clients
    submits its 12 jobs to an in-process verification daemon with two
    pool workers, and the round ends when both clients have every answer.

Every op is timed with :func:`time.perf_counter` and checked after its
timing stops; a failed check counts against the run and does not stop it.
Machine-speed samples (:mod:`calibrate`) are taken between the ops.
On a traced op the workload records :mod:`spans` around its calls into
the program and reads the stats objects those calls return; the per-layer
metrics come from both.  Nothing inside the program is instrumented for
the benchmark.
"""

from __future__ import annotations

import asyncio
import os
import resource
import shutil
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.netlist import (
    Interpreter,
    check_equivalence,
    elaborate,
    from_netlist,
    simulate_sequence,
    simulate_vectors,
)
from repro.netlist.emit import netlist_to_verilog
from repro.netlist.opt import map_aig, optimize
from repro.obs import Tracer
from repro.server import ServerClient, run_daemon
from repro.verilog import parse

import calibrate
import designs
from spans import OFF, Spans, by_group, leaf_totals, unattributed_share

#: Passes of the default ``optimize()`` pipeline, in order.
PASSES = ("simplify", "strash", "balance", "rewrite", "sweep")


@dataclass
class Outcome:
    """What one measured run produced."""

    #: Wall seconds of each untraced op that passed its checks.
    op_seconds: list[float] = field(default_factory=list)
    #: :func:`calibrate.sample` seconds taken between the ops.
    samples: list[float] = field(default_factory=list)
    #: Seconds of each traced op that passed its checks.
    traced_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Jobs in one op: designs (flow), proofs (cec_xmul) or submitted
    #: jobs (server_mix).
    jobs_per_op: int = 1
    #: Per-layer values, one dict per traced op (per traced round on
    #: ``server_mix``).
    layers: list[dict[str, float]] = field(default_factory=list)
    #: Unattributed share of each traced op.
    unattributed: list[float] = field(default_factory=list)
    #: Per traced flow op: seconds per layer column, per design.
    design_tables: list[dict[str, dict[str, float]]] = field(
        default_factory=list)

    def record(self, problems: list[str], label: str) -> bool:
        """Count one checked op; returns True when it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def sample(self) -> None:
        """Take a machine-speed sample next to an op."""
        self.samples.append(calibrate.sample())


def _add(metrics: dict[str, float], name: str, value: float) -> None:
    metrics[name] = metrics.get(name, 0) + value


def _span_metrics(rows) -> dict[str, float]:
    return {f"{layer}_s": seconds
            for layer, seconds in leaf_totals(rows).items()}


def _add_cec(metrics: dict[str, float], report: dict) -> None:
    """Accumulate one CEC verdict, given as its ``to_report`` dict."""
    solver = report.get("solver") or {}
    pre = report.get("preprocessor") or {}
    proof = report.get("proof") or {}
    for name, value in (
            ("cec.compared", report["compared"]),
            ("cec.hash_proven", report["hash_proven"]),
            ("cec.sweep_proven", report["sweep_proven"]),
            ("cec.sweep_s", report["sweep_seconds"]),
            ("cec.encode_s", report["encode_seconds"]),
            ("cec.solve_s", report["solve_seconds"]),
            ("cec.conflicts", solver.get("conflicts", 0)),
            ("cec.propagations", solver.get("propagations", 0)),
            ("cec.cnf_clauses", report["cnf_clauses"]),
            ("cec.eliminated_vars", pre.get("eliminated_vars", 0)),
            ("cec.proof_check_s", proof.get("check_seconds", 0.0)),
            ("cec.proof_clauses", proof.get("clauses", 0)),
            ("cec.sim_refuted", int(report["refuted_by_simulation"]))):
        _add(metrics, name, value)


def _cec_ratios(metrics: dict[str, float]) -> None:
    compared = metrics.get("cec.compared", 0)
    metrics["cec.hash_proven_ratio"] = (
        metrics.get("cec.hash_proven", 0) / compared if compared else 0.0)
    solve = metrics.get("cec.solve_s", 0.0)
    metrics["cec.props_per_s"] = (
        metrics.get("cec.propagations", 0) / solve if solve else 0.0)


def _input_qor(netlists) -> dict[str, int]:
    """AIG size and depth, and 4-LUT count and depth, summed over
    ``netlists`` as elaborated (no optimization)."""
    totals = dict.fromkeys(("ands", "levels", "luts", "lut_depth"), 0)
    for netlist in netlists:
        aig = from_netlist(netlist)
        mapped = map_aig(aig, k=4)
        totals["ands"] += aig.num_ands
        totals["levels"] += aig.levels()
        totals["luts"] += mapped.lut_count
        totals["lut_depth"] += mapped.depth
    return totals


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Workload:
    """Shared parts: the first op's reference counts and tear-down."""

    def __init__(self) -> None:
        self.reference: Optional[dict[str, Any]] = None

    def same_as_first(self, counts: dict[str, Any]) -> list[str]:
        """Deterministic counts must equal the first op's."""
        if self.reference is None:
            self.reference = counts
            return []
        return [f"{key} = {counts.get(key)}, first op had {value}"
                for key, value in self.reference.items()
                if counts.get(key) != value]

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()


class SerialWorkload(Workload):
    """A workload whose ops run one after another on the calling thread.

    Subclasses define ``op(spans)``, ``check(result)`` and
    ``layer_metrics(result, rows)``.
    """

    def setup(self) -> None:
        # The first op pays for lazy imports and first-call caches; it is
        # set-up, not a sample.
        self._warm = self.op(OFF)

    def design_table(self, result, rows) -> Optional[dict]:
        return None

    def measure(self, seconds: float, traced: bool) -> Outcome:
        out = Outcome(jobs_per_op=len(self._warm))
        out.record(self.check(self._warm), "first op")
        spans = Spans()
        start = time.perf_counter()
        k = 0
        while k < 1 + traced or time.perf_counter() - start < seconds:
            # A traced run alternates traced and untraced ops, so both
            # see the same machine state and their ratio is the overhead.
            rec = spans if traced and k % 2 == 0 else OFF
            out.sample()
            t0 = time.perf_counter()
            try:
                with rec.op(k):
                    result = self.op(rec)
            except Exception as exc:  # noqa: BLE001 — counted, not fatal
                out.record([f"raised {exc!r}"], f"op {k}")
                k += 1
                continue
            elapsed = time.perf_counter() - t0
            out.sample()
            if out.record(self.check(result), f"op {k}"):
                if rec.enabled:
                    rows = spans.op_rows(k)
                    out.traced_seconds.append(elapsed)
                    out.layers.append(self.layer_metrics(result, rows))
                    out.unattributed.append(unattributed_share(rows))
                    table = self.design_table(result, rows)
                    if table is not None:
                        out.design_tables.append(table)
                else:
                    out.op_seconds.append(elapsed)
            k += 1
        return out


# -- flow ---------------------------------------------------------------------

@dataclass
class FlowRecord:
    design: designs.Design
    opt: Any
    verdict: Any
    aig: Any
    mapped: Any
    text: str
    reloaded: Any


#: Columns of the per-design layer table, in flow order.
FLOW_COLUMNS = ("verilog.parse", "elaborate.lower") + tuple(
    f"opt.{name}" for name in PASSES) + (
    "opt.other", "cec.check", "aig.lower", "map.map", "map.to_netlist",
    "emit.emit")


def _rewrite_totals(opt) -> tuple[int, int, int]:
    cuts = replaced = saved = 0
    for row in opt.stats:
        if row.name == "rewrite" and row.details:
            cuts += row.details["cuts_evaluated"]
            replaced += row.details["replacements"]
            saved += row.details["nodes_saved"]
    return cuts, replaced, saved


class Flow(SerialWorkload):
    def __init__(self, seed: int, size: str) -> None:
        super().__init__()
        self.inputs = designs.flow_inputs(seed, size)
        self._expected: dict[str, list] = {}

    def op(self, spans) -> list[FlowRecord]:
        records = []
        for item in self.inputs:
            with spans.span("design." + item.design.top):
                records.append(self._design(item.design, spans.span))
        return records

    @staticmethod
    def _design(design: designs.Design, span) -> FlowRecord:
        with span("verilog.parse"):
            tree = parse(design.src)
        with span("elaborate.lower"):
            original = elaborate(tree, top=design.top)
        with span("opt.optimize"):
            opt = optimize(original)
        with span("cec.check"):
            verdict = check_equivalence(original, opt.netlist)
        with span("aig.lower"):
            aig = from_netlist(opt.netlist)
        with span("map.map"):
            mapped = map_aig(aig, k=4)
        with span("map.to_netlist"):
            luts = mapped.to_netlist()
        with span("emit.emit"):
            text = netlist_to_verilog(luts)
        with span("verilog.parse"):
            tree = parse(text)
        with span("elaborate.lower"):
            reloaded = elaborate(tree, top=original.name)
        return FlowRecord(design, opt, verdict, aig, mapped, text, reloaded)

    def check(self, records: list[FlowRecord]) -> list[str]:
        problems = []
        for item, rec in zip(self.inputs, records):
            top = item.design.top
            if not rec.verdict.equivalent:
                problems.append(f"{top}: CEC refuted the optimized netlist")
            if top not in self._expected:
                self._expected[top] = [
                    Interpreter(item.design.src, top=top).run(seq)
                    for seq in item.sequences]
            got = [simulate_sequence(rec.reloaded, seq)
                   for seq in item.sequences]
            if got != self._expected[top]:
                problems.append(f"{top}: the re-elaborated LUT netlist "
                                f"disagrees with the AST interpreter")
        return problems + self.same_as_first(self._counts(records))

    @staticmethod
    def _counts(records: list[FlowRecord]) -> dict[str, int]:
        counts = {}
        for rec in records:
            cuts, replaced, saved = _rewrite_totals(rec.opt)
            for key, value in (
                    ("ands", rec.aig.num_ands), ("levels", rec.aig.levels()),
                    ("luts", rec.mapped.lut_count),
                    ("lut_depth", rec.mapped.depth),
                    ("rewrite_cuts", cuts), ("rewrite_replacements", replaced),
                    ("rewrite_saved", saved),
                    ("hash_proven", rec.verdict.hash_proven),
                    ("sweep_proven", rec.verdict.sweep_proven),
                    ("emit_bytes", len(rec.text))):
                counts[f"{rec.design.top}.{key}"] = value
        return counts

    def qor(self) -> dict[str, int]:
        """Post-optimize AIG and 4-LUT QoR, summed over the designs."""
        totals = dict.fromkeys(("ands", "levels", "luts", "lut_depth"), 0)
        for key, value in (self.reference or {}).items():
            metric = key.split(".", 1)[1]
            if metric in totals:
                totals[metric] += value
        return totals

    def layer_metrics(self, records: list[FlowRecord], rows
                      ) -> dict[str, float]:
        m = _span_metrics(rows)
        runs = useful = parsed = 0
        for rec in records:
            parsed += len(rec.design.src) + len(rec.text)
            for row in rec.opt.stats:
                _add(m, f"opt.{row.name}_s", row.seconds)
                runs += 1
                useful += (row.gates_after != row.gates_before
                           or row.levels_after != row.levels_before)
            cuts, replaced, saved = _rewrite_totals(rec.opt)
            _add(m, "opt.rewrite_cuts", cuts)
            _add(m, "opt.rewrite_replacements", replaced)
            _add(m, "opt.rewrite_saved", saved)
            _add_cec(m, rec.verdict.to_report(include_proof=True))
            _add(m, "map.area_flow_luts", rec.mapped.stats.area_flow_luts)
            _add(m, "map.exact_area_luts", rec.mapped.stats.exact_area_luts)
            _add(m, "emit.bytes", len(rec.text))
        m["opt.useful_pass_ratio"] = useful / runs if runs else 0.0
        cuts = m.get("opt.rewrite_cuts", 0)
        m["opt.rewrite_saved_per_kcut"] = (
            1000 * m["opt.rewrite_saved"] / cuts if cuts else 0.0)
        parse_s = m.get("verilog.parse_s", 0.0)
        m["verilog.bytes_per_s"] = parsed / parse_s if parse_s else 0.0
        _cec_ratios(m)
        return m

    def design_table(self, records: list[FlowRecord], rows
                     ) -> dict[str, dict[str, float]]:
        """Seconds per :data:`FLOW_COLUMNS` entry, per design; optimize
        is split into its passes by ``PassStats.seconds``."""
        table = by_group(rows, "design.")
        for rec in records:
            column = table[rec.design.top]
            for row in rec.opt.stats:
                _add(column, f"opt.{row.name}", row.seconds)
            column["opt.other"] = column.pop("opt.optimize", 0.0) - sum(
                column.get(f"opt.{name}", 0.0) for name in PASSES)
            column["hash_proven"] = rec.verdict.hash_proven
            column["sweep_proven"] = rec.verdict.sweep_proven
            column["compared"] = rec.verdict.compared
        return table


# -- cec_xmul -----------------------------------------------------------------

class CecXmul(SerialWorkload):
    def __init__(self, seed: int, size: str) -> None:
        super().__init__()
        self.pairs, self.operands = designs.cec_inputs(seed, size)
        self.netlists: list[tuple[Any, Any]] = []

    def setup(self) -> None:
        self.netlists = [(elaborate(p.before.src, top=p.before.top),
                          elaborate(p.after.src, top=p.after.top))
                         for p in self.pairs]
        super().setup()

    def op(self, spans) -> list:
        verdicts = []
        for before, after in self.netlists:
            with spans.span("cec.check"):
                verdicts.append(check_equivalence(before, after,
                                                  certify=True))
        return verdicts

    def check(self, verdicts: list) -> list[str]:
        problems = []
        counts = {}
        vectors = [{"a": a, "b": b} for a, b in self.operands]
        products = [a * b for a, b in self.operands]
        for pair, (before, after), v in zip(self.pairs, self.netlists,
                                            verdicts):
            label = pair.label
            if v.equivalent != pair.expect_equivalent:
                problems.append(
                    f"{label}: {'equivalent' if v.equivalent else 'refuted'}"
                    f", expected the opposite")
            elif v.equivalent and v.proof_checked is not True:
                problems.append(f"{label}: UNSAT verdict not DRAT-certified")
            elif not v.equivalent:
                # Replay the counterexample through the word-level
                # simulator, apart from the checker's own replay.
                inputs = v.counterexample.packed_inputs()
                if simulate_vectors(before, inputs)[0] == \
                        simulate_vectors(after, inputs)[0]:
                    problems.append(f"{label}: counterexample does not "
                                    f"distinguish the designs")
            if [o["p"] for o in simulate_sequence(before, vectors)] \
                    != products:
                problems.append(f"{label}: {pair.before.top} is not a * b")
            after_ok = [o["p"] for o in simulate_sequence(after, vectors)] \
                == products
            if after_ok != pair.expect_equivalent:
                problems.append(f"{label}: simulation of {pair.after.top} "
                                f"contradicts the expected verdict")
            counts.update({f"{label}.equivalent": v.equivalent,
                           f"{label}.conflicts": v.solver_stats.conflicts,
                           f"{label}.cnf_clauses": v.cnf_clauses,
                           f"{label}.proof_clauses": v.proof_clauses})
        return problems + self.same_as_first(counts)

    def qor(self) -> dict[str, int]:
        """QoR of the verified designs as elaborated (no optimize step)."""
        distinct = {}
        for pair, (before, after) in zip(self.pairs, self.netlists):
            distinct.setdefault(pair.before.src, before)
            distinct.setdefault(pair.after.src, after)
        return _input_qor(distinct.values())

    def layer_metrics(self, verdicts: list, rows) -> dict[str, float]:
        m = _span_metrics(rows)
        for v in verdicts:
            _add_cec(m, v.to_report(include_proof=True))
        _cec_ratios(m)
        return m


# -- server_mix ---------------------------------------------------------------

#: Pool workers, and closed-loop clients: one of each per core of the
#: two-core machine the mix was sized on.
WORKERS = 2
#: Client polling interval while a job runs.  Latency is read from the
#: daemon's job record, so polling only delays the next submission.
POLL_S = 0.01


@dataclass
class JobResult:
    job: designs.Job
    reply: dict
    record: dict
    spans: Optional[list] = None

    @property
    def path(self) -> str:
        """How the daemon served the job: cold, disk, alias, dedup or
        errors."""
        if self.record.get("status") != "done":
            return "errors"
        if self.reply.get("deduplicated"):
            return "dedup"
        if not self.record.get("cache_hit"):
            return "cold"
        return "alias" if self.record.get("seconds") == 0.0 else "disk"


class ServerMix(Workload):
    def __init__(self, seed: int, size: str, workdir: str) -> None:
        super().__init__()
        self.seed, self.size, self.workdir = seed, size, workdir
        self._thread: Optional[threading.Thread] = None
        self.workers_rss_mb = 0.0

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        ready = threading.Event()
        box: dict = {}

        def on_ready(daemon) -> None:
            box["daemon"] = daemon
            ready.set()

        def serve() -> None:
            asyncio.run(run_daemon(port=0, workers=WORKERS,
                                   cache_dir=self.cache_dir, ready=on_ready))

        self._thread = threading.Thread(target=serve, name="verify-daemon",
                                        daemon=True)
        self._thread.start()
        if not ready.wait(timeout=60):
            raise RuntimeError("the verification daemon did not start")
        self.daemon = box["daemon"]
        self.client = ServerClient(port=self.daemon.port)
        # Fork both pool workers and run one job through each.
        start = time.perf_counter()
        with ThreadPoolExecutor(WORKERS) as pool:
            records = list(pool.map(lambda src: self.client.verify(src, src),
                                    designs.warmup_sources(WORKERS)))
        self.pool_warm_s = time.perf_counter() - start
        if any(r["status"] != "done" for r in records):
            raise RuntimeError(f"pool warm-up job failed: {records}")

    def close(self) -> None:
        if self._thread is None:
            return
        try:
            self.client.shutdown()
        finally:
            self._thread.join(timeout=120)
            self._thread = None
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        # The pool has been joined; its largest worker's peak stands in
        # for each worker.
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.workers_rss_mb = WORKERS * children / 1024

    def peak_rss_mb(self) -> float:
        return _self_rss_mb() + self.workers_rss_mb

    def _client_loop(self, jobs: list[designs.Job], spans) -> list[JobResult]:
        client = ServerClient(port=self.daemon.port)
        results = []
        for k, job in enumerate(jobs):
            try:
                with spans.op(k):
                    with spans.span("server.submit"):
                        reply = client.submit(job.before, job.after)
                    with spans.span("server.poll"):
                        record = client.wait(reply["id"], poll=POLL_S)
            except Exception as exc:  # noqa: BLE001 — counted, not fatal
                reply, record = {}, {"status": "error", "error": repr(exc)}
            rows = spans.op_rows(k) if spans.enabled else None
            results.append(JobResult(job, reply, record, rows))
        return results

    def measure(self, seconds: float, traced: bool) -> Outcome:
        out = Outcome(jobs_per_op=designs.round_counts(self.size)["jobs"])
        start = time.perf_counter()
        r = 0
        with ThreadPoolExecutor(WORKERS) as pool:
            while r < 1 + traced or time.perf_counter() - start < seconds:
                # Traced and untraced rounds alternate.  The daemon's
                # tracer makes its workers return their spans.
                traced_round = traced and r % 2 == 0
                tracer = Tracer() if traced_round else None
                self.daemon.tracer = tracer
                recorders = [Spans() if traced_round else OFF
                             for _ in range(WORKERS)]
                out.sample()
                t0 = time.perf_counter()
                futures = [pool.submit(self._client_loop, jobs, rec)
                           for jobs, rec in zip(
                               designs.server_round(self.seed, r, self.size),
                               recorders)]
                jobs = [res for f in futures for res in f.result()]
                elapsed = time.perf_counter() - t0
                self.daemon.tracer = None
                out.sample()
                if self._score(out, jobs, r, tracer):
                    if traced_round:
                        out.traced_seconds.append(elapsed)
                    else:
                        out.op_seconds.append(elapsed)
                r += 1
        return out

    def _score(self, out: Outcome, jobs: list[JobResult], r: int,
               tracer: Optional[Tracer]) -> bool:
        """Check one round's jobs; returns True when all of them passed."""
        counts = dict.fromkeys(
            ("cold", "disk", "alias", "dedup", "errors", "conflicts"), 0)
        passed = 0
        for res in jobs:
            path = res.path
            counts[path] += 1
            problems = []
            if path == "errors":
                problems.append(str(res.record.get("error")))
            else:
                report = res.record["equivalence"]
                if report["equivalent"] != res.job.expect_equivalent:
                    problems.append("wrong verdict")
                if path != res.job.path:
                    problems.append(f"served as {path}, expected "
                                    f"{res.job.path}")
                if path == "cold":
                    counts["conflicts"] += report["solver"]["conflicts"]
            label = f"round {r} {res.job.path} {res.job.label}"
            passed += out.record(problems, label)
        mismatch = self.same_as_first(counts)
        if mismatch:
            out.failed += 1
            out.problems.extend(f"round {r}: {p}" for p in mismatch)
        if tracer is not None:
            out.layers.append(self._round_layers(jobs, counts, tracer))
            out.unattributed.extend(unattributed_share(res.spans)
                                    for res in jobs if res.spans)
        return passed == len(jobs) and not mismatch

    def _round_layers(self, jobs: list[JobResult], counts: dict,
                      tracer: Tracer) -> dict[str, float]:
        """Per-layer values of one traced round: times are seconds per
        job, counts are per round."""
        n = len(jobs)
        m: dict[str, float] = {}
        for res in jobs:
            if res.path == "cold":
                _add_cec(m, res.record["equivalence"])
        for name in ("cec.sweep_s", "cec.encode_s", "cec.solve_s",
                     "cec.proof_check_s"):
            m[name] = m.get(name, 0.0) / n
        parses = [s for s in tracer.records
                  if s.name == "elaborate.parse" and s.duration]
        parse_s = sum(s.duration for s in parses)
        m["verilog.parse_s"] = parse_s / n
        m["verilog.bytes_per_s"] = (sum(s.args.get("bytes", 0)
                                        for s in parses) / parse_s
                                    if parse_s else 0.0)
        m["elaborate.lower_s"] = tracer.total_seconds("elaborate.lower") / n
        m["cec.check_s"] = tracer.total_seconds("cec") / n
        done = [res.record for res in jobs if res.path != "errors"]
        m["server.worker_s"] = sum(rec["seconds"] or 0.0
                                   for rec in done) / n
        m["server.wait_s"] = sum(rec["finished"] - rec["submitted"]
                                 - (rec["seconds"] or 0.0)
                                 for rec in done) / n
        for path in ("alias", "dedup", "disk"):
            m[f"server.{path}_hits"] = counts[path]
        m["server.cold_jobs"] = counts["cold"]
        m["server.errors"] = counts["errors"]
        m["server.pool_warm_s"] = self.pool_warm_s
        _cec_ratios(m)
        return m

    def qor(self) -> dict[str, int]:
        """QoR of one round's distinct designs as elaborated."""
        return _input_qor(elaborate(d.src, top=d.top)
                          for d in designs.server_designs(self.size))


def make(name: str, seed: int, size: str, workdir: Optional[str]
         ) -> Workload:
    if name == "flow":
        return Flow(seed, size)
    if name == "cec_xmul":
        return CecXmul(seed, size)
    if name == "server_mix":
        return ServerMix(seed, size, workdir)
    raise ValueError(f"unknown workload {name!r}")
