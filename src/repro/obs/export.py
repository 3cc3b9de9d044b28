"""Exporters over a :class:`repro.obs.Tracer`'s records.

Three consumers, three formats:

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — Chrome
  trace-event JSON (the ``{"traceEvents": [...]}`` flavor), loadable in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing`` for a
  flame-graph view of a run;
* :func:`ndjson_sink` — a streaming structured log, one JSON object per
  finished span/event, for ``-v`` on the CLI and for log shippers;
* :func:`profile_tree` — a human self/total time tree, the ``--profile``
  summary (ABC's ``time`` command, but hierarchical).

:func:`span_totals` is the machine-readable reduction the benchmark rows
embed: top-level span name → total seconds.  :func:`trace_metrics` is the
CLI's ``trace.metrics`` report: distributions summarized from the spans
and instants the engines already record.
"""

from __future__ import annotations

import json
import math
from typing import IO, Callable, Optional

from .tracer import SpanRecord, Tracer

#: ``solver.progress`` report keys that :func:`to_chrome_trace` graphs as
#: counter tracks.
_COUNTER_KEYS = ("conflicts", "conflicts_per_second", "trail", "learned",
                 "mean_lbd", "props_per_second")


def to_chrome_trace(tracer: Tracer) -> dict:
    """Render the tracer's records as a Chrome trace-event JSON object.

    Spans become complete (``"ph": "X"``) events and instants become
    thread-scoped instant (``"ph": "i"``) events; timestamps are
    microseconds from the tracer's epoch, which is what the trace viewers
    expect.  Every thread that recorded a span gets ``thread_name`` /
    ``thread_sort_index`` metadata (the tracer's own thread is ``main``
    and sorts first; others are ``worker-N`` in order of appearance).
    Each ``solver.progress`` instant also becomes one counter (``"ph":
    "C"``) event per search-shape key, which Perfetto graphs as live
    tracks of the solver's search under the flame graph.  Perfetto keys
    counters by (pid, name), so the main lane's tracks are
    ``solver.<key>`` and every other lane's carry its label
    (``worker-1 solver.conflicts``).
    """
    events: list[dict] = [{
        "name": "process_name",
        "ph": "M",
        "pid": tracer.pid,
        "tid": 0,
        "args": {"name": "repro"},
    }]
    tids: dict[int, str] = {}
    for record in tracer.records:
        if record.tid not in tids:
            tids[record.tid] = ""  # labeled below, in appearance order
    workers = 0
    for tid in tids:
        if tid == tracer.main_tid:
            tids[tid] = "main"
        else:
            workers += 1
            tids[tid] = f"worker-{workers}"
    sort_index = 1
    for tid, label in tids.items():
        index = 0 if label == "main" else sort_index
        if label != "main":
            sort_index += 1
        events.append({"name": "thread_name", "ph": "M", "pid": tracer.pid,
                       "tid": tid, "args": {"name": label}})
        events.append({"name": "thread_sort_index", "ph": "M",
                       "pid": tracer.pid, "tid": tid,
                       "args": {"sort_index": index}})
    for record in tracer.records:
        event: dict = {
            "name": record.name,
            "cat": record.path[0] if record.path else record.name,
            "pid": tracer.pid,
            "tid": record.tid,
            "ts": round(record.start * 1e6, 3),
            "args": record.args,
        }
        if record.duration is None:
            event["ph"] = "i"
            event["s"] = "t"
        else:
            event["ph"] = "X"
            event["dur"] = round(record.duration * 1e6, 3)
        events.append(event)
        if record.name == "solver.progress":
            label = tids[record.tid]
            prefix = "solver." if label == "main" else f"{label} solver."
            for key in _COUNTER_KEYS:
                value = record.args.get(key)
                if value is not None:
                    events.append({
                        "name": prefix + key,
                        "ph": "C",
                        "pid": tracer.pid,
                        "tid": 0,
                        "ts": event["ts"],
                        "args": {"value": value},
                    })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    """Write :func:`to_chrome_trace` output to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(tracer), handle, default=str)
        handle.write("\n")


def ndjson_sink(stream: IO[str],
                max_depth: Optional[int] = None,
                flush: bool = True) -> Callable[[SpanRecord], None]:
    """A :class:`Tracer` sink streaming records to ``stream`` as ndjson.

    Each finished span emits one line as it closes (events as they fire)
    and the stream is flushed per line by default, so the log is live
    even on a block-buffered file or piped stderr — a hung run shows its
    last completed phase.  Pass ``flush=False`` to trade liveness for
    throughput on very chatty traces.  ``max_depth`` drops records
    nested deeper than that many spans: the CLI maps ``-v`` to the top
    two levels and ``-vv`` to everything.
    """
    def sink(record: SpanRecord) -> None:
        if max_depth is not None and record.depth > max_depth:
            return
        obj: dict = {
            "ev": "span" if record.duration is not None else "event",
            "name": record.name,
            "t_ms": round(record.start * 1e3, 3),
        }
        if record.duration is not None:
            obj["dur_ms"] = round(record.duration * 1e3, 3)
        if record.path:
            obj["in"] = "/".join(record.path)
        if record.args:
            obj["args"] = record.args
        stream.write(json.dumps(obj, default=str) + "\n")
        if flush:
            stream.flush()
    return sink


def span_totals(tracer: Tracer, depth: int = 0) -> dict[str, float]:
    """Total seconds per span name at one nesting depth (default: roots)."""
    totals: dict[str, float] = {}
    for record in tracer.spans():
        if record.depth == depth:
            totals[record.name] = totals.get(record.name, 0.0) + \
                record.duration
    return totals


def summarize(values: list) -> dict:
    """Count, sum, min, max, mean and nearest-rank p50/p95 of ``values``.

    Empty input reads count 0, min/max ``None`` and 0 for the rest.
    """
    ordered = sorted(values)
    count = len(ordered)
    total = sum(values)

    def percentile(p: float):
        return ordered[math.ceil(p / 100.0 * count) - 1] if ordered else 0

    return {
        "type": "histogram",
        "count": count,
        "sum": total,
        "min": ordered[0] if ordered else None,
        "max": ordered[-1] if ordered else None,
        "mean": total / count if count else 0.0,
        "p50": percentile(50),
        "p95": percentile(95),
    }


def trace_metrics(tracer: Tracer) -> dict[str, dict]:
    """The distributions a run's totals cannot show, by metric name.

    ``cec.solve_seconds`` summarizes the ``cec.solve`` span durations and
    ``fraig.proof_conflicts`` the ``conflicts`` of the FRAIG sweep's
    ``fraig.proof`` instants (one per proven merge); a metric with no
    sample is left out.
    """
    samples: dict[str, list] = {}
    for record in tracer.records:
        if record.name == "cec.solve" and record.duration is not None:
            samples.setdefault("cec.solve_seconds", []).append(
                record.duration)
        elif record.name == "fraig.proof":
            samples.setdefault("fraig.proof_conflicts", []).append(
                record.args["conflicts"])
    return {name: summarize(values)
            for name, values in sorted(samples.items())}


def profile_tree(tracer: Tracer) -> str:
    """A human self/total wall-time tree over the recorded spans.

    Repeated spans with the same nesting path aggregate into one row with
    a call count; *self* time is a span's total minus its children's
    totals — the time the phase spent in its own code rather than in an
    instrumented sub-phase.  Rows keep first-execution order, so the tree
    reads as the run's chronology.
    """
    nodes: dict[tuple[str, ...], dict] = {}
    for record in tracer.spans():
        key = record.path + (record.name,)
        node = nodes.get(key)
        if node is None:
            node = nodes[key] = {"total": 0.0, "count": 0,
                                 "first": record.start}
        node["total"] += record.duration
        node["count"] += 1
        if record.start < node["first"]:
            node["first"] = record.start
    if not nodes:
        return "(no spans recorded)"

    children: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    roots: list[tuple[str, ...]] = []
    for key in nodes:
        parent = key[:-1]
        if parent and parent in nodes:
            children.setdefault(parent, []).append(key)
        else:
            roots.append(key)
    for kids in children.values():
        kids.sort(key=lambda k: nodes[k]["first"])
    roots.sort(key=lambda k: nodes[k]["first"])

    rows: list[tuple[str, float, float, int]] = []

    def walk(key: tuple[str, ...], indent: int) -> None:
        node = nodes[key]
        child_total = sum(nodes[kid]["total"]
                          for kid in children.get(key, ()))
        label = "  " * indent + key[-1]
        rows.append((label, node["total"],
                     node["total"] - child_total, node["count"]))
        for kid in children.get(key, ()):
            walk(kid, indent + 1)

    for root in roots:
        walk(root, 0)

    width = max(len(label) for label, *_ in rows)
    width = max(width, len("span"))
    lines = [f"{'span':<{width}}  {'total':>10}  {'self':>10}  {'calls':>5}"]
    for label, total, self_s, count in rows:
        lines.append(
            f"{label:<{width}}  {total * 1e3:>8.2f}ms  "
            f"{self_s * 1e3:>8.2f}ms  {count:>5}"
        )
    return "\n".join(lines)
