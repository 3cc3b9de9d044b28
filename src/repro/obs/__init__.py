"""``repro.obs`` — unified tracing & metrics across the whole pipeline.

Every engine in the repository (elaborator, optimization passes, FRAIG,
the CDCL solver, the compiled simulator, the CEC driver) is instrumented
against this zero-dependency subsystem:

* :class:`Tracer` records hierarchical wall-clock *spans* and instant
  events; :func:`use_tracer` installs one process-wide and the engines
  pick it up via :func:`get_tracer`.  The default :data:`NULL_TRACER`
  makes disabled tracing near-free.
* :class:`MetricsRegistry` (on ``tracer.metrics``) composes the engines'
  stats objects — ``SolverStats``, ``PassStats``, ``FraigStats`` — into
  one counters/gauges/histograms namespace.
* :class:`TimeSeries` channels (``tracer.counter(name, value)``) capture
  time-resolved samples — the solver's live search telemetry — exported
  as Chrome trace-event counter tracks that Perfetto graphs.
* Exporters: :func:`write_chrome_trace` (Perfetto /
  ``chrome://tracing``-loadable JSON), :func:`ndjson_sink` (streaming
  structured log), :func:`profile_tree` (human self/total summary),
  :func:`span_totals` (per-phase seconds, embedded in the CLI's JSON
  report).

The CLI exposes all three through ``--trace FILE.json``, ``-v`` /
``--log-level``, and ``--profile``; ``perfbench/run.py --trace 1`` reads
its per-layer timings from the same spans.  The solver additionally emits MiniSat-style progress
events every N conflicts through a pluggable callback —
:func:`attach_solver_progress` routes them into the current tracer.
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .timeseries import TimeSeries
from .tracer import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)
from .export import (
    ndjson_sink,
    profile_tree,
    span_totals,
    to_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "SpanRecord",
    "TimeSeries",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "ndjson_sink",
    "profile_tree",
    "span_totals",
    "to_chrome_trace",
    "write_chrome_trace",
    "attach_solver_progress",
]


def attach_solver_progress(solver, tracer=None, interval: int = 2000) -> None:
    """Stream a solver's progress reports into a tracer as instant events.

    ``solver`` is any engine providing ``set_progress(callback, interval)``
    (the flat-array :class:`repro.netlist.sat.Solver`; the reference solver
    has no progress plumbing and is silently left alone).  Each report —
    the MiniSat-style line of conflicts / restarts / trail depth / mean
    LBD / props-per-second — lands as a ``solver.progress`` instant event
    inside whatever span is open at emission time, so trace viewers show
    search progress *inside* the ``cec.solve`` or ``fraig.round`` span it
    belongs to.  The search-shape numbers are additionally sampled into
    ``solver.*`` :class:`TimeSeries` channels (``tracer.counter``), which
    the Chrome trace exporter renders as Perfetto counter tracks — live
    graphs of conflict rate / trail depth / learned-DB size / mean LBD
    under the flame graph.
    """
    tracer = tracer if tracer is not None else get_tracer()
    if not tracer.enabled:
        return
    set_progress = getattr(solver, "set_progress", None)
    if set_progress is None:
        return

    counter_keys = ("conflicts", "conflicts_per_second", "trail",
                    "learned", "mean_lbd", "props_per_second")

    def emit(report: dict) -> None:
        tracer.instant("solver.progress", **report)
        for key in counter_keys:
            value = report.get(key)
            if value is not None:
                tracer.counter(f"solver.{key}", value)

    set_progress(emit, interval=interval)
