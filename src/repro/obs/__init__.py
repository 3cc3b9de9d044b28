"""``repro.obs`` — unified tracing across the whole pipeline.

Every engine in the repository (elaborator, optimization passes, FRAIG,
the CDCL solver, the compiled simulator, the CEC driver) is instrumented
against this zero-dependency subsystem:

* :class:`Tracer` records hierarchical wall-clock *spans* and instant
  events into one record list; :func:`use_tracer` installs one
  process-wide and the engines pick it up via :func:`get_tracer`.  The
  default :data:`NULL_TRACER` makes disabled tracing near-free.  Totals
  stay in the engines' own stats records (``SolverStats``,
  ``PassStats``, ``FraigStats``, ``EquivalenceResult``).
* Exporters are views over the records: :func:`write_chrome_trace`
  (Perfetto / ``chrome://tracing``-loadable JSON, with the solver's
  progress reports as counter tracks), :func:`ndjson_sink` (streaming
  structured log), :func:`profile_tree` (human self/total summary),
  :func:`span_totals` (per-phase seconds) and :func:`trace_metrics`
  (per-CEC solve times and per-FRAIG-proof conflicts, summarized with
  exact percentiles), the last two embedded in the CLI's JSON report.

The CLI exposes them through ``--trace FILE.json``, ``-v`` / ``-vv``,
and ``--profile``; ``perfbench/run.py --trace 1`` reads its per-layer
timings from the same spans.  The solver additionally emits MiniSat-style
progress reports every N conflicts through a pluggable callback —
:func:`attach_solver_progress` routes them into the current tracer.
"""

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
    trace_metrics,
    write_chrome_trace,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "SpanRecord",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "ndjson_sink",
    "profile_tree",
    "span_totals",
    "to_chrome_trace",
    "trace_metrics",
    "write_chrome_trace",
    "attach_solver_progress",
]


def attach_solver_progress(solver, tracer=None, interval: int = 2000) -> None:
    """Stream a :class:`repro.netlist.sat.Solver`'s progress into a tracer.

    Each report — the MiniSat-style line of conflicts / restarts / trail
    depth / mean LBD / props-per-second — lands as a ``solver.progress``
    instant event inside whatever span is open at emission time, so trace
    viewers show search progress *inside* the ``cec.solve`` or
    ``fraig.round`` span it belongs to, and :func:`to_chrome_trace` graphs
    the search-shape numbers as counter tracks.
    """
    tracer = tracer if tracer is not None else get_tracer()
    if not tracer.enabled:
        return

    def emit(report: dict) -> None:
        tracer.instant("solver.progress", **report)

    solver.set_progress(emit, interval=interval)
