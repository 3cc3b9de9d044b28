"""Hierarchical span tracing for the elaborate → opt → FRAIG → SAT → sim
pipeline.

A :class:`Tracer` records *spans* — named, nested, wall-clocked intervals
opened with the :meth:`Tracer.span` context manager — plus zero-duration
*instant* events (solver progress reports, hash-proven root pairs).  The
records are flat :class:`SpanRecord` rows carrying their nesting path, so
exporters (:mod:`repro.obs.export`) can rebuild the tree, emit Chrome
trace-event JSON, stream ndjson, or print a self/total profile without the
tracer itself committing to any one format.

The instrumented engines never take a tracer parameter; they call
:func:`get_tracer` and trace into whatever is installed.  The default is
:data:`NULL_TRACER`, whose ``span()`` returns one shared no-op context
manager — disabled tracing costs a method call and a dict build per span
site, nothing per gate or per solver conflict.  :func:`use_tracer`
installs a live tracer for a ``with`` region and always restores the
previous one, exceptions included.

Thread safety: the span *stack* is thread-local (each thread nests its own
spans), while the finished-record list is shared under a lock, so a future
multiprocessing/threaded server can funnel worker spans into one trace.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from .metrics import MetricsRegistry
from .timeseries import TimeSeries


@dataclass
class SpanRecord:
    """One finished span (or instant event, when ``duration`` is None)."""

    name: str
    #: Wall-clock start, seconds relative to the tracer's epoch.
    start: float
    #: Seconds; ``None`` marks an instant event.
    duration: Optional[float]
    #: Names of the enclosing spans, outermost first (not including self).
    path: tuple[str, ...]
    #: Thread identifier the span ran on.
    tid: int
    #: Free-form key/value annotations attached at open or close time.
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return len(self.path)


class _NullSpan:
    """The shared do-nothing span handed out by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args: Any) -> None:
        """Discard annotations (live spans record them)."""


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracing: every operation is a no-op.

    Kept API-compatible with :class:`Tracer` so instrumentation sites never
    branch — they call ``get_tracer().span(...)`` unconditionally and pay
    near-zero cost when tracing is off.  ``enabled`` is ``False`` so the
    few genuinely hot sites (solver progress wiring) can skip setup work
    entirely.
    """

    enabled = False

    def span(self, name: str, /, **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, /, **args: Any) -> None:
        pass

    def counter(self, name: str, value: Any, /) -> None:
        pass

    @property
    def metrics(self) -> MetricsRegistry:
        # A fresh throwaway registry: writes vanish, reads see nothing.
        return MetricsRegistry()


#: The process-wide disabled tracer (also the reset target).
NULL_TRACER = NullTracer()


class _LiveSpan:
    """Context manager for one open span of a live :class:`Tracer`.

    Exception-safe: ``__exit__`` always pops the stack and records the
    span (annotated with the exception type when one escaped), then lets
    the exception propagate.
    """

    __slots__ = ("_tracer", "name", "args", "_start", "_path")

    def __init__(self, tracer: "Tracer", name: str,
                 args: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self._start = 0.0
        self._path: tuple[str, ...] = ()

    def set(self, **args: Any) -> None:
        """Attach (or overwrite) annotations while the span is open."""
        self.args.update(args)

    def __enter__(self) -> "_LiveSpan":
        stack = self._tracer._stack()
        self._path = tuple(frame.name for frame in stack)
        stack.append(self)
        self._start = time.perf_counter() - self._tracer.epoch
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter() - self._tracer.epoch
        stack = self._tracer._stack()
        # Pop self even if interleaved misuse left later frames open.
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        if exc_type is not None:
            self.args["exception"] = exc_type.__name__
        self._tracer._record(SpanRecord(
            name=self.name,
            start=self._start,
            duration=end - self._start,
            path=self._path,
            tid=threading.get_ident(),
            args=self.args,
        ))
        return False


class Tracer:
    """A live span/event recorder with an attached histogram registry.

    ``sink`` (optional) is called with every finished :class:`SpanRecord`
    as it lands — the ndjson structured log streams through it — while the
    full record list stays available for post-run export.
    """

    enabled = True

    def __init__(self, sink: Optional[Callable[[SpanRecord], None]] = None
                 ) -> None:
        #: ``time.perf_counter()`` at construction; record times are
        #: seconds since it.
        self.epoch = time.perf_counter()
        self.records: list[SpanRecord] = []
        self.metrics = MetricsRegistry()
        self.timeseries: dict[str, TimeSeries] = {}
        self.sink = sink
        self.pid = os.getpid()
        #: Thread that built the tracer — labeled "main" by the Chrome
        #: trace exporter's thread metadata.
        self.main_tid = threading.get_ident()
        self._lock = threading.Lock()
        self._tls = threading.local()

    def _stack(self) -> list[_LiveSpan]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            self.records.append(record)
        if self.sink is not None:
            self.sink(record)

    def span(self, name: str, /, **args: Any) -> _LiveSpan:
        """Open a nested span: ``with tracer.span("cec.solve", vars=n):``."""
        return _LiveSpan(self, name, args)

    def instant(self, name: str, /, **args: Any) -> None:
        """Record a zero-duration event at the current nesting depth."""
        self._record(SpanRecord(
            name=name,
            start=time.perf_counter() - self.epoch,
            duration=None,
            path=tuple(frame.name for frame in self._stack()),
            tid=threading.get_ident(),
            args=args,
        ))

    def counter(self, name: str, value: Any, /) -> None:
        """Append one sample to the named :class:`TimeSeries`.

        Counter channels are time-resolved (``(t, value)`` at the
        tracer's clock), unlike the metrics registry's histograms, which
        keep values without their times.
        They export as Chrome trace-event counter tracks — Perfetto
        graphs them under the flame graph — which is how the solver's
        progress snapshots (conflict rate, mean LBD, trail depth, ...)
        become live search-behavior plots.
        """
        t = time.perf_counter() - self.epoch
        series = self.timeseries.get(name)
        if series is None:
            with self._lock:
                series = self.timeseries.setdefault(name, TimeSeries(name))
        series.append(t, value)

    def adopt(self, records: list[SpanRecord],
              tid: Optional[int] = None) -> None:
        """Stitch spans recorded by *another* tracer into this timeline.

        The server's job pool runs each worker under its own
        :class:`Tracer` and ships the picklable :class:`SpanRecord` rows
        back to the parent, which adopts them so one export shows the
        whole fan-out.  The foreign trace is shifted onto this tracer's
        clock so that it ends *now* (the parent adopts right after
        collecting the worker's result).  ``tid`` relabels the records'
        thread id so exporters draw each worker on its own track instead
        of colliding with parent threads.
        """
        if not records:
            return
        end = max(r.start + (r.duration or 0.0) for r in records)
        offset = (time.perf_counter() - self.epoch) - end
        adopted = [
            SpanRecord(name=r.name, start=r.start + offset,
                       duration=r.duration, path=r.path,
                       tid=tid if tid is not None else r.tid,
                       args=r.args)
            for r in records
        ]
        with self._lock:
            self.records.extend(adopted)
        if self.sink is not None:
            for record in adopted:
                self.sink(record)

    # -- post-run queries ---------------------------------------------------

    def spans(self) -> list[SpanRecord]:
        """Finished spans only (instants excluded), in completion order."""
        return [r for r in self.records if r.duration is not None]

    def total_seconds(self, name: Optional[str] = None,
                      depth: Optional[int] = None) -> float:
        """Sum of span durations, optionally filtered by name and/or depth."""
        return sum(
            r.duration for r in self.records
            if r.duration is not None
            and (name is None or r.name == name)
            and (depth is None or r.depth == depth)
        )


# ---------------------------------------------------------------------------
# The process-wide current tracer
# ---------------------------------------------------------------------------

_current: "Tracer | NullTracer" = NULL_TRACER


def get_tracer() -> "Tracer | NullTracer":
    """The tracer instrumentation sites should record into right now."""
    return _current


def set_tracer(tracer: "Tracer | NullTracer") -> "Tracer | NullTracer":
    """Install ``tracer`` as the process-wide current tracer.

    Returns the previously installed tracer so callers can restore it;
    prefer :func:`use_tracer` which does that automatically.
    """
    global _current
    previous = _current
    _current = tracer
    return previous


@contextmanager
def use_tracer(tracer: "Tracer | NullTracer") -> Iterator["Tracer | NullTracer"]:
    """Install ``tracer`` for the duration of a ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
