"""Spans the benchmark records around its calls into the program.

A :class:`Spans` recorder keeps one :class:`Span` row per timed call, in
memory: layer name, start, end, the enclosing span and the op it belongs
to.  :meth:`Spans.op` opens an op's root span; :meth:`Spans.span` opens a
child of the innermost open span.  Untraced ops get :data:`OFF`, whose
spans do nothing, so traced and untraced ops run the same code.

Each thread that records spans needs its own recorder.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Iterator, Optional

#: Name of an op's root span.
OP = "op"


@dataclass(eq=False)
class Span:
    layer: str
    start: float
    end: float
    #: The enclosing span; None for an op's root span.
    parent: Optional["Span"]
    op: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    enabled = True

    def __init__(self) -> None:
        self.rows: list[Span] = []
        self._open: list[Span] = []
        self._op = -1

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        row = Span(layer, time.perf_counter(), 0.0, parent, self._op)
        self._open.append(row)
        self.rows.append(row)
        try:
            yield row
        finally:
            row.end = time.perf_counter()
            self._open.pop()

    def op(self, op_id: int) -> contextlib.AbstractContextManager:
        self._op = op_id
        return self.span(OP)

    def op_rows(self, op_id: int) -> list[Span]:
        return [row for row in self.rows if row.op == op_id]


class _Off:
    """The recorder of untraced ops: every span is a shared no-op."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, layer: str) -> contextlib.AbstractContextManager:
        return self._null

    def op(self, op_id: int) -> contextlib.AbstractContextManager:
        return self._null


OFF = _Off()


def _leaves(rows: list[Span]) -> list[Span]:
    parents = {id(row.parent) for row in rows}
    return [row for row in rows if id(row) not in parents]


def leaf_totals(rows: list[Span]) -> dict[str, float]:
    """Seconds per layer over the spans no other span nests in."""
    totals: dict[str, float] = {}
    for row in _leaves(rows):
        if row.layer != OP:
            totals[row.layer] = totals.get(row.layer, 0.0) + row.seconds
    return totals


def unattributed_share(rows: list[Span]) -> float:
    """Share of an op's root span that no layer span covers.

    ``rows`` are the spans of one op.  The spans of one op never overlap
    (an op runs on one thread), so the covered time is the sum of the
    leaf spans.
    """
    root = next(row for row in rows if row.parent is None)
    if root.seconds <= 0:
        return 0.0
    return max(0.0, 1.0 - sum(leaf_totals(rows).values()) / root.seconds)


def by_group(rows: list[Span], prefix: str) -> dict[str, dict[str, float]]:
    """Seconds per layer under each grouping span ``<prefix><label>``
    (for example, per design of a flow op), keyed by label."""
    groups: dict[str, dict[str, float]] = {}
    for row in _leaves(rows):
        group = row.parent
        while group is not None and not group.layer.startswith(prefix):
            group = group.parent
        if group is None:
            continue
        per = groups.setdefault(group.layer[len(prefix):], {})
        per[row.layer] = per.get(row.layer, 0.0) + row.seconds
    return groups
