"""Time-resolved counter series — the tracer's fourth data shape.

Spans answer *where time went*, instants answer *what happened*,
histograms answer *how it was distributed*.  None of them answer *how did it evolve*:
whether the solver's conflict rate collapsed halfway through a hard
miter, whether mean LBD drifted up as the learned DB aged.  A
:class:`TimeSeries` is the minimal structure for that — one named
channel of ``(t_seconds, value)`` samples, appended by
``Tracer.counter()`` and rendered by ``to_chrome_trace`` as Chrome
trace-event *counter* tracks (``"ph": "C"``), which Perfetto draws as
live graphs under the span flame graph.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple, Union

Number = Union[int, float]

__all__ = ["TimeSeries"]


class TimeSeries:
    """One named series of ``(t_seconds, value)`` samples.

    Times are seconds from the owning tracer's epoch, strictly append
    order (the tracer's clock is monotonic).  Parallel lists rather than
    tuples keep per-sample overhead at two list appends — this sits on
    the solver's progress path.
    """

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[Number] = []

    def append(self, t: float, value: Number) -> None:
        self.times.append(t)
        self.values.append(value)

    def last(self) -> Optional[Tuple[float, Number]]:
        """The most recent sample, or None when empty."""
        if not self.times:
            return None
        return self.times[-1], self.values[-1]

    def to_dict(self) -> dict:
        return {"name": self.name,
                "samples": [[round(t, 6), v]
                            for t, v in zip(self.times, self.values)]}

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[float, Number]]:
        return iter(zip(self.times, self.values))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeSeries({self.name!r}, samples={len(self.times)})"
