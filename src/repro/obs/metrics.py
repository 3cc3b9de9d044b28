"""A registry of named histograms.

The engines' statistics objects (``SolverStats``, ``PassStats``,
``FraigStats``, ``EquivalenceResult``) are the one record of each run's
totals.  The registry holds what those records cannot: *distributions*
across the many steps of one run — per-CEC solve times and per-FRAIG-proof
conflict counts — summarized with exact percentiles
(``MetricsRegistry.to_dict``).  Metric names are dotted
(``cec.solve_seconds``, ``fraig.proof_conflicts``).
"""

from __future__ import annotations

import math
import threading
from typing import Optional, Union

Number = Union[int, float]


class Histogram:
    """Summary of an observed distribution, with exact percentiles.

    Samples are retained (our producers — per-CEC-pair solve times,
    per-fraig-proof conflict counts — are bounded per run, so exact
    nearest-rank percentiles beat bucketing); ``to_dict`` summarizes as
    count/sum/min/max/mean/p50/p95.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None
        self._samples: list[Number] = []

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        self._samples.append(value)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> Number:
        """Nearest-rank percentile of everything observed (0 if empty)."""
        if not self._samples:
            return 0
        ordered = sorted(self._samples)
        if p <= 0:
            return ordered[0]
        rank = math.ceil(p / 100.0 * len(ordered))
        return ordered[min(len(ordered), max(1, rank)) - 1]

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
        }


class MetricsRegistry:
    """Get-or-create registry of named histograms.

    Mutations are lock-protected so threads can share one registry.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = Histogram(name)
            return metric

    def to_dict(self) -> dict:
        """All metrics, sorted by name, each as its ``to_dict()`` record."""
        with self._lock:
            return {
                name: metric.to_dict()
                for name, metric in sorted(self._metrics.items())
            }
