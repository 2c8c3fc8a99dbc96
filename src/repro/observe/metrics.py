"""Deterministic metrics: counters, gauges and fixed-bucket histograms.

The registry is the numeric half of :mod:`repro.observe` (spans are the
temporal half).  Everything here is deliberately deterministic: histogram
bucket edges are fixed at creation time (never derived from the data),
snapshots render keys in sorted order, and merging two registries is
plain addition — so a serial run, a parallel run and a run re-assembled
from per-worker snapshots all report identical numbers for identical
work.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

#: Default edges for iteration-count histograms (Newton / Gummel loops).
ITERATION_BUCKETS: Tuple[float, ...] = (
    1, 2, 3, 5, 8, 12, 20, 40, 80, 160, 320, 640)

#: Default edges for "how many evaluations did the optimizer spend".
EVALUATION_BUCKETS: Tuple[float, ...] = (
    10, 25, 50, 100, 200, 400, 800, 1600, 3200)

#: Default edges for wall-time histograms [s].
TIME_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0, 600.0)

#: Edges for request service-time histograms [s] — finer sub-second
#: resolution than :data:`TIME_BUCKETS` (admission decisions and
#: Retry-After hints key off these).
REQUEST_BUCKETS: Tuple[float, ...] = (
    0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
    60.0, 300.0)


class Counter:
    """Monotonic counter (floats allowed for accumulated quantities)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-value-wins instrument (pool width, hit rate, grid size...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        """Shift the gauge by ``delta`` (unset counts as zero).

        The natural instrument update for levels that rise and fall —
        queue depth, in-flight requests — where callers know the
        change, not the absolute value.
        """
        self.value = (self.value or 0.0) + float(delta)

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram.

    ``edges`` are upper bounds of the first ``len(edges)`` buckets; one
    overflow bucket catches everything larger.  Edges are part of the
    histogram's identity: two histograms merge only if their edges match
    exactly, which is what keeps cross-process aggregation deterministic.
    """

    __slots__ = ("name", "edges", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, edges: Sequence[float] = ITERATION_BUCKETS):
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ReproError(
                f"histogram {name!r} edges must be strictly increasing")
        self.name = name
        self.edges: Tuple[float, ...] = tuple(float(e) for e in edges)
        self.counts: List[int] = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Named instruments, created on first use and merged by addition."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # instrument lookup (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(name, Counter(name))
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(name, Gauge(name))
        return gauge

    def histogram(self, name: str,
                  edges: Sequence[float] = ITERATION_BUCKETS) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(
                    name, Histogram(name, edges))
        elif histogram.edges != tuple(float(e) for e in edges):
            raise ReproError(
                f"histogram {name!r} re-requested with different edges")
        return histogram

    # ------------------------------------------------------------------
    # snapshots and merging (cross-process aggregation)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-compatible state of every instrument, sorted by name."""
        out: Dict[str, Dict[str, Any]] = {}
        for name in sorted(self._counters):
            out[name] = self._counters[name].to_dict()
        for name in sorted(self._gauges):
            out[name] = self._gauges[name].to_dict()
        for name in sorted(self._histograms):
            out[name] = self._histograms[name].to_dict()
        return out

    def merge(self, snapshot: Dict[str, Dict[str, Any]]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histograms add; gauges take the incoming value (the
        merged snapshot is the more recent observation).
        """
        for name, data in snapshot.items():
            kind = data.get("type")
            if kind == "counter":
                self.counter(name).inc(data["value"])
            elif kind == "gauge":
                if data["value"] is not None:
                    self.gauge(name).set(data["value"])
            elif kind == "histogram":
                histogram = self.histogram(name, data["edges"])
                if list(histogram.edges) != list(data["edges"]):
                    raise ReproError(
                        f"cannot merge histogram {name!r}: edge mismatch")
                for i, count in enumerate(data["counts"]):
                    histogram.counts[i] += count
                histogram.count += data["count"]
                histogram.total += data["total"]
                for bound, pick in (("min", min), ("max", max)):
                    incoming = data[bound]
                    if incoming is None:
                        continue
                    current = getattr(histogram, bound)
                    setattr(histogram, bound,
                            incoming if current is None
                            else pick(current, incoming))
            else:
                raise ReproError(f"unknown instrument type {kind!r} "
                                 f"for {name!r}")
