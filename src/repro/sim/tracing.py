"""Event tracing and metric collection for simulations.

A :class:`Tracer` records structured trace points emitted by any subsystem
(RTE writes, CAN transmissions, PIRTE installs, server pushes...).  Traces
are the raw material for the benchmark harness: latency distributions are
computed by pairing emit/deliver trace points, and the analysis layer
turns them into the tables printed by the benchmarks.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional


@dataclass(frozen=True)
class TracePoint:
    """One structured trace record.

    ``category`` groups related events (e.g. ``"rte"``, ``"can"``,
    ``"pirte"``); ``name`` is the specific event; ``data`` carries
    event-specific key/value detail.
    """

    time: int
    category: str
    name: str
    data: dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.time}us {self.category}.{self.name} {self.data}>"


class Tracer:
    """Accumulates trace points and answers simple queries over them."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.points: list[TracePoint] = []
        self._counts: Counter[tuple[str, str]] = Counter()

    def emit(self, time: int, category: str, name: str, **data: Any) -> None:
        """Record one trace point (no-op when tracing is disabled)."""
        self._counts[(category, name)] += 1
        if self.enabled:
            self.points.append(TracePoint(time, category, name, data))

    def count(self, category: str, name: Optional[str] = None) -> int:
        """Number of events recorded for a category (and optional name)."""
        if name is not None:
            return self._counts[(category, name)]
        return sum(
            count for (cat, _), count in self._counts.items() if cat == category
        )

    def select(
        self,
        category: Optional[str] = None,
        name: Optional[str] = None,
        **filters: Any,
    ) -> list[TracePoint]:
        """Trace points matching category/name and data equality filters."""
        out = []
        for point in self.points:
            if category is not None and point.category != category:
                continue
            if name is not None and point.name != name:
                continue
            if any(point.data.get(k) != v for k, v in filters.items()):
                continue
            out.append(point)
        return out

    def clear(self) -> None:
        """Drop all recorded points and counters."""
        self.points.clear()
        self._counts.clear()

    def pair_latencies(
        self,
        start: tuple[str, str],
        end: tuple[str, str],
        key: str,
    ) -> list[int]:
        """Latencies between matching start/end points.

        Points are matched by the value of ``data[key]``; each start point
        is paired with the first subsequent end point carrying the same
        key value (FIFO matching, which suits message pipelines).
        """
        waiting: dict[Any, list[int]] = defaultdict(list)
        latencies: list[int] = []
        start_cat, start_name = start
        end_cat, end_name = end
        for point in self.points:
            if point.category == start_cat and point.name == start_name:
                waiting[point.data.get(key)].append(point.time)
            elif point.category == end_cat and point.name == end_name:
                starts = waiting.get(point.data.get(key))
                if starts:
                    latencies.append(point.time - starts.pop(0))
        return latencies


@dataclass
class LatencyStats:
    """Summary statistics over a latency sample (microseconds)."""

    count: int
    minimum: int
    maximum: int
    mean: float
    median: float
    p95: float
    stdev: float

    @classmethod
    def from_samples(cls, samples: Iterable[int]) -> "LatencyStats":
        """Compute summary stats; raises ValueError on an empty sample."""
        data = sorted(samples)
        if not data:
            raise ValueError("cannot summarise an empty latency sample")
        p95_index = min(len(data) - 1, int(round(0.95 * (len(data) - 1))))
        return cls(
            count=len(data),
            minimum=data[0],
            maximum=data[-1],
            mean=statistics.fmean(data),
            median=statistics.median(data),
            p95=float(data[p95_index]),
            stdev=statistics.pstdev(data) if len(data) > 1 else 0.0,
        )

    def as_row(self) -> dict[str, float]:
        """Dict form used by the benchmark table printer."""
        return {
            "n": self.count,
            "min_us": self.minimum,
            "mean_us": round(self.mean, 1),
            "median_us": self.median,
            "p95_us": self.p95,
            "max_us": self.maximum,
        }


__all__ = ["TracePoint", "Tracer", "LatencyStats"]
