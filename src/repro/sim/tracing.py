"""Latency summaries over simulation trace points.

Subsystems (ECU boot, OS scheduler, RTE, CAN, network channels, PIRTE)
publish their trace points onto a :class:`~repro.telemetry.TelemetryBus`
passed to them as ``tracer``; :class:`LatencyStats` summarises latency
samples taken from those points into the rows the benchmarks print.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable


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


__all__ = ["LatencyStats"]
