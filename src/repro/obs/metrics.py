"""Counter / Histogram metrics for the simulator.

Metrics complement the event trace (:mod:`repro.obs.tracer`): events say
*when* something happened, metrics summarise *how often* and *how much*.
The registry namespaces metrics by instrument (``core0/rob/occupancy``,
``pm/ack_latency``) so one machine run produces a single flat, diffable
dictionary via :meth:`MetricsRegistry.to_json`.

Everything here is observation-only: no metric feeds back into timing, so
collecting them cannot perturb simulated cycle counts.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Union


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_json(self) -> Dict[str, Union[int, float]]:
        return {"type": "counter", "value": self.value}


class Histogram:
    """Distribution of observed values with nearest-rank percentiles.

    Raw samples are retained (runs are short enough that this is cheap)
    so any percentile can be computed exactly after the fact.
    """

    __slots__ = ("_values", "_sorted", "total")

    def __init__(self) -> None:
        self._values: List[float] = []
        self._sorted = True
        self.total = 0.0

    def observe(self, value: float) -> None:
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)
        self.total += value

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        if not self._values:
            return 0.0
        return self.total / len(self._values)

    @property
    def min(self) -> float:
        return min(self._values) if self._values else 0.0

    @property
    def max(self) -> float:
        return max(self._values) if self._values else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile: smallest value with at least ``p``%
        of samples at or below it.  ``percentile(0)`` is the minimum,
        ``percentile(100)`` the maximum; empty histograms report 0.0."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._values:
            return 0.0
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        if p == 0.0:
            return self._values[0]
        rank = math.ceil(p / 100.0 * len(self._values))
        return self._values[rank - 1]

    def to_json(self) -> Dict[str, Union[int, float]]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


Metric = Union[Counter, Histogram]


class MetricsRegistry:
    """Flat, namespaced get-or-create store for metrics."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, cls) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls()
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def scope(self, prefix: str) -> "ScopedMetrics":
        return ScopedMetrics(self, prefix)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._metrics))

    def to_json(self) -> Dict[str, Dict[str, Union[int, float]]]:
        return {name: self._metrics[name].to_json() for name in sorted(self._metrics)}


class ScopedMetrics:
    """A prefixed view onto a registry (e.g. one per core).

    Attached to :class:`~repro.sim.stats.CoreStats` so per-core metrics
    live beside the per-core counters while sharing one backing registry.
    """

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix.rstrip("/") + "/"

    def counter(self, name: str) -> Counter:
        return self._registry.counter(self._prefix + name)

    def histogram(self, name: str) -> Histogram:
        return self._registry.histogram(self._prefix + name)
